"""The I/O layer: its validators, every loader against arbitrary JSON, and the one writer."""

import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhydro import fluid, jsonio
from qhydro.cli import main
from qhydro.fluid import zeno_decay
from qhydro.hilbert import StateVector, hermitian_from_json
from qhydro.riemann import ChartManifold, VectorField, flow_integrate, geodesic_integrate
from qhydro.spin import CircleContour, SpinWaveFunction, contour_from_json, wavefunction_from_json


def test_real_array_checks_shape_type_and_finiteness():
    assert np.array_equal(jsonio.real_array("m", [[1, 2.5], [-3, 0]], (2, 2)), [[1.0, 2.5], [-3.0, 0.0]])
    assert jsonio.real_array("r", 7, ()) == 7.0
    assert jsonio.real_array("roots", [], (0, 3)).shape == (0, 3)
    for obj, message in [
        ([[1, 2]], "'m' must be a list of 2 rows"),
        ([[1, 2], [3]], "'m[1]' must be a list of 2 numbers"),
        ([[1, 2], {"a": 1}], "'m[1]' must be a list of 2 numbers"),
        ([[1, 2], [3, "4"]], "'m[1][1]' is not a number: '4'"),
        ([[1, False], [3, 4]], "'m[0][1]' is not a number: False"),
        ([[1, 2], [float("-inf"), 4]], "'m[1][0]' is not finite: -inf"),
        ([[1, 10**400], [3, 4]], "'m[0][1]' is not finite"),
    ]:
        with pytest.raises(ValueError) as info:
            jsonio.real_array("m", obj, (2, 2))
        assert str(info.value).startswith(message)


def test_integer_bounds_and_whole_floats():
    assert jsonio.integer("n", 5, 0, 5) == 5 and type(jsonio.integer("n", 3.0, 0, 5)) is int
    for value in [6, -1, 2.5, float("nan"), float("inf"), True, "3", None, [3]]:
        with pytest.raises(ValueError, match=r"^'n' must be an integer in \[0, 5\], got "):
            jsonio.integer("n", value, 0, 5)


PLANE = ChartManifold(2, lambda x: np.eye(2))
EQUAL = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
H01 = hermitian_from_json({"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]]})
# an entry point and the name its ValueError gives; True ran one step, one measurement, a 1-fold root and a
# circle of radius True, and 2.5 is a radius
SIZES = {
    "geodesic_integrate": (lambda v: geodesic_integrate(PLANE, np.zeros(2), np.ones(2), 1.0, v), "steps"),
    "flow_integrate": (lambda v: flow_integrate(VectorField(lambda x: -x), np.ones(2), 1.0, v), "steps"),
    "zeno_decay": (lambda v: zeno_decay(H01, EQUAL, 0.1, v), "measurement count"),
    "from_roots": (lambda v: SpinWaveFunction.from_roots([(0.5, v)]), "multiplicity"),
    "CircleContour": (lambda v: CircleContour(0.0, v), "radius"),
    "_sphere_grid": (lambda v: fluid._sphere_grid((v, 8)), "theta resolution"),
}


@pytest.mark.parametrize("value", [True, 2.5, math.nan, math.inf, -1, 0])
@pytest.mark.parametrize("entry", SIZES)
def test_a_bool_or_a_number_that_is_not_a_size_is_refused_by_name(entry, value):
    call, name = SIZES[entry]
    if entry == "CircleContour" and value == 2.5:
        assert call(value).radius == 2.5
        return
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


def test_load_object_reads_dicts_text_and_paths(tmp_path):
    path, listed = tmp_path / "x.json", tmp_path / "list.json"
    path.write_text('{"a": 1}')
    listed.write_text("[]")
    for source in [{"a": 1}, ' {"a": 1}', str(path), path]:
        assert jsonio.load_object(source, "x") == {"a": 1}
    for source in ["[1, 2]", [1], None, 3, 2.5, True, str(listed)]:
        with pytest.raises(ValueError, match="^x JSON must be an object$"):
            jsonio.load_object(source, "x")
    # malformed JSON read from a file names the file; JSON given as text has none to name
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": ')
    for source, where in [('{"a": ', ""), (str(bad), f" in {bad}"), (bad, f" in {bad}")]:
        with pytest.raises(ValueError, match=f"^malformed JSON{re.escape(where)} at line 1, column 7: Expecting value$"):
            jsonio.load_object(source, "x")
    # every loader of the library refuses a missing file with a ValueError that names it
    for loader in (hermitian_from_json, wavefunction_from_json, contour_from_json):
        with pytest.raises(ValueError, match=f"^input file not found: {re.escape(str(tmp_path / 'missing.json'))}$"):
            loader(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "old, new",
    [("a longer old text\n" * 8, "new\n"), ("old\n", "a longer new text, \u00e9\n" * 8)],
    ids=["shorter", "longer"],
)
def test_write_text_rewrites_the_same_inode_to_exactly_the_new_bytes(tmp_path, old, new):
    path = tmp_path / "out.txt"
    path.write_bytes(old.encode("utf-8"))
    inode = path.stat().st_ino
    jsonio.write_text(path, new)
    assert path.read_bytes() == new.encode("utf-8")
    assert path.stat().st_ino == inode


def test_write_text_writes_through_links_and_keeps_them(tmp_path):
    target, symlink, hardlink = tmp_path / "target.txt", tmp_path / "symlink.txt", tmp_path / "hardlink.txt"
    target.write_text("the old text\n")
    symlink.symlink_to(target)
    os.link(target, hardlink)
    jsonio.write_text(symlink, "new\n")
    assert symlink.is_symlink() and target.read_bytes() == hardlink.read_bytes() == b"new\n"
    jsonio.write_text(hardlink, "newer\n")
    assert target.read_bytes() == b"newer\n" and target.stat().st_nlink == 2


def test_write_text_creates_a_file_with_the_mode_open_gives_and_keeps_an_existing_mode(tmp_path):
    with open(tmp_path / "by_open.txt", "w"):
        pass
    jsonio.write_text(tmp_path / "by_write_text.txt", "x\n")
    assert (tmp_path / "by_write_text.txt").stat().st_mode == (tmp_path / "by_open.txt").stat().st_mode
    os.chmod(tmp_path / "by_open.txt", 0o640)
    jsonio.write_text(tmp_path / "by_open.txt", "y\n")
    assert stat.S_IMODE((tmp_path / "by_open.txt").stat().st_mode) == 0o640


def test_output_to_dev_null_exits_0(tmp_path):
    # /dev/null is written without a truncate, which it refuses with EINVAL
    h = tmp_path / "H.json"
    h.write_text('{"dim": 2, "re": [[0, 1], [1, 0]]}')
    assert main(["verify", "--input", str(h), "--output", os.devnull]) == 0


def test_every_output_file_is_opened_by_os_open_without_o_trunc(tmp_path, monkeypatch):
    # a return to open(path, "w") (O_TRUNC, and no os.open) fails here, not only in the benchmark
    calls, os_open = [], os.open

    def spy(path, flag, *args):
        calls.append((os.fspath(path), flag))
        return os_open(path, flag, *args)

    h = tmp_path / "H.json"
    h.write_text('{"dim": 3, "re": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}')
    monkeypatch.setattr(os, "open", spy)
    for argv in (["pressure", "--grid", "4", "--output", str(tmp_path / "p")],
                 ["verify", "--output", str(tmp_path / "r.json")]):
        for _ in range(2):  # created, then rewritten
            assert main(argv + ["--input", str(h)]) == 0
    assert sorted({path for path, _ in calls}) == sorted(str(path) for path in tmp_path.iterdir() if path != h)
    assert [path for path, flag in calls if flag & os.O_TRUNC] == []


# Keys the loaders read, so that arbitrary dicts reach their branches.
KEYS = st.sampled_from(
    ["dim", "re", "im", "two_s", "roots", "coeffs_re", "coeffs_im", "circle", "polygon",
     "center", "radius", "nodes", "ccw", "vertices", "nodes_per_edge"]
) | st.text(max_size=3)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-3, max_value=1100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16,
)

GOOD = [
    (hermitian_from_json, {"dim": 2, "re": [[0.0, 1.0], [1.0, 0.5]], "im": [[0.0, 0.25], [-0.25, 0.0]]}),
    (wavefunction_from_json, {"two_s": 2, "coeffs_re": [1.0, -0.5, 2.0], "coeffs_im": [0.0, 0.5, 0.0]}),
    (wavefunction_from_json, {"roots": [[1.0, 0.5, 2], [-1.0, 0.0, 1]], "two_s": 4}),
    (contour_from_json, {"circle": {"center": [0.5, -1.0], "radius": 2.0, "nodes": 64, "ccw": False}}),
    (contour_from_json, {"polygon": {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]], "nodes_per_edge": 8}}),
]
DELETE = object()


def _nodes(obj, path=()):
    """Every path into nested dicts and lists, the root included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(obj, path, value):
    """A copy of obj with the node at path set to value, or removed for DELETE."""
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    if len(path) == 1 and value is DELETE:
        del out[path[0]]
    else:
        out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


@st.composite
def loader_inputs(draw):
    loader, good = draw(st.sampled_from(GOOD))
    if draw(st.booleans()):
        # a near-valid input: one node of a good input replaced or removed
        path = draw(st.sampled_from(list(_nodes(good))[1:]))
        return loader, _replaced(good, path, draw(JSON_VALUES | st.just(DELETE)))
    # a string at the top level is a path by contract, so arbitrary values stop short of it
    return loader, draw(JSON_VALUES.filter(lambda value: not isinstance(value, str)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(loader_inputs())
def test_loaders_return_an_object_or_raise_value_error(case):
    loader, value = case
    sources = [value] + ([json.dumps(value)] if isinstance(value, (dict, list)) else [])
    for source in sources:
        try:
            loader(source)
        except ValueError:
            pass
