"""The JSON input layer: its validators, and every loader against arbitrary JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhydro import jsonio
from qhydro.hilbert import hermitian_from_json
from qhydro.spin import contour_from_json, wavefunction_from_json


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


def test_load_object_reads_dicts_text_and_paths(tmp_path):
    path, listed = tmp_path / "x.json", tmp_path / "list.json"
    path.write_text('{"a": 1}')
    listed.write_text("[]")
    for source in [{"a": 1}, ' {"a": 1}', str(path), path]:
        assert jsonio.load_object(source, "x") == {"a": 1}
    for source in ["[1, 2]", [1], None, 3, 2.5, True, str(listed)]:
        with pytest.raises(ValueError, match="^x JSON must be an object$"):
            jsonio.load_object(source, "x")


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
