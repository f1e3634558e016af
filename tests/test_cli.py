"""CLI: exit codes, report schemas, determinism."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import field_with_pressure_gradient
from qhydro import cli, jsonio
from qhydro.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from qhydro.fluid import GradientCheckError
from qhydro.hilbert import DegenerateSpectrumError
from qhydro.spin import ClusterAmbiguityError

H01_JSON = {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": None}
H123_JSON = {"dim": 3, "re": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_verify_passes_for_two_level(tmp_path, capsys):
    h = write_json(tmp_path / "H.json", H01_JSON)
    out = tmp_path / "report.json"
    assert main(["verify", "--input", h, "--seed", "7", "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = {c["check"] for c in report["checks"]}
    assert {"killing_residual", "euler_residual", "dispersion_identity"} <= names
    for check in report["checks"]:
        assert check["max_residual"] < check["threshold"]


def test_verify_is_deterministic(tmp_path):
    h = write_json(tmp_path / "H.json", H01_JSON)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--input", h, "--seed", "3", "--output", str(a)]) == EXIT_OK
    assert main(["verify", "--input", h, "--seed", "3", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_tolerance_override_can_fail(tmp_path):
    h = write_json(tmp_path / "H.json", H01_JSON)
    code = main(["verify", "--input", h, "--tol-killing", "1e-18",
                 "--output", str(tmp_path / "r.json")])
    assert code == EXIT_CHECK_FAILED


def test_pressure_exports_landscape_and_critical_set(tmp_path, capsys):
    h = write_json(tmp_path / "H3.json", H123_JSON)
    base = tmp_path / "pressure"
    assert main(["pressure", "--input", h, "--grid", "16", "--output", str(base)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    csv_files = summary["csv_files"]
    assert len(csv_files) == 3
    header = open(csv_files[0]).readline().strip()
    assert header == "theta,phi,numeric,analytic,abs_err"
    report = json.loads(open(summary["critical_report"]).read())
    pressures = sorted(cp["pressure"] for cp in report["critical_points"])
    assert pressures == pytest.approx([0.0, 0.0, 0.0, 0.125, 0.125, 0.5])
    assert all(cp["gradient_norm"] < 1e-8 for cp in report["critical_points"])


def test_critical_points_command(tmp_path):
    h = write_json(tmp_path / "H.json", H01_JSON)
    out = tmp_path / "cp.json"
    assert main(["critical-points", "--input", h, "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    kinds = [cp["kind"] for cp in report["critical_points"]]
    assert kinds.count("eigenstate") == 2 and kinds.count("pair_superposition") == 1


def test_critical_points_degenerate_is_input_error(tmp_path, capsys):
    h = write_json(tmp_path / "H.json", {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["critical-points", "--input", h]) == EXIT_INPUT_ERROR
    assert "nondegenerate" in capsys.readouterr().err


def test_vorticity_command(tmp_path, capsys):
    h = write_json(tmp_path / "H.json", H01_JSON)
    out = tmp_path / "w.csv"
    code = main(["vorticity", "--input", h, "--grid", "9", "--pair", "1", "0",
                 "--output", str(out)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["omega"] == pytest.approx(1.0)
    assert summary["passed"] is True
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,phi,numeric,analytic,abs_err"
    assert len(lines) == 1 + 9 * 9


def test_vorticity_rejects_bad_pair(tmp_path, capsys):
    h = write_json(tmp_path / "H.json", H01_JSON)
    assert main(["vorticity", "--input", h, "--pair", "0", "1"]) == EXIT_INPUT_ERROR


def test_vorticity_needs_only_its_own_pair_to_be_nondegenerate(tmp_path, capsys):
    # E = (0, 0, 1): S_20 carries a flow, while on S_10 the flow vanishes and the profile check would pass vacuously
    h = write_json(tmp_path / "H.json", {"dim": 3, "re": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]})
    argv = ["vorticity", "--input", h, "--grid", "16", "--output", str(tmp_path / "w.csv"), "--pair"]
    assert main([*argv, "2", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert main([*argv, "1", "0"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    message = "error: pair (1, 0) is degenerate: E_1 - E_0 = 0.0 is at most 1e-08 times the spectral range 1.0\n"
    assert captured.out == "" and captured.err == message


def test_trajectory_report(tmp_path):
    h = write_json(tmp_path / "H.json", H01_JSON)
    out = tmp_path / "traj.json"
    code = main(["trajectory", "--input", h, "--t", "1.0", "--grid", "400",
                 "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    # default start is the equal pair superposition: a geodesic trajectory
    assert report["max_deviation"] < 1e-6
    assert report["pressure_gradient_norm"] < 1e-8


def test_trajectory_with_explicit_state(tmp_path):
    payload = {
        "hamiltonian": H01_JSON,
        "state": {"re": [np.sqrt(0.3), np.sqrt(0.7)], "im": [0.0, 0.0]},
    }
    h = write_json(tmp_path / "run.json", payload)
    out = tmp_path / "traj.json"
    assert main(["trajectory", "--input", h, "--t", "1.0", "--grid", "400",
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["max_deviation"] > 1e-3


def test_zeno_report(tmp_path):
    h = write_json(tmp_path / "H.json", H01_JSON)
    out = tmp_path / "zeno.json"
    assert main(["zeno", "--input", h, "--t", "0.1", "--N", "10",
                 "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["dispersion_squared"] == pytest.approx(0.25)
    assert report["deficit"] == pytest.approx(2.5e-4, rel=0.02)
    assert report["quadratic_prediction"] == pytest.approx(2.5e-4, abs=1e-12)


def test_spin_circulation_prints_integer(tmp_path, capsys):
    chi = write_json(tmp_path / "chi.json",
                     {"two_s": 3, "coeffs_re": [-1.0, 0.0, 0.0, 1.0]})
    ring = write_json(tmp_path / "circle.json",
                      {"circle": {"center": [0.0, 0.0], "radius": 2.0, "nodes": 256}})
    assert main(["spin-circulation", "--input", chi, "--contour", ring]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "3.000000000"


def test_spin_circulation_default_ring(tmp_path, capsys):
    chi = write_json(tmp_path / "chi.json", {"roots": [[2.0, 0.0, 1], [0.0, -3.0, 1]]})
    assert main(["spin-circulation", "--input", chi]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2.000000000"


def test_spin_circulation_and_bohr_sommerfeld_check_share_one_integrality_rule(tmp_path, capsys, monkeypatch):
    from qhydro import spin

    # the winding is an integer to round-off; a seam moves it off by a deviation both readers must see
    chi_data, circle = {"roots": [[0.6, 0.0, 1], [0.0, 0.5, 2]]}, {"circle": {"radius": 1.0, "nodes": 32}}
    chi, ring = write_json(tmp_path / "chi.json", chi_data), write_json(tmp_path / "c.json", circle)
    out = tmp_path / "o.json"
    wave, contour = spin.wavefunction_from_json(chi_data), spin.contour_from_json(circle)
    winding = spin.circulation
    monkeypatch.setattr(spin, "circulation", lambda chi, contour: winding(chi, contour) + 3e-9)
    (record,) = spin.bohr_sommerfeld_check(wave, [contour])
    assert record.value == winding(wave, contour) + 3e-9 and 1e-9 < record.deviation < 1e-8 and record.nearest == 3
    for tol in (record.deviation / 2.0, record.deviation * 2.0):
        monkeypatch.setattr(spin, "INTEGRALITY_TOL", tol)
        ok = tol > record.deviation
        code = main(["spin-circulation", "--input", chi, "--contour", ring, "--output", str(out)])
        report = json.loads(out.read_text())
        assert spin.bohr_sommerfeld_check(wave, [contour]) == [spin.IntegralityRecord(record.value, 3, record.deviation, ok)]
        assert [report[k] for k in ("circulation", "nearest_integer", "deviation")] == [record.value, 3, record.deviation]
        assert report["passed"] is ok and code == (EXIT_OK if ok else EXIT_CHECK_FAILED)
        assert capsys.readouterr().out == f"{record.value:.9f}\n"


def test_spin_divisor_report(tmp_path):
    chi = write_json(tmp_path / "chi.json", {"roots": [[1.0, 0.0, 2], [-1.0, 0.0, 1]]})
    out = tmp_path / "div.json"
    assert main(["spin-divisor", "--input", chi, "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["total_strength"] == 3
    assert sorted(mu for _, _, mu in report["roots"]) == [1, 2]


@pytest.mark.filterwarnings("error")
def test_divisor_of_coefficients_near_the_top_of_the_float_range_is_certified(tmp_path, capsys):
    # numpy's complex division of these coefficients overflows; the divisor divides them scaled by a power of 2.
    # The roots of zeta^2 = -1e11 are +-sqrt(1e11) i
    chi = write_json(tmp_path / "chi.json", {"two_s": 2, "coeffs_re": [1e308, 0, 1e297], "coeffs_im": [1e308, 0, 1e297]})
    out = tmp_path / "out.json"
    assert main(["spin-divisor", "--input", chi, "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["total_strength"] == 2
    for (re_, im, mu), sign in zip(report["roots"], (-1.0, 1.0)):
        assert mu == 1 and abs(re_) <= 1e-6 and abs(im - sign * math.sqrt(1e11)) <= 1e-9 * math.sqrt(1e11)


def test_cluster_ambiguity_exits_1_with_one_line(tmp_path, capsys):
    # two triple roots 1e-3 apart: their eigenvalue clouds overlap, and chi is not near one sixfold root
    chi = write_json(tmp_path / "chi.json", {"roots": [[0.5, 0, 3], [0.501, 0, 3]]})
    out = tmp_path / "out.json"
    assert main(["spin-divisor", "--input", chi, "--output", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert re.match(r"^divisor computation failed: no grouping of the roots at radii \S+ to \S+ passes Pellet's test in "
                    r"disjoint discs; multiplicities cannot be assigned reliably\n$", captured.err)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "chi, contour, printed",
    [
        # the divisor of the two triple roots 1e-3 apart is refused; their winding is not
        ({"roots": [[0.5, 0, 3], [0.501, 0, 3]]}, None, "6.000000000"),
        # a quadrature of chi'/chi printed -388.127166458 here
        ({"roots": [[1.00001, 0, 1], [0.2, 0, 2]]}, {"circle": {"radius": 1.0}}, "2.000000000"),
        # numpy's complex division of the coefficients overflows, which the divisor's scaling avoids; the total
        # divides none, and its rescaled ring cannot overflow
        ({"two_s": 2, "coeffs_re": [1e308, 0, 1e297], "coeffs_im": [1e308, 0, 1e297]}, None, "2.000000000"),
        ({"two_s": 3, "coeffs_re": [4e304, 6e301, -1e306, 5e302]}, None, "3.000000000"),
    ],
    ids=["ambiguous-divisor", "root-1e-5-outside", "divisor-overflow", "wide-ring"],
)
def test_spin_circulation_is_the_winding_without_the_divisor(tmp_path, capsys, chi, contour, printed):
    argv = ["spin-circulation", "--input", write_json(tmp_path / "chi.json", chi)]
    if contour is not None:
        argv += ["--contour", write_json(tmp_path / "c.json", contour)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == f"{printed}\n" and captured.err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "coeffs, radius, value",
    [
        ([4e304, 6e301, -1e306, 5e302], 4002.0, "chi is (-inf+nanj) at zeta = (4002+0j)"),
        ([-1e300, 7e303, -4e303, 5e307], 2.0, "chi is (inf+nanj) at zeta = (2+0j)"),
    ],
    ids=["coeffs0-nan", "coeffs1-inf"],
)
def test_non_finite_circulation_exits_1_with_one_line_and_no_value(tmp_path, capsys, coeffs, radius, value):
    chi = write_json(tmp_path / "chi.json", {"two_s": 3, "coeffs_re": coeffs})
    ring = write_json(tmp_path / "ring.json", {"circle": {"radius": radius}})
    out = tmp_path / "circ.json"
    assert main(["spin-circulation", "--input", chi, "--contour", ring, "--output", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {value}: it or its Taylor coefficients overflow double precision on the contour\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, needle",
    [
        (["zeno", "--t", "1e300"], "t^2 overflows a double at t = 1e+300"),
        (["trajectory", "--t", "1e300", "--grid", "10"], "overflow encountered"),
        (["trajectory", "--t", "2.0", "--grid", "400"], "broke down in step"),
    ],
)
def test_numerical_breakdown_exits_1_with_one_line(tmp_path, capsys, argv, needle):
    # sigma_x carries its default start, a basis state, to the point at infinity of its chart at t = pi/2
    h = write_json(tmp_path / "H.json", {"dim": 2, "re": [[0, 1], [1, 0]]})
    out = tmp_path / "out.json"
    assert main(argv + ["--input", h, "--output", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert needle in captured.err


def test_spin_circulation_degree_deficit_warning_is_one_fixed_line(tmp_path, capsys):
    chi = write_json(tmp_path / "chi.json", {"two_s": 5, "roots": [[0.5, 0.1, 2], [0.2, -0.3, 2]]})
    out = tmp_path / "circ.json"
    assert main(["spin-circulation", "--input", chi, "--output", str(out)]) == EXIT_OK
    message = "degree 4 < 2s = 5: the remaining vorticity sits at infinity"
    captured = capsys.readouterr()
    assert captured.err == f"warning: {message}\n"
    assert captured.out == "4.000000000\n"
    assert json.loads(out.read_text())["warnings"] == [message]


UNREADABLE_INPUTS = {
    "missing": "error: input file not found: {path}",
    "directory": "error: cannot read input file {path}: Is a directory",
    "unreadable": "error: cannot read input file {path}: Permission denied",
    "not UTF-8": "error: cannot read input file {path}: "
    "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "malformed": "error: malformed JSON in {path} at line 2, column 2: Expecting property name enclosed in double quotes",
    "malformed contour": "error: malformed JSON in {path} at line 1, column 12: Expecting value",
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_an_input_that_cannot_be_read_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    path = tmp_path / "H.json"
    argv = ["verify", "--input", str(path)]
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b"\xff\xfe{")
    elif case == "malformed":
        path.write_text("{\n x")
    elif case == "malformed contour":  # the second input file of a command is the one named
        path = tmp_path / "bad.json"
        path.write_text('{"circle": ')
        chi = write_json(tmp_path / "chi.json", {"two_s": 2, "roots": [[0.5, 0.1, 1]]})
        argv = ["spin-circulation", "--input", chi, "--contour", str(path)]
    elif case == "unreadable":
        write_json(path, H01_JSON)

        def refuse(file, *args, **kwargs):  # as the system refuses a file its user may not read; chmod does not stop root
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

        monkeypatch.setattr(jsonio, "open", refuse, raising=False)
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", UNREADABLE_INPUTS[case].format(path=path) + "\n")


def test_invalid_entry_reported(tmp_path, capsys):
    h = write_json(tmp_path / "H.json", {"dim": 2, "re": [[0.0, "x"], [0.0, 1.0]]})
    assert main(["verify", "--input", h]) == EXIT_INPUT_ERROR
    assert "re[0][1]" in capsys.readouterr().err


def test_grid_validation():
    assert main(["vorticity", "--input", "whatever.json", "--grid", "1"]) == EXIT_INPUT_ERROR


def test_reports_reparse_as_json(tmp_path):
    # every emitted report must round-trip through the JSON parser
    h = write_json(tmp_path / "H.json", H01_JSON)
    for command, extra in [
        ("verify", []),
        ("critical-points", []),
        ("zeno", []),
        ("trajectory", ["--grid", "50"]),
    ]:
        out = tmp_path / f"{command}.json"
        assert main([command, "--input", h, "--output", str(out)] + extra) == EXIT_OK
        json.loads(out.read_text())


def test_absurd_grid_is_rejected_with_its_estimate(tmp_path, capsys):
    from qhydro.cli import MAX_GRID_NODES

    h = write_json(tmp_path / "H.json", H123_JSON)
    base = tmp_path / "p"
    # pressure samples all three pairs: 3 * 600^2 nodes
    assert main(["pressure", "--input", h, "--grid", "600", "--output", str(base)]) == EXIT_INPUT_ERROR
    assert f"about {3 * 600**2} grid nodes" in capsys.readouterr().err
    assert not list(tmp_path.glob("p_*"))
    assert main(["vorticity", "--input", h, "--grid", "1025", "--pair", "1", "0"]) == EXIT_INPUT_ERROR
    assert f"about {1025**2} grid nodes" in capsys.readouterr().err
    steps = MAX_GRID_NODES + 1
    assert main(["trajectory", "--input", h, "--grid", str(steps)]) == EXIT_INPUT_ERROR
    assert f"about {steps} grid nodes" in capsys.readouterr().err
    # the grids the documented examples and the test suite use stay well inside the bound
    assert 10 * 64**2 <= MAX_GRID_NODES and 1000 <= MAX_GRID_NODES


@pytest.mark.parametrize(
    "command, payload, needle",
    [
        ("trajectory", [1, 2], "input JSON must be an object"),
        ("trajectory", {"hamiltonian": H01_JSON, "state": [1, 0]}, "'state' must be an object with 're' (and optional 'im') lists"),
        ("zeno", [1, 2], "input JSON must be an object"),
        ("zeno", {"hamiltonian": [1, 2]}, "hermitian JSON must be an object"),
        ("verify", None, "hermitian JSON must be an object"),
        ("spin-divisor", "x", "wave function JSON must be an object"),
    ],
)
def test_non_object_input_is_bad_input(tmp_path, capsys, command, payload, needle):
    h = write_json(tmp_path / "in.json", payload)
    assert main([command, "--input", h]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {needle}\n"


NAN, INF = float("nan"), float("inf")
CHI_JSON = {"roots": [[0.5, 0.0, 1]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, files, needle",
    [
        # non-finite and non-integer values name their key
        (["spin-circulation"], {"input": CHI_JSON, "contour": {"circle": {"radius": NAN}}}, "'circle.radius' is not finite: nan"),
        (["spin-circulation"], {"input": CHI_JSON, "contour": {"circle": {"radius": INF}}}, "'circle.radius' is not finite: inf"),
        (["trajectory"], {"input": {"hamiltonian": H01_JSON, "state": {"re": [1, 0], "im": [INF, 0]}}}, "'state.im[0]' is not finite: inf"),
        (["spin-divisor"], {"input": {"roots": [[1, 0, 1]], "two_s": "x"}}, "'two_s' must be an integer in [0, 1024], got 'x'"),
        # sizes: the message carries the requested size and the bound
        (["spin-divisor"], {"input": {"roots": [[1, 0, 1e300]]}}, "'roots[0][2]' must be an integer in [1, 1024], got 1e+300"),
        (["spin-divisor"], {"input": {"roots": [[0, 0, 600], [1, 0, 600]]}}, "in [0, 1024], got 1200"),
        (["spin-divisor"], {"input": {"two_s": 5000, "coeffs_re": [1.0]}}, "'two_s' must be an integer in [0, 1024], got 5000"),
        (["spin-circulation"], {"input": CHI_JSON, "contour": {"circle": {"radius": 1.0, "nodes": 10**8}}},
         "'circle.nodes' must be an integer in [4, 262144], got 100000000"),
        (["spin-circulation"], {"input": CHI_JSON, "contour": {"polygon": {"vertices": [[0, 0], [1, 0], [0, 1]], "nodes_per_edge": 10**5}}},
         "'polygon.nodes_per_edge' must be an integer in [2, 1024], got 100000"),
        (["verify"], {"input": {"dim": 5000, "re": []}}, "'dim' must be an integer in [2, 1024], got 5000"),
    ],
)
def test_malformed_values_exit_2_with_one_line_naming_the_key(tmp_path, capsys, argv, files, needle):
    for flag, payload in files.items():
        argv = argv + [f"--{flag}", write_json(tmp_path / f"{flag}.json", payload)]
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, needle",
    [
        (["trajectory", "--t", "nan"], "--t must be finite, got nan"),
        (["zeno", "--t", "inf"], "--t must be finite, got inf"),
        (["zeno", "--t=-inf"], "--t must be finite, got -inf"),
        (["verify", "--tol-killing", "inf"], "--tol-killing must be finite and > 0, got inf"),
        (["verify", "--tol-killing", "nan"], "--tol-killing must be finite and > 0, got nan"),
        (["verify", "--tol-euler", "0"], "--tol-euler must be finite and > 0, got 0.0"),
        (["verify", "--tol-euler=-1e-5"], "--tol-euler must be finite and > 0, got -1e-05"),
    ],
)
def test_non_finite_time_and_tolerances_exit_2_with_one_line(tmp_path, capsys, argv, needle):
    h = write_json(tmp_path / "H.json", H01_JSON)
    assert main(argv + ["--input", h]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {needle}\n"


@pytest.mark.filterwarnings("error")
def test_zeno_regime_overflow_exits_1_with_one_line_and_writes_no_report(tmp_path, capsys):
    # t^2 = 1e308 is a double, (Delta H)^2 t^2 = 9e308 is not
    h = write_json(tmp_path / "H.json", {"dim": 2, "re": [[0, 3], [3, 0]]})
    out = tmp_path / "zeno.json"
    assert main(["zeno", "--input", h, "--t", "1e154", "--output", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: (Delta H)^2 t^2 overflows a double at t = 1e+154\n"


def test_emit_names_the_first_non_finite_key_and_writes_nothing(tmp_path, capsys):
    report = {"passed": True, "checks": [{"max_residual": 1.0}, {"max_residual": float("nan")}], "z": float("inf")}
    out = tmp_path / "report.json"
    with pytest.raises(ArithmeticError, match=r"^the report value checks\[1\]\.max_residual is nan, "):
        cli._emit(report, str(out))
    assert not out.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, named, error",
    [
        (["verify", "--output", "."], ".", errno.EISDIR),
        (["verify", "--output", "missing/r.json"], "missing/r.json", errno.ENOENT),
        (["pressure", "--grid", "4", "--output", "missing/p"], "missing/p_S10.csv", errno.ENOENT),
    ],
    ids=["directory", "missing-directory", "pressure-missing-directory"],
)
def test_an_output_that_cannot_be_written_exits_2_with_one_line_naming_it(tmp_path, capsys, monkeypatch, argv, named,
                                                                          error):
    monkeypatch.chdir(tmp_path)
    h = write_json(tmp_path / "H.json", H123_JSON)
    assert main(argv + ["--input", h]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write output file {named}: {os.strerror(error)}\n"


def test_an_output_the_system_refuses_exits_2_with_one_line_naming_it(tmp_path, capsys, monkeypatch):
    # the suite may run as root, past any file mode: the refusal is injected
    def refuse(path, flags, mode=0o777):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    h = write_json(tmp_path / "H.json", H01_JSON)
    out = tmp_path / "r.json"
    monkeypatch.setattr(os, "open", refuse)
    assert main(["verify", "--input", h, "--output", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: cannot write output file {out}: {os.strerror(errno.EACCES)}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "hamiltonian, state, t, step, point",
    [
        # sigma_x carries e_0 to the point at infinity of chart 0 at t = pi/2; the geodesic breaks down first
        ({"dim": 2, "re": [[0, 1], [1, 0]]}, [1, 0], "2.0", "316 of 400, from t = 1.575", "[ 0.00000000e+00 -3.92607695e+09]"),
        # sigma_x - sigma_y from +x: the flow stays in chart 0, and the geodesic runs through its point at infinity
        (
            {"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 1], [-1, 0]]},
            [1, 1],
            "3.0",
            "316 of 400, from t = 2.3625",
            "[-2.61759905e+09  0.00000000e+00]",
        ),
    ],
)
def test_trajectory_breakdown_names_the_curve_the_step_and_the_chart(tmp_path, capsys, hamiltonian, state, t, step, point):
    h = write_json(tmp_path / "S.json", {"hamiltonian": hamiltonian, "state": {"re": state}})
    out = tmp_path / "trajectory.json"
    assert main(["trajectory", "--input", h, "--t", t, "--grid", "400", "--output", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: the trajectory on chart 0 broke down in step {step}: "
        f"the geodesic's metric not positive-definite at {point}\n"
    )


def test_fresh_process_writes_a_warning_as_one_fixed_line(tmp_path):
    # a new interpreter runs under Python's default warning filters, not under the test runner's
    h = write_json(tmp_path / "H.json", {"dim": 2, "re": [[0, 1], [1, 0]]})
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "qhydro.cli", "zeno", "--input", h, "--t", "2.0"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["command"] == "zeno"
    assert proc.stderr == "warning: (Delta H)^2 t^2 = 4 >= 0.1: outside the quadratic decay regime\n"


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (DegenerateSpectrumError("gap 0"), EXIT_INPUT_ERROR,
         "error: gap 0 (critical-point enumeration assumes a nondegenerate spectrum)"),
        (ClusterAmbiguityError("clusters move"), EXIT_CHECK_FAILED, "divisor computation failed: clusters move"),
        (GradientCheckError("|grad p| = 1"), EXIT_CHECK_FAILED, "critical-point gradient check failed: |grad p| = 1"),
        (ValueError("bad key"), EXIT_INPUT_ERROR, "error: bad key"),
        (OverflowError("t^2 overflows"), EXIT_CHECK_FAILED, "error: t^2 overflows"),
        (FloatingPointError("overflow encountered in multiply"), EXIT_CHECK_FAILED,
         "error: overflow encountered in multiply"),
    ],
)
def test_main_turns_each_outcome_into_its_exit_code_and_one_line(monkeypatch, capsys, exc, code, line):
    def command(args):
        warnings.warn("before the failure")
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "verify", command)
    assert main(["verify", "--input", "unused.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"warning: before the failure\n{line}\n"


def test_main_builds_its_parser_once_and_dispatches_through_commands_at_each_call(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    for code in (EXIT_OK, EXIT_CHECK_FAILED):
        monkeypatch.setitem(cli.COMMANDS, "verify", lambda args, code=code: code)
        assert main(["verify", "--input", "unused.json"]) == code
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Mutations of the fluid that the CLI checks must catch: each check can fail


def verify_mutant(tmp_path, capsys):
    """Run verify on one dim-4 Hamiltonian; (exit code, names of the failed checks)."""
    from helpers import random_hermitian

    H = random_hermitian(np.random.default_rng(0), 4)
    h = write_json(tmp_path / "H4.json", {"dim": 4, "re": H.matrix.real.tolist(), "im": H.matrix.imag.tolist()})
    code = main(["verify", "--input", h])
    report = json.loads(capsys.readouterr().out)
    return code, {c["check"] for c in report["checks"] if not c["passed"]}


def test_verify_fails_euler_on_a_rescaled_pressure(tmp_path, capsys, monkeypatch):
    from qhydro import fluid
    from qhydro.riemann import ScalarField, StackFunction

    pressure = fluid.pressure_scalar_field

    def rescaled(H, k):
        p = pressure(H, k)
        return ScalarField(StackFunction(lambda points: 1.01 * p.stack(points)))

    monkeypatch.setattr(fluid, "pressure_scalar_field", rescaled)
    assert verify_mutant(tmp_path, capsys) == (EXIT_CHECK_FAILED, {"euler_residual"})


def test_verify_fails_every_check_on_a_field_tilted_along_the_pressure_gradient(tmp_path, capsys, monkeypatch):
    from qhydro import fluid, projective, riemann
    from qhydro.riemann import OneForm, StackFunction, VectorField

    field = projective.fundamental_field

    def tilted(H, k):
        M, X, p = projective.chart_manifold(H.dim, k), field(H, k), fluid.pressure_scalar_field(H, k)
        dp = OneForm(StackFunction(lambda points: riemann.differential(M, p, points)))
        return VectorField(StackFunction(lambda points: X.stack(points) + 1e-3 * riemann.sharp(M, dp, points)))

    monkeypatch.setattr(projective, "fundamental_field", tilted)
    code, failed = verify_mutant(tmp_path, capsys)
    assert code == EXIT_CHECK_FAILED
    assert failed == {
        "killing_residual",
        "euler_residual",
        "pressure_gradient_orthogonality",
        "divergence",
        "velocity_form_transport",
        "dispersion_identity",
    }


# ---------------------------------------------------------------------------
# verify's residuals come from one stencil stack per chart: each equals its
# public operator bit for bit, and the metric and the fields are evaluated
# once per chart


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_verify_residuals_from_one_stencil_stack_equal_the_public_operators(dim):
    from helpers import random_hermitian, same_bits
    from qhydro import fluid, projective, riemann

    rng = np.random.default_rng(90 + dim)
    H = random_hermitian(rng, dim)
    for k in range(dim):
        x = rng.uniform(-1.0, 1.0, size=(20, 2 * (dim - 1)))
        M, X, p = projective.chart_manifold(dim, k), projective.fundamental_field(H, k), fluid.pressure_scalar_field(H, k)
        alpha = riemann.flat_form(M, X)
        # one stack for all operators, in the order verify takes them
        S = riemann._Stencil(M, x, riemann.FD_STEP)
        assert same_bits(S.metric()[:20], M.metric_at(x))
        assert same_bits(S.lie_derivative_metric(X), riemann.lie_derivative_metric(M, X, x))
        assert same_bits(S.euler_residual(X, p), riemann.euler_residual(M, X, p, x))
        assert same_bits(S.partials(S.values(p)), riemann.differential(M, p, x))
        assert same_bits(S.values(X)[:20], X.stack(x))
        assert same_bits(S.divergence(X), riemann.divergence(M, X, x))
        assert same_bits(S.lie_derivative_oneform(X, S.flat(X)), riemann.lie_derivative_oneform(M, X, alpha, x))
        # and the residuals verify reports
        euler, lemma = riemann.euler_residual(M, X, p, x), riemann.lie_derivative_oneform(M, X, alpha, x)
        public = (
            np.abs(riemann.lie_derivative_metric(M, X, x)).max(axis=(1, 2)),
            riemann.covector_norm(M, euler, x),
            np.abs((riemann.differential(M, p, x) * X.stack(x)).sum(axis=1)),
            np.abs(riemann.divergence(M, X, x)),
            riemann.covector_norm(M, lemma, x),
        )
        shared = cli._verify_residuals(H, k, x)
        assert len(shared) == 5 and all(same_bits(a, b) for a, b in zip(shared, public))


@pytest.mark.parametrize("dim", [3, 4])
def test_verify_evaluates_the_metric_and_each_field_once_per_chart_in_its_residual_loop(tmp_path, monkeypatch, dim):
    from collections import Counter

    from helpers import count_field_stacks, count_metric_stacks, random_hermitian
    from qhydro import fluid, projective

    calls = []
    dispersion = projective.dispersion_via_metric
    count_metric_stacks(monkeypatch, calls)
    count_field_stacks(monkeypatch, calls, projective, "fundamental_field", "X")
    count_field_stacks(monkeypatch, calls, fluid, "pressure_scalar_field", "p")
    # the residual loop ends where the dispersion identity, which evaluates both again, begins
    monkeypatch.setattr(projective, "dispersion_via_metric", lambda *args: (calls.append(("end", 0)), dispersion(*args))[1])
    H = random_hermitian(np.random.default_rng(dim), dim)
    h = write_json(tmp_path / "H.json", {"dim": dim, "re": H.matrix.real.tolist(), "im": H.matrix.imag.tolist()})
    assert main(["verify", "--input", h, "--seed", "5", "--output", str(tmp_path / "r.json")]) == EXIT_OK
    loop = calls[: calls.index(("end", 0))]
    charts = len(set(np.abs(cli._random_states(dim, 100, 5)).argmax(axis=1).tolist()))
    assert charts >= 2
    assert Counter(kind for kind, _ in loop) == {"metric": charts, "X": charts, "p": charts}
    # each is one stack of the 100 states and their 2 (2 dim - 2) stencil points
    for kind in ("metric", "X", "p"):
        assert sum(rows for name, rows in loop if name == kind) == 100 * (1 + 4 * (dim - 1))


def failed_checks(capsys):
    """Names of the failed checks in the summary a command printed."""
    return {c["check"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}


def test_pressure_fails_its_grid_check_on_a_scaled_profile(tmp_path, capsys, monkeypatch):
    import dataclasses

    from qhydro import fluid

    on_sphere = fluid.pressure_on_sphere

    def scaled(*args):
        profile = on_sphere(*args)
        return dataclasses.replace(profile, numeric=1.001 * profile.numeric)

    monkeypatch.setattr(fluid, "pressure_on_sphere", scaled)
    h = write_json(tmp_path / "H3.json", H123_JSON)
    assert main(["pressure", "--input", h, "--grid", "8", "--output", str(tmp_path / "p")]) == EXIT_CHECK_FAILED
    assert failed_checks(capsys) == {"pressure_grid_error"}


def test_vorticity_fails_its_transport_check_when_the_flow_has_a_meridian_part(tmp_path, capsys, monkeypatch):
    # X + 1e-3 grad p has the vorticity of X (d dp = 0), so only the transport check can see it
    from qhydro import fluid

    monkeypatch.setattr(fluid, "fundamental_field", field_with_pressure_gradient(1e-3))
    h = write_json(tmp_path / "H3.json", H123_JSON)
    argv = ["vorticity", "--input", h, "--grid", "16", "--pair", "2", "0", "--output", str(tmp_path / "w.csv")]
    assert main(argv) == EXIT_CHECK_FAILED
    (transport,) = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert transport["check"] == "vorticity_transport_residual" and transport["passed"] is False
    assert transport["n_points"] == 16 * 8  # every theta node, every second phi node
    assert transport["max_residual"] > 1e3 * transport["threshold"]


def test_vorticity_fails_its_profile_check_on_scaled_vorticities(tmp_path, capsys, monkeypatch):
    from qhydro import fluid

    vorticities = fluid._scalar_vorticities
    monkeypatch.setattr(fluid, "_scalar_vorticities", lambda *args: 1.01 * vorticities(*args))
    h = write_json(tmp_path / "H3.json", H123_JSON)
    argv = ["vorticity", "--input", h, "--grid", "9", "--pair", "2", "0", "--output", str(tmp_path / "w.csv")]
    assert main(argv) == EXIT_CHECK_FAILED
    assert failed_checks(capsys) == {"vorticity_profile_rel_error"}
