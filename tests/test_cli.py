"""CLI: exit codes, report schemas, determinism."""

import json

import numpy as np
import pytest

from qhydro.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main

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


def test_spin_divisor_report(tmp_path):
    chi = write_json(tmp_path / "chi.json", {"roots": [[1.0, 0.0, 2], [-1.0, 0.0, 1]]})
    out = tmp_path / "div.json"
    assert main(["spin-divisor", "--input", chi, "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["total_strength"] == 3
    assert sorted(mu for _, _, mu in report["roots"]) == [1, 2]


def test_missing_input_file(tmp_path, capsys):
    assert main(["verify", "--input", str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR
    assert "not found" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "re": [[0, 1], [1, 0]]')
    assert main(["verify", "--input", str(bad)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


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
