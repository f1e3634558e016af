"""Self-tests of the benchmark itself (not of qhydro).

Run from the repository root, in about a minute:

    python3 bench/selftest.py

1. The same seed yields byte-identical inputs, counts and residuals.
2. A corrupted output value is counted as failed, so every oracle can fail.
3. The printed metric names and units equal those in BENCHMARK.json.
4. The speed probe that scales latencies calls no qhydro function.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_toolkit()

from qhydro import spin  # noqa: E402
from workloads import WORKLOADS, CpnCliWorkload, GeodesicWorkload, SpinVortexWorkload  # noqa: E402


def verdicts(workload, ops):
    return [[r.key() for r in workload.check(op, workload.run(op))] for op in ops]


def test_same_seed_same_inputs_counts_residuals(workdir):
    for name, cls in WORKLOADS.items():
        first, second, other = cls(5, workdir), cls(5, workdir), cls(6, workdir)
        pool_a, pool_b = first.make_pool(), second.make_pool()
        assert first.fingerprint(pool_a) == second.fingerprint(pool_b), name
        assert first.fingerprint(pool_a) != other.fingerprint(other.make_pool()), name
        first.write_inputs(pool_a)
        ops = first.warmup_ops(pool_a)
        assert verdicts(first, ops) == verdicts(second, ops), name


def expect_failed(results, label):
    bad = [r for r in results if r.ok]
    assert not bad, f"{label}: corrupted output passed its oracle: {bad}"


def test_geodesic_oracle_can_fail():
    workload = GeodesicWorkload(5, None)
    op = workload.make_pool()[0]
    curve, drift = workload.run(op)
    assert all(r.ok for r in workload.check(op, (curve, drift)))
    expect_failed(workload.check(op, (curve, drift + 1e-9)), "library drift")
    velocities = curve.velocities.copy()
    velocities[-1, 1] *= 1.0 + 1e-7
    expect_failed(workload.check(op, (replace(curve, velocities=velocities), drift)), "curve velocity")
    expect_failed(workload.check(op, (replace(curve, exited=True), drift)), "chart exit")


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _edit_csv(path, row, col, delta):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_cli_oracles_can_fail(workdir):
    workload = CpnCliWorkload(5, workdir)
    pool = workload.make_pool()
    workload.write_inputs(pool)

    def bump_check(data):
        data["checks"][0]["max_residual"] = 2.0 * data["checks"][0]["threshold"]

    def bump(key, delta):
        def edit(data):
            data[key] += delta

        return edit

    def bump_pressure(data):
        data["critical_points"][-1]["pressure"] += 1e-9

    corruptions = {
        "verify": lambda out_path, stdout: _edit_json(out_path, bump_check),
        "vorticity": lambda out_path, stdout: _edit_csv(out_path, 5, 2, 1e-3),
        "pressure": lambda out_path, stdout: _edit_csv(json.loads(stdout)["csv_files"][0], 7, 2, 1e-9),
        "critical-points": lambda out_path, stdout: _edit_json(out_path, bump_pressure),
        "trajectory": lambda out_path, stdout: _edit_json(out_path, bump("max_deviation", 1e-5)),
        "zeno": lambda out_path, stdout: _edit_json(out_path, bump("survival", 1e-7)),
    }
    for op in workload.warmup_ops(pool):
        out = workload.run(op)
        assert all(r.ok for r in workload.check(op, out)), op.command
        corruptions[op.command](workload.output_path(op), out[1])
        expect_failed(workload.check(op, out), op.command)
        expect_failed(workload.check(op, (2, "", "")), f"{op.command} exit code")
    pressure = next(op for op in pool if op.command == "pressure")
    out = workload.run(pressure)
    _edit_json(json.loads(out[1])["critical_report"], bump_pressure)
    expect_failed(workload.check(pressure, out), "pressure critical report")


def test_spin_oracles_can_fail():
    workload = SpinVortexWorkload(5, None)
    for op in workload.make_pool():
        out = workload.run(op)
        if op.family == "simple" and op.two_s >= 3 and all(r.ok for r in workload.check(op, out)):
            break
    divisor, image_divisor, circulations, total, image_total = out
    moved = spin.VorticityDivisor(tuple((z + 1e-3, mu) for z, mu in divisor.entries))
    expect_failed(workload.check(op, (moved, image_divisor, circulations, total, image_total))[:1], "divisor")
    merged = spin.VorticityDivisor(((image_divisor.entries[0][0], op.two_s),))
    expect_failed(workload.check(op, (divisor, merged, circulations, total, image_total))[1:2], "image divisor")
    for k in range(len(circulations)):
        bent = list(circulations)
        bent[k] += 1e-6
        expect_failed(workload.check(op, (divisor, image_divisor, bent, total, image_total))[2 + k: 3 + k], "circ")
    results = workload.check(op, (divisor, image_divisor, circulations, total + 0.5, image_total - 1.0))
    expect_failed(results[-2:], "total circulation")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for name in WORKLOADS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
            assert code == 0
            result = json.loads(stdout.getvalue().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            printed = {key: m["unit"] for key, m in result["metrics"].items()}
            assert printed == expected, (name, trace, set(printed) ^ set(expected))
            assert result["correct"] and result["attempted"] >= 1, name


def test_speed_probe_runs_no_qhydro_code():
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run.SpeedProbe(1)()
    finally:
        tracer.uninstall()
    assert tracer.stats and not any(stats.calls for stats in tracer.stats.values())


def main():
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-selftest-") as workdir:
        tests = [
            (test_same_seed_same_inputs_counts_residuals, workdir),
            (test_geodesic_oracle_can_fail,),
            (test_cli_oracles_can_fail, workdir),
            (test_spin_oracles_can_fail,),
            (test_metric_names_match_benchmark_json,),
            (test_speed_probe_runs_no_qhydro_code,),
        ]
        for test, *args in tests:
            test(*args)
            print("ok", test.__name__)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
