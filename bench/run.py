"""qhydro benchmark: closed-loop, oracle-checked workloads with traced layers.

Run from the repository root:

    python3 bench/run.py --workload geodesic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one process

A single caller runs the ops of a seeded pool one after another (closed
loop, one thread, BLAS pinned to one thread), cycling through the pool until
--seconds have elapsed (at least three whole passes).  Every output is
checked against an oracle computed with numpy alone.  Each op is timed
between two runs of a speed probe that uses no qhydro code, and its latency
is reported at the reference machine's uncontended speed (see SpeedProbe).
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, taken from passes in which every public function of the six qhydro
modules is wrapped by a span recorder.
See bench/NOTES.md for the workloads and the known defects they expose.
"""

import os

# Pin BLAS before numpy is imported: one caller on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "fluid", "projective", "riemann", "hilbert", "spin")
SETUP_REPEATS = 5
SETUP_PROBE_UNITS = 40
MIN_PASSES = 3
DEFAULT_SEED = 1  # bench/NOTES.md names the held-out seed for confirming claims


def _import_toolkit():
    """Make qhydro importable from the checkout's sources."""
    if not (SRC / "qhydro" / "__init__.py").is_file():
        raise SystemExit(f"error: no qhydro sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_import_seconds():
    """Wall time of a new interpreter that imports qhydro (and numpy)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import qhydro", str(SRC)],
                   check=True)
    return time.perf_counter() - t0


def environment():
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    head = "unknown"
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                head = ref_file.read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        head = line.split()[0]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": head,
        "sloc": source_lines(),
    }


def source_lines():
    """Non-blank, non-comment source lines per qhydro module."""
    out = {}
    for name in MODULES:
        lines = (SRC / "qhydro" / f"{name}.py").read_text(encoding="utf-8").splitlines()
        out[name] = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
    return out


class SpeedProbe:
    """How slow the host runs right now, as a factor over its uncontended speed.

    A probe unit is a fixed mix of small numpy calls and interpreter work
    that runs no qhydro code, so no change to the program can move it.  On
    the reference machine (two vCPUs of a shared host) the unit takes
    REF_UNIT_S when the core is quiet and about 1.7 times that while a
    neighbour loads it, in stretches of seconds to minutes that move whole
    runs.  An op timed between two probes is divided by their mean factor:
    its latency at the reference machine's uncontended speed.
    """

    REF_UNIT_S = 1.2e-4

    def __init__(self, units):
        import numpy as np

        base = np.random.default_rng(0).normal(size=(6, 6))
        self.eigvalsh = np.linalg.eigvalsh
        self.matrices = [base + base.T + 1e-3 * k * np.eye(6) for k in range(10)]
        self.units = units
        self.factors = []
        for _ in range(5):  # first calls fill caches and numpy's dispatch
            self._factor()

    def _factor(self):
        t0 = time.perf_counter()
        for _ in range(self.units):
            for mat in self.matrices:
                self.eigvalsh(mat)
                sum(i * i for i in range(60))
        return (time.perf_counter() - t0) / self.units / self.REF_UNIT_S

    def __call__(self):
        factor = self._factor()
        self.factors.append(factor)
        return factor


def tail_percentile(n):
    """Highest whole percentile of n samples with at least ten beyond it."""
    return max(1, math.floor(100.0 * (n - 10) / n))


def nearest_rank(sorted_values, pct):
    index = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


class Run:
    """One workload in one process: set-up, timed passes, oracle verdicts."""

    def __init__(self, workload_cls, seed, workdir):
        self.workload = workload_cls(seed, workdir)
        self.probe = SpeedProbe(workload_cls.PROBE_UNITS)
        self.pool = None
        self.reference = None
        self.mismatches = 0

    def setup(self):
        """Import, generate and write the inputs, warm up; repeated.

        Returns the median seconds and the median probe factor around the
        repetitions (longer probes than the ops', as a repetition takes a
        second and spawns an interpreter).
        """
        probe = SpeedProbe(SETUP_PROBE_UNITS)
        times, prints = [], set()
        for _ in range(SETUP_REPEATS):
            probe()
            import_s = fresh_import_seconds()
            t0 = time.perf_counter()
            pool = self.workload.make_pool()
            self.workload.write_inputs(pool)
            for op in self.workload.warmup_ops(pool):
                self.workload.check(op, self.workload.run(op))
            times.append(import_s + time.perf_counter() - t0)
            probe()
            prints.add(self.workload.fingerprint(pool))
        if len(prints) != 1:
            raise SystemExit("error: the same seed produced different inputs")
        self.pool = pool
        self.reference = [None] * len(pool)
        return statistics.median(times), statistics.median(probe.factors)

    def execute(self, index):
        """Run one op of the pool between two probes and check its output.

        Returns its latency and the mean probe factor around it.  The
        verdicts of an op's first execution are its results; every later
        execution must reproduce them.
        """
        op = self.pool[index]
        before = self.probe()
        t0 = time.perf_counter()
        out = self.workload.run(op)
        latency = time.perf_counter() - t0
        factor = (before + self.probe()) / 2.0
        verdicts = [r.key() for r in self.workload.check(op, out)]
        if self.reference[index] is None:
            self.reference[index] = verdicts
        elif verdicts != self.reference[index]:
            self.mismatches += 1
        return latency, factor

    def one_pass(self):
        """Run the pool once; return the ops' total latency."""
        return sum(self.execute(index)[0] for index in range(len(self.pool)))

    def accuracy(self):
        results = [r for op_results in self.reference for r in op_results]
        failed = [r for r in results if not r[1]]
        ratios = [r[2] for r in results if r[2] is not None]
        defects = Counter(r[3] or "unexplained" for r in failed)
        return {
            "attempted": len(results),
            "failed": len(failed),
            "residual_ratio_max": max(ratios) if ratios else math.nan,
            "defects": dict(sorted(defects.items())),
            "correct": "unexplained" not in defects and self.mismatches == 0,
        }


def measure(run, seconds):
    """Cycle through the pool until `seconds` have elapsed and at least three
    whole passes are done; per op, the (latency, probe factor) of each of its
    executions."""
    gc.collect()
    executions = [[] for _ in run.pool]
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for index in range(len(run.pool)):
            if passes >= MIN_PASSES and time.perf_counter() - start >= seconds:
                break
            executions[index].append(run.execute(index))
        passes += 1
    return executions


def end_to_end(run, setup, executions):
    """Latency of an op is the median over its executions of its time at
    the reference speed (its time divided by the probe factor around it).

    The work of an op is deterministic; what varies between its executions
    is the host.  On the reference machine raw medians moved by 10-40%
    between runs minutes apart with the same seed and code, as neighbours
    loaded the shared cores; the probe-scaled latencies moved by a few
    percent.  Set-up time is scaled the same way, by the median probe
    factor around its repetitions.  Raw figures are printed beside them.
    """
    acc = run.accuracy()
    setup_raw_s, setup_factor = setup
    scaled = sorted(statistics.median(t / f for t, f in runs) for runs in executions)
    pct = tail_percentile(len(scaled))
    tail, beyond = nearest_rank(scaled, pct)
    every = [t for runs in executions for t, _ in runs]
    metrics = {
        "setup_s": (setup_raw_s / setup_factor, "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "passed_frac": (1.0 - acc["failed"] / acc["attempted"], "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "ops_timed": len(every),
        "op_tail": f"p{pct} of {len(scaled)} ops (median of {len(every) // len(scaled)} or more executions each), "
                   f"{beyond} beyond it",
        "probe_factor_median": statistics.median(run.probe.factors),
        "raw_setup_s": setup_raw_s,
        "setup_probe_factor": setup_factor,
        "raw_ops_per_s": len(every) / sum(every),
        "raw_p50_ms": 1e3 * statistics.median(every),
        "failed_frac": acc["failed"] / acc["attempted"],
        "residual_ratio_max": acc["residual_ratio_max"],
    }
    return acc, metrics, notes


def traced(run, seconds):
    """Alternate untraced and traced passes; per-layer figures per pass."""
    from qhydro import spin
    from spans import Tracer

    tracer = Tracer()
    counters = tracer.counters

    def christoffel_hook(args, out, exc, dt):
        if args[0].dim == 8:  # a chart of CP^4
            counters["christoffel_cp4_calls"] += 1
            counters["christoffel_cp4_s"] += dt

    def integrate_hook(args, out, exc, dt):
        if out is not None:
            counters["rk4_steps"] += len(out) - 1
            if getattr(args[0], "dim", None) == 2:
                counters["geodesic_2d_steps"] += len(out) - 1
                counters["geodesic_2d_s"] += dt

    def circulation_hook(args, out, exc, dt):
        if isinstance(exc, spin.ContourTooCloseError):
            counters["refused"] += 1
        elif exc is None:
            contour = args[1]
            nodes = getattr(contour, "nodes", None)
            counters["quadrature_nodes"] += nodes or contour.nodes_per_edge * len(contour.vertices)

    def divisor_hook(args, out, exc, dt):
        if isinstance(exc, spin.ClusterAmbiguityError):
            counters["refused"] += 1

    hooks = {
        "riemann.christoffel": christoffel_hook,
        "riemann.geodesic_integrate": integrate_hook,
        "riemann.flow_integrate": integrate_hook,
        "spin.circulation": circulation_hook,
        "spin.vorticity_divisor": divisor_hook,
    }
    plain, spanned = [], []
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        gc.collect()
        plain.append(run.one_pass())
        tracer.install(hooks)
        try:
            bytes_before = getattr(run.workload, "output_bytes", 0)
            spanned.append(run.one_pass())
            counters["output_bytes"] += getattr(run.workload, "output_bytes", 0) - bytes_before
        finally:
            tracer.uninstall()
    n = len(spanned)
    calls = lambda name: tracer.calls(name) / n  # noqa: E731
    self_s = lambda name: tracer.self_s(name) / n  # noqa: E731
    per_pass = lambda key: counters[key] / n  # noqa: E731
    divisor_calls = calls("spin.SpinWaveFunction.divisor")
    metrics = {
        "riemann.metric_at.calls": (calls("riemann.metric_at"), "count"),
        "riemann.metric_at.self_s": (self_s("riemann.metric_at"), "s"),
        "riemann.christoffel.calls": (calls("riemann.christoffel"), "count"),
        "riemann.christoffel.self_s": (self_s("riemann.christoffel"), "s"),
        "riemann.metric_at_per_christoffel": (
            calls("riemann.metric_at") / calls("riemann.christoffel") if calls("riemann.christoffel") else 0.0,
            "ratio",
        ),
        "riemann.differential.calls": (calls("riemann.differential"), "count"),
        "riemann.rk4_steps": (per_pass("rk4_steps"), "count"),
        "riemann.geodesic_integrate.self_s": (self_s("riemann.geodesic_integrate"), "s"),
        "riemann.flow_integrate.self_s": (self_s("riemann.flow_integrate"), "s"),
        "riemann.christoffel.cp4_call_ms": (
            1e3 * counters["christoffel_cp4_s"] / counters["christoffel_cp4_calls"]
            if counters["christoffel_cp4_calls"] else 0.0,
            "ms",
        ),
        "riemann.geodesic_2d_per_1000_steps_s": (
            1e3 * counters["geodesic_2d_s"] / counters["geodesic_2d_steps"] if counters["geodesic_2d_steps"] else 0.0,
            "s",
        ),
        "projective.fubini_study_metric.calls": (calls("projective.fubini_study_metric"), "count"),
        "projective.fubini_study_metric.self_s": (self_s("projective.fubini_study_metric"), "s"),
        "projective.fundamental_field_at.calls": (calls("projective.fundamental_field_at"), "count"),
        "projective.fundamental_field_at.self_s": (self_s("projective.fundamental_field_at"), "s"),
        "fluid.vorticity_on_sphere.self_s": (self_s("fluid.vorticity_on_sphere"), "s"),
        "fluid.pressure_on_sphere.self_s": (self_s("fluid.pressure_on_sphere"), "s"),
        "fluid.pressure_gradient.calls": (calls("fluid.pressure_gradient"), "count"),
        "fluid.pressure_gradient.self_s": (self_s("fluid.pressure_gradient"), "s"),
        "fluid.schrodinger_trajectory.self_s": (self_s("fluid.schrodinger_trajectory"), "s"),
        "fluid.write_profile_csv.self_s": (self_s("fluid.write_profile_csv"), "s"),
        "hilbert.state_vectors": (calls("hilbert.StateVector"), "count"),
        "hilbert.dispersion_squared.self_s": (self_s("hilbert.dispersion_squared"), "s"),
        "hilbert.evolve.calls": (calls("hilbert.evolve"), "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (per_pass("output_bytes"), "bytes"),
        "spin.vorticity_divisor.calls": (calls("spin.vorticity_divisor"), "count"),
        "spin.vorticity_divisor.self_s": (self_s("spin.vorticity_divisor"), "s"),
        # every vorticity_divisor call of the workload goes through the cached method
        "spin.divisor_cache_hit_ratio": (
            1.0 - calls("spin.vorticity_divisor") / divisor_calls if divisor_calls else 0.0,
            "ratio",
        ),
        "spin.su2_act.self_s": (self_s("spin.su2_act"), "s"),
        "spin.circulation.calls": (calls("spin.circulation"), "count"),
        "spin.circulation.self_s": (self_s("spin.circulation"), "s"),
        "spin.quadrature_nodes": (per_pass("quadrature_nodes"), "count"),
        "spin.refused": (per_pass("refused"), "count"),
        # best passes: contention only adds time
        "trace_overhead_s": (min(spanned) - min(plain), "s"),
    }
    for name, lines in source_lines().items():
        metrics[f"{name}.sloc"] = (lines, "lines")
    notes = {"untraced_passes": len(plain), "traced_passes": n, "best_untraced_pass_s": min(plain)}
    return metrics, notes


def run_workload(name, seed, seconds, trace, workdir):
    from workloads import DEFECTS, WORKLOADS

    run = Run(WORKLOADS[name], seed, workdir)
    setup = run.setup()
    if trace:
        metrics, notes = traced(run, seconds)
        acc = run.accuracy()
    else:
        acc, metrics, notes = end_to_end(run, setup, measure(run, seconds))
    print(f"# workload {name}  seed {seed}  trace {int(trace)}  pool {len(run.pool)} ops")
    for key, value in notes.items():
        print(f"#   {key} = {value}")
    print(f"#   results attempted {acc['attempted']}, failed {acc['failed']}, correct {acc['correct']}")
    for defect, count in acc["defects"].items():
        print(f"#   failed by {defect}: {count}  ({DEFECTS.get(defect, 'not a known defect')})")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:42s} {value:.6g} {unit}")
    return acc, metrics


def main(argv=None):
    _import_toolkit()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# environment " + json.dumps(environment(), sort_keys=True))
    workdir = ROOT / "bench" / f"_work-{os.getpid()}"
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            acc, values = run_workload(name, args.seed, args.seconds, args.trace, str(workdir))
            correct = correct and acc["correct"]
            attempted += acc["attempted"]
            failed += acc["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            for key, (value, unit) in values.items():
                metrics[prefix + key] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
