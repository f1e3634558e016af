"""Command-line front end.

Commands ingest Hamiltonians / wave functions from JSON, run residual
verification suites, and export landscape / profile grids as CSV plus JSON
reports. Exit codes: 0 all checks passed, 1 a residual check failed,
2 malformed input or violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fluid, projective, riemann, spin
from .hilbert import (
    DegenerateSpectrumError,
    StateVector,
    dispersion_squared,
    hermitian_from_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# Most grid nodes one command may ask for: grid^2 per sphere for vorticity and
# pressure (which samples every eigenstate pair), grid steps for trajectory.
MAX_GRID_NODES = 2**18

DEFAULT_TOLS = {
    "killing": 1e-5,
    "euler": 1e-5,
    "orthogonality": 1e-6,
    "divergence": 1e-6,
    "dispersion": 1e-8,
    "velocity_form_transport": 1e-5,
    "vorticity": 1e-4,
    "transport": 1e-8,
    "pressure_grid": 1e-10,
    "integrality": 1e-8,
}


@dataclass
class RunConfig:
    command: str
    input_path: str
    output_path: str = None
    contour_path: str = None
    grid: int = 64
    seed: int = 0
    t: float = 0.1
    n_measure: int = 10
    pair: tuple = None
    tolerances: dict = field(default_factory=dict)

    def tol(self, name):
        return self.tolerances.get(name, DEFAULT_TOLS[name])


def _emit(config: RunConfig, report: dict):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _random_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return [StateVector(row, normalize=True) for row in raw]


def _require_affordable_grid(config, nodes):
    if nodes > MAX_GRID_NODES:
        raise ValueError(
            f"--grid {config.grid} asks for about {nodes} grid nodes for {config.command}; "
            f"the limit is {MAX_GRID_NODES}"
        )


def _check(name, max_residual, threshold, n_points):
    return {
        "check": name,
        "n_points": n_points,
        "max_residual": float(max_residual),
        "threshold": float(threshold),
        "passed": bool(max_residual < threshold),
    }


def cmd_verify(config: RunConfig) -> int:
    H = hermitian_from_json(config.input_path)
    charts = [projective.chart_of(state) for state in _random_states(H.dim, 100, config.seed)]
    killing = euler = ortho = diver = transport = 0.0
    # the states of one chart go through each operator as one stack of base points
    for k in sorted({chart.chart_index for chart in charts}):
        x = np.array([chart.coords for chart in charts if chart.chart_index == k])
        manifold = projective.chart_manifold(H.dim, k)
        X = projective.fundamental_field(H, H.dim, k)
        p = fluid.pressure_scalar_field(H, k)
        killing = max(killing, float(np.abs(riemann.lie_derivative_metric(manifold, X, x)).max()))
        residual = riemann.euler_residual(manifold, X, p, x)
        euler = max(euler, float(riemann.covector_norm(manifold, residual, x).max()))
        dp = riemann.differential(manifold, p, x)
        ortho = max(ortho, float(np.abs((dp * X.stack(x)).sum(axis=1)).max()))
        diver = max(diver, float(np.abs(riemann.divergence(manifold, X, x)).max()))
        lemma = riemann.lie_derivative_oneform(manifold, X, riemann.flat_form(manifold, X), x)
        transport = max(transport, float(riemann.covector_norm(manifold, lemma, x).max()))
    dispersion_gap = 0.0
    for state in _random_states(H.dim, 50, config.seed + 1):
        gap = abs(projective.dispersion_via_metric(H, state) - dispersion_squared(H, state))
        dispersion_gap = max(dispersion_gap, gap)
    checks = [
        _check("killing_residual", killing, config.tol("killing"), 100),
        _check("euler_residual", euler, config.tol("euler"), 100),
        _check("pressure_gradient_orthogonality", ortho, config.tol("orthogonality"), 100),
        _check("divergence", diver, config.tol("divergence"), 100),
        _check("velocity_form_transport", transport, config.tol("velocity_form_transport"), 100),
        _check("dispersion_identity", dispersion_gap, config.tol("dispersion"), 50),
    ]
    passed = all(c["passed"] for c in checks)
    _emit(config, {"command": "verify", "dim": H.dim, "seed": config.seed, "checks": checks, "passed": passed})
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _pairs(config, H):
    if config.pair is not None:
        i, j = config.pair
        if not (0 <= j < i < H.dim):
            raise ValueError(f"--pair must satisfy 0 <= j < i < {H.dim}, got {i} {j}")
        return [(i, j)]
    return [(i, j) for i in range(H.dim) for j in range(i)]


def _base_path(config, default):
    return config.output_path if config.output_path else default


def cmd_pressure(config: RunConfig) -> int:
    H = hermitian_from_json(config.input_path)
    H.require_nondegenerate()
    base = _base_path(config, "pressure")
    pairs = _pairs(config, H)
    _require_affordable_grid(config, len(pairs) * config.grid**2)
    worst = 0.0
    written = []
    for i, j in pairs:
        rows = fluid.pressure_on_sphere(H, i, j, (config.grid, config.grid))
        path = f"{base}_S{i}{j}.csv"
        fluid.write_profile_csv(path, rows)
        written.append(path)
        worst = max(worst, max(r[4] for r in rows))
    try:
        report = fluid.critical_point_report(H)
    except ValueError as exc:
        sys.stderr.write(f"critical-point gradient check failed: {exc}\n")
        return EXIT_CHECK_FAILED
    fluid.write_json_report(f"{base}_critical.json", report)
    grid_check = _check("pressure_grid_error", worst, config.tol("pressure_grid"), config.grid**2)
    summary = {
        "command": "pressure",
        "csv_files": written,
        "critical_report": f"{base}_critical.json",
        "checks": [grid_check],
        "passed": grid_check["passed"],
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if grid_check["passed"] else EXIT_CHECK_FAILED


def cmd_critical_points(config: RunConfig) -> int:
    H = hermitian_from_json(config.input_path)
    try:
        report = fluid.critical_point_report(H)
    except DegenerateSpectrumError:
        raise
    except ValueError as exc:
        sys.stderr.write(f"critical-point gradient check failed: {exc}\n")
        return EXIT_CHECK_FAILED
    _emit(config, report)
    return EXIT_OK


def cmd_vorticity(config: RunConfig) -> int:
    H = hermitian_from_json(config.input_path)
    H.require_nondegenerate()
    i, j = config.pair if config.pair is not None else (1, 0)
    if not (0 <= j < i < H.dim):
        raise ValueError(f"--pair must satisfy 0 <= j < i < {H.dim}, got {i} {j}")
    _require_affordable_grid(config, config.grid**2)
    profile = fluid.vorticity_on_sphere(H, i, j, (config.grid, config.grid))
    path = _base_path(config, f"vorticity_S{i}{j}.csv")
    fluid.write_profile_csv(path, profile.rows())
    transport = max(
        fluid.vorticity_transport_residual(H, i, j, th, ph)
        for th in profile.thetas
        for ph in profile.phis[:: max(1, len(profile.phis) // 8)]
    )
    checks = [
        _check("vorticity_profile_rel_error", profile.max_rel_err, config.tol("vorticity"), config.grid**2),
        _check("vorticity_transport_residual", transport, config.tol("transport"), config.grid),
    ]
    passed = all(c["passed"] for c in checks)
    summary = {
        "command": "vorticity",
        "pair": [i, j],
        "omega": profile.omega,
        "csv_file": path,
        "checks": checks,
        "passed": passed,
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _number_list(name, obj, length):
    if not isinstance(obj, list) or len(obj) != length:
        raise ValueError(f"'{name}' must be a list of {length} numbers")
    out = []
    for idx, entry in enumerate(obj):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValueError(f"'{name}[{idx}]' is not a number: {entry!r}")
        out.append(float(entry))
    return out


def _hamiltonian_and_state(config):
    data = _read_json(config.input_path)
    if isinstance(data, dict) and "hamiltonian" in data:
        H = hermitian_from_json(data["hamiltonian"])
        if "state" in data and data["state"] is not None:
            st = data["state"]
            if not isinstance(st, dict) or "re" not in st:
                raise ValueError("'state' must be an object with 're' (and optional 'im') lists")
            re = _number_list("state.re", st["re"], H.dim)
            im = (
                _number_list("state.im", st["im"], H.dim)
                if st.get("im") is not None
                else [0.0] * H.dim
            )
            return H, StateVector(np.array(re) + 1j * np.array(im), normalize=True)
    else:
        H = hermitian_from_json(data)
    # default start: equal superposition of the two lowest eigenstates
    vecs = H.eigenvectors
    return H, StateVector((vecs[:, 0] + vecs[:, 1]) / np.sqrt(2.0), normalize=True)


def cmd_trajectory(config: RunConfig) -> int:
    H, state = _hamiltonian_and_state(config)
    steps = max(config.grid, 2)
    _require_affordable_grid(config, steps)
    report = fluid.schrodinger_trajectory(H, projective.ProjectivePoint(state), T=config.t, steps=steps)
    grad_norm = fluid.pressure_gradient(H, state).norm
    _emit(
        config,
        {
            "command": "trajectory",
            "t": config.t,
            "steps": steps,
            "chart_index": report.chart_index,
            "flow_exited": bool(report.flow.exited),
            "geodesic_exited": bool(report.geodesic.exited),
            "pressure_gradient_norm": grad_norm,
            "max_deviation": report.max_deviation,
        },
    )
    return EXIT_OK


def cmd_zeno(config: RunConfig) -> int:
    H, state = _hamiltonian_and_state(config)
    survival = fluid.zeno_decay(H, state, config.t, config.n_measure)
    disp = dispersion_squared(H, state)
    predicted = disp * config.t**2 / config.n_measure
    _emit(
        config,
        {
            "command": "zeno",
            "t": config.t,
            "N": config.n_measure,
            "dispersion_squared": disp,
            "survival": survival,
            "deficit": 1.0 - survival,
            "quadratic_prediction": predicted,
        },
    )
    return EXIT_OK


def cmd_spin_circulation(config: RunConfig) -> int:
    chi = spin.wavefunction_from_json(config.input_path)
    if config.contour_path:
        contour = spin.contour_from_json(config.contour_path)
        value = spin.circulation(chi, contour)
    else:
        value = spin.total_spin_circulation(chi)
    sys.stdout.write(f"{value:.9f}\n")
    nearest = int(np.rint(value))
    deviation = abs(value - nearest)
    ok = deviation <= config.tol("integrality")
    if config.output_path:
        _emit(
            config,
            {
                "command": "spin-circulation",
                "circulation": value,
                "nearest_integer": nearest,
                "deviation": deviation,
                "passed": ok,
            },
        )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_spin_divisor(config: RunConfig) -> int:
    chi = spin.wavefunction_from_json(config.input_path)
    try:
        divisor = chi.divisor()
    except spin.ClusterAmbiguityError as exc:
        sys.stderr.write(f"divisor computation failed: {exc}\n")
        return EXIT_CHECK_FAILED
    _emit(
        config,
        {
            "command": "spin-divisor",
            "two_s": chi.two_s,
            "effective_degree": chi.effective_degree,
            "total_strength": divisor.total,
            "roots": [[a.real, a.imag, mu] for a, mu in divisor.entries],
        },
    )
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "pressure": cmd_pressure,
    "critical-points": cmd_critical_points,
    "vorticity": cmd_vorticity,
    "trajectory": cmd_trajectory,
    "zeno": cmd_zeno,
    "spin-circulation": cmd_spin_circulation,
    "spin-divisor": cmd_spin_divisor,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qhydro",
        description="Verification suites and exports for quantum state-space hydrodynamics.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", required=True, help="input JSON path")
    parser.add_argument("--output", default=None, help="output path (or base path for multi-file commands)")
    parser.add_argument("--contour", default=None, help="contour JSON path (spin-circulation)")
    parser.add_argument("--grid", type=int, default=64, help="grid resolution / step count (>= 2)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--t", type=float, default=0.1, help="time horizon (zeno, trajectory)")
    parser.add_argument("--N", type=int, default=10, dest="n_measure", help="measurement count (zeno)")
    parser.add_argument("--pair", type=int, nargs=2, default=None, metavar=("I", "J"), help="sphere indices i j (i > j)")
    parser.add_argument("--tol-euler", type=float, default=None)
    parser.add_argument("--tol-killing", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.grid < 2:
        sys.stderr.write("error: --grid must be >= 2\n")
        return EXIT_INPUT_ERROR
    tolerances = {}
    if args.tol_euler is not None:
        tolerances["euler"] = args.tol_euler
    if args.tol_killing is not None:
        tolerances["killing"] = args.tol_killing
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        output_path=args.output,
        contour_path=args.contour,
        grid=args.grid,
        seed=args.seed,
        t=args.t,
        n_measure=args.n_measure,
        pair=tuple(args.pair) if args.pair is not None else None,
        tolerances=tolerances,
    )
    try:
        return COMMANDS[args.command](config)
    except DegenerateSpectrumError as exc:
        sys.stderr.write(
            f"error: {exc} (critical-point enumeration assumes a nondegenerate spectrum)\n"
        )
        return EXIT_INPUT_ERROR
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: input file not found: {exc.filename}\n")
        return EXIT_INPUT_ERROR
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}\n")
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
