"""Command-line front end.

Commands ingest Hamiltonians / wave functions from JSON, run residual
verification suites, and export landscape / profile grids as CSV plus JSON
reports; every JSON report is built here and written by _emit.

A command returns 0 (all checks passed) or 1 (a check failed), or raises;
main alone turns that into the exit code and the stderr lines. Exit 1 also
means a numerical breakdown on well-formed input (`error:`), an ambiguous
root clustering (`divisor computation failed:`) or a failed pressure
gradient (`critical-point gradient check failed:`); exit 2 means malformed
input, a violated precondition, an input file that cannot be read or an
output file that cannot be written (`error:`). Each warning comes first, as
one `warning: <message>` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import fluid, jsonio, projective, riemann, spin
from .hilbert import DegenerateSpectrumError, StateVector, dispersion_squared, hermitian_from_json, normalized_rows
from .jsonio import MAX_GRID_NODES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

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
}


def _first_nonfinite(value, key=""):
    """(key, value) of the first non-finite number in a report, keys in sorted order, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (key, value)
    if isinstance(value, dict):
        items = [(f"{key}.{k}" if key else k, v) for k, v in sorted(value.items())]
    elif isinstance(value, list):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(value)]
    else:
        return None
    for k, v in items:
        found = _first_nonfinite(v, k)
        if found is not None:
            return found
    return None


def _emit(report: dict, path=None):
    """Write a report as deterministic JSON (sorted keys, fixed layout) to path, or to stdout.

    A path is rewritten in place by `jsonio.write_text`; one that cannot be
    written raises a ValueError naming it, bad input (exit 2).
    """
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a non-finite value from well-formed input: a breakdown, and nothing is written
        key, value = _first_nonfinite(report)
        raise ArithmeticError(f"the report value {key} is {value}, which JSON cannot carry") from None
    if path:
        jsonio.write_text(path, text)
    else:
        sys.stdout.write(text)


def _random_states(dim, count, seed):
    """A (count, dim) stack of random unit vectors."""
    rng = np.random.default_rng(seed)
    return normalized_rows(rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim)))


def _require_affordable_grid(args, nodes):
    if nodes > MAX_GRID_NODES:
        raise ValueError(
            f"--grid {args.grid} asks for about {nodes} grid nodes for {args.command}; "
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


def _verify_residuals(H, k, x):
    """verify's five residuals at the chart-k points x, one per point: one stencil stack evaluates g, X and p once."""
    S = riemann._Stencil(projective.chart_manifold(H.dim, k), x, riemann.FD_STEP)
    X = projective.fundamental_field(H, k)
    p = fluid.pressure_scalar_field(H, k)
    g = S.metric()[: len(x)]
    return (
        np.abs(S.lie_derivative_metric(X)).max(axis=(1, 2)),
        riemann._covector_norms(g, S.euler_residual(X, p)),
        np.abs((S.partials(S.values(p)) * S.values(X)[: len(x)]).sum(axis=1)),
        np.abs(S.divergence(X)),
        riemann._covector_norms(g, S.lie_derivative_oneform(X, S.flat(X))),
    )


def cmd_verify(args: argparse.Namespace) -> int:
    H = hermitian_from_json(args.input)
    states = _random_states(H.dim, 100, args.seed)
    worst = [0.0] * 5
    # the states of one chart are one stack of base points
    for k, rows in projective.chart_rows(np.abs(states).argmax(axis=1)):
        _, x = projective.chart_of(states[rows], k)
        worst = [max(w, float(r.max())) for w, r in zip(worst, _verify_residuals(H, k, x))]
    killing, euler, ortho, diver, transport = worst
    states = _random_states(H.dim, 50, args.seed + 1)
    gaps = np.abs(projective.dispersion_via_metric(H, states) - dispersion_squared(H, states))
    checks = [
        _check("killing_residual", killing, args.tols["killing"], 100),
        _check("euler_residual", euler, args.tols["euler"], 100),
        _check("pressure_gradient_orthogonality", ortho, args.tols["orthogonality"], 100),
        _check("divergence", diver, args.tols["divergence"], 100),
        _check("velocity_form_transport", transport, args.tols["velocity_form_transport"], 100),
        _check("dispersion_identity", gaps.max(), args.tols["dispersion"], 50),
    ]
    passed = all(c["passed"] for c in checks)
    _emit({"command": "verify", "dim": H.dim, "seed": args.seed, "checks": checks, "passed": passed}, args.output)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _pairs(args, H):
    if args.pair is not None:
        i, j = args.pair
        if not (0 <= j < i < H.dim):
            raise ValueError(f"--pair must satisfy 0 <= j < i < {H.dim}, got {i} {j}")
        return [(i, j)]
    return [(i, j) for i in range(H.dim) for j in range(i)]


def _critical_report(H):
    """The critical set of a nondegenerate H as a report."""
    points = fluid.critical_points(H)
    return {
        "dim": H.dim,
        "eigenvalues": [float(v) for v in H.eigenvalues],
        "critical_points": [
            {
                "kind": cp.kind,
                "indices": list(cp.indices),
                "pressure": cp.pressure,
                "gradient_norm": cp.gradient_norm,
                "phase_orbit": cp.phase_orbit,
                "state_re": [float(a.real) for a in cp.state.amplitudes],
                "state_im": [float(a.imag) for a in cp.state.amplitudes],
            }
            for cp in points
        ],
    }


def cmd_pressure(args: argparse.Namespace) -> int:
    H = hermitian_from_json(args.input)
    H.require_nondegenerate()
    base = args.output or "pressure"
    pairs = _pairs(args, H)
    _require_affordable_grid(args, len(pairs) * args.grid**2)
    worst = 0.0
    written = []
    for i, j in pairs:
        profile = fluid.pressure_on_sphere(H, i, j, (args.grid, args.grid))
        path = f"{base}_S{i}{j}.csv"
        fluid.write_profile_csv(path, profile)
        written.append(path)
        worst = max(worst, profile.max_abs_err)
    _emit(_critical_report(H), f"{base}_critical.json")
    grid_check = _check("pressure_grid_error", worst, args.tols["pressure_grid"], args.grid**2)
    summary = {
        "command": "pressure",
        "csv_files": written,
        "critical_report": f"{base}_critical.json",
        "checks": [grid_check],
        "passed": grid_check["passed"],
    }
    _emit(summary)
    return EXIT_OK if grid_check["passed"] else EXIT_CHECK_FAILED


def cmd_critical_points(args: argparse.Namespace) -> int:
    H = hermitian_from_json(args.input)
    H.require_nondegenerate()
    _emit(_critical_report(H), args.output)
    return EXIT_OK


def cmd_vorticity(args: argparse.Namespace) -> int:
    H = hermitian_from_json(args.input)
    H.require_nondegenerate()
    i, j = _pairs(args, H)[0]  # without --pair, the first pair is (1, 0)
    _require_affordable_grid(args, args.grid**2)
    profile = fluid.vorticity_on_sphere(H, i, j, (args.grid, args.grid))
    path = args.output or f"vorticity_S{i}{j}.csv"
    fluid.write_profile_csv(path, profile)
    nodes = np.meshgrid(profile.thetas, profile.phis[:: max(1, len(profile.phis) // 8)], indexing="ij")
    transport = np.max(fluid.vorticity_transport_residual(H, i, j, *nodes))
    checks = [
        _check("vorticity_profile_rel_error", profile.max_rel_err, args.tols["vorticity"], args.grid**2),
        _check("vorticity_transport_residual", transport, args.tols["transport"], args.grid),
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
    _emit(summary)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _hamiltonian_and_state(args):
    data = jsonio.load_object(args.input, "input")
    if "hamiltonian" in data:
        H = hermitian_from_json(data["hamiltonian"])
        if "state" in data and data["state"] is not None:
            st = data["state"]
            if not isinstance(st, dict) or "re" not in st:
                raise ValueError("'state' must be an object with 're' (and optional 'im') lists")
            re = jsonio.real_array("state.re", st["re"], (H.dim,))
            im = jsonio.real_array("state.im", st["im"], (H.dim,)) if st.get("im") is not None else np.zeros(H.dim)
            return H, StateVector(re + 1j * im, normalize=True)
    else:
        H = hermitian_from_json(data)
    # default start: equal superposition of the two lowest eigenstates
    vecs = H.eigenvectors
    return H, StateVector((vecs[:, 0] + vecs[:, 1]) / np.sqrt(2.0), normalize=True)


def cmd_trajectory(args: argparse.Namespace) -> int:
    H, state = _hamiltonian_and_state(args)
    _require_affordable_grid(args, args.grid)
    report = fluid.schrodinger_trajectory(H, state, T=args.t, steps=args.grid)
    grad_norm = fluid.pressure_gradient(H, state).norm
    _emit(
        {
            "command": "trajectory",
            "t": args.t,
            "steps": args.grid,
            "chart_index": report.chart_index,
            "flow_exited": bool(report.flow.exited),
            "geodesic_exited": bool(report.geodesic.exited),
            "pressure_gradient_norm": grad_norm,
            "max_deviation": report.max_deviation,
        },
        args.output,
    )
    return EXIT_OK


def cmd_zeno(args: argparse.Namespace) -> int:
    H, state = _hamiltonian_and_state(args)
    survival = fluid.zeno_decay(H, state, args.t, args.n_measure)
    disp = dispersion_squared(H, state)
    predicted = disp * args.t**2 / args.n_measure
    _emit(
        {
            "command": "zeno",
            "t": args.t,
            "N": args.n_measure,
            "dispersion_squared": disp,
            "survival": survival,
            "deficit": 1.0 - survival,
            "quadratic_prediction": predicted,
        },
        args.output,
    )
    return EXIT_OK


def cmd_spin_circulation(args: argparse.Namespace) -> int:
    chi = spin.wavefunction_from_json(args.input)
    contour = spin.contour_from_json(args.contour) if args.contour else None
    value = spin.total_spin_circulation(chi) if contour is None else spin.circulation(chi, contour)
    sys.stdout.write(f"{value:.9f}\n")
    record = spin.IntegralityRecord.of(value)
    if args.output:
        _emit(
            {
                "command": "spin-circulation",
                "circulation": record.value,
                "nearest_integer": record.nearest,
                "deviation": record.deviation,
                "passed": record.ok,
                "warnings": [str(w.message) for w in args.warnings],
            },
            args.output,
        )
    return EXIT_OK if record.ok else EXIT_CHECK_FAILED


def cmd_spin_divisor(args: argparse.Namespace) -> int:
    chi = spin.wavefunction_from_json(args.input)
    divisor = chi.divisor()
    _emit(
        {
            "command": "spin-divisor",
            "two_s": chi.two_s,
            "effective_degree": chi.effective_degree,
            "total_strength": divisor.total,
            "roots": [[a.real, a.imag, mu] for a, mu in divisor.entries],
        },
        args.output,
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


@functools.cache
def build_parser():
    """The argument parser, built once per process (parse_args leaves it as it is); choices are the COMMANDS names."""
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


def _thresholds(args):
    """The check thresholds every command reads, once --grid, --t and the --tol-* overrides are valid."""
    if args.grid < 2:
        raise ValueError("--grid must be >= 2")
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t!r}")
    tols = dict(DEFAULT_TOLS)
    for name in ("euler", "killing"):
        tol = getattr(args, f"tol_{name}")
        if tol is None:
            continue
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"--tol-{name} must be finite and > 0, got {tol!r}")
        tols[name] = tol
    return tols


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        args.warnings = caught  # spin-circulation lists them in its report
        try:
            args.tols = _thresholds(args)
            # an overflow or invalid value raises where it happens, instead of a warning and a wrong number
            with np.errstate(over="raise", invalid="raise"):
                code = COMMANDS[args.command](args)
        except DegenerateSpectrumError as exc:
            code = EXIT_INPUT_ERROR
            failure = f"error: {exc} (critical-point enumeration assumes a nondegenerate spectrum)"
        # two ValueErrors that mean a failed check, not bad input: caught before ValueError
        except spin.ClusterAmbiguityError as exc:
            code, failure = EXIT_CHECK_FAILED, f"divisor computation failed: {exc}"
        except fluid.GradientCheckError as exc:
            code, failure = EXIT_CHECK_FAILED, f"critical-point gradient check failed: {exc}"
        except ValueError as exc:
            code, failure = EXIT_INPUT_ERROR, f"error: {exc}"
        except ArithmeticError as exc:  # a numerical breakdown on well-formed input: a failed check, not bad input
            code, failure = EXIT_CHECK_FAILED, f"error: {exc}"
    for warning in caught:
        sys.stderr.write(f"warning: {warning.message}\n")
    if failure is not None:
        sys.stderr.write(failure + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
