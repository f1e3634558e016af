"""The three benchmark workloads: seeded inputs, the timed op, and its oracle.

Every workload builds a fixed pool of ops from the seed.  ``run`` is the
timed part and calls only qhydro's public API; ``check`` is the oracle and
uses numpy alone (closed forms, never a qhydro routine), so a wrong output
of the toolkit cannot be confirmed by the same wrong code.

A result is one geodesic, one CLI report, one divisor or one circulation.
A failed result is classified as one of the known defects listed in
``DEFECTS`` or as ``unexplained``; any unexplained failure makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from qhydro import cli, riemann, spin

# Thresholds the repository pins (cli.DEFAULT_TOLS and the acceptance suite).
CLAIRAUT_TOL = 1e-8  # acceptance criterion 9
TRAJECTORY_TOL = 1e-6  # acceptance criterion 8: deviation of a geodesic start
GRADIENT_TOL = 1e-8  # acceptance criterion 6: critical-point gradient norm
# The values of cli.DEFAULT_TOLS, copied so that a change to the program
# cannot loosen the oracle that judges it.
TOLS = {
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
# The tolerance behind each residual check a CLI report carries.
REPORT_CHECKS = {
    "killing_residual": "killing",
    "euler_residual": "euler",
    "pressure_gradient_orthogonality": "orthogonality",
    "divergence": "divergence",
    "velocity_form_transport": "velocity_form_transport",
    "dispersion_identity": "dispersion",
    "vorticity_profile_rel_error": "vorticity",
    "vorticity_transport_residual": "transport",
    "pressure_grid_error": "pressure_grid",
}
# Two computations of the same Clairaut drift must agree to 1% of its threshold.
DRIFT_AGREEMENT_TOL = 1e-2 * CLAIRAUT_TOL
# The divisor's own resolution: roots are clustered at 1e-6 (1 + max modulus).
DIVISOR_REL_TOL = 1e-6
# A contour is "near a root" inside the band the acceptance suite filters out
# (criterion 2 skips circles within 0.25 * radius of a root).
NEAR_ROOT_SHARE = 0.25

DEFECTS = {
    "near_root_quadrature": "circulation on a contour within 0.25 of its scale from a root is wrong or refused",
    "cluster_ambiguity": "vorticity_divisor raises ClusterAmbiguityError (also inside circulation)",
    "multiple_root_wrong": (
        "the divisor of a wave function with a multiple root is wrong, with no error: multiple roots "
        "come back split or off by more than 1e-6 (1 + max modulus), and nearby roots can move too"
    ),
    "degree_drop": (
        "effective_degree takes a true leading coefficient below 1e-12 of the largest for zero "
        "(a far root of high multiplicity): the divisor misses roots with no error, and the "
        "total circulation ring, sized from that divisor, can miss the far root"
    ),
    "chart_infinity": "trajectory integrates through the chart's point at infinity and exits 2",
    "multiple_root_cancellation": (
        "circulation is wrong where chi, summed in the monomial basis, loses digits to a "
        "high-multiplicity root (condition number * eps >= the integrality tolerance)"
    ),
}


@dataclass
class Result:
    """Oracle verdict on one result; ratio is worst residual / threshold."""

    kind: str
    ok: bool
    ratio: float | None
    defect: str | None = None

    def key(self):
        return (self.kind, self.ok, self.ratio, self.defect)


def _ratio(*parts):
    vals = [float(p) for p in parts]
    return max(vals) if all(math.isfinite(v) for v in vals) else math.inf


def _attempt(fn):
    """Call fn; an exception is the op's output, not the harness's failure."""
    try:
        return fn()
    except Exception as exc:  # every error of the toolkit is a failed result
        return exc


def _unit_hermitian(rng, dim):
    """Random Hermitian matrix with spectral range 1 and gaps above 1e-3."""
    while True:
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = (raw + raw.conj().T) / 2.0
        vals = np.linalg.eigvalsh(mat)
        mat = mat / (vals[-1] - vals[0])
        if np.diff(vals).min() / (vals[-1] - vals[0]) > 1e-3:
            return mat


# ---------------------------------------------------------------------------
# geodesic: RK4 geodesics on surfaces of revolution rho = a + b sin(c z)


@dataclass
class GeodesicOp:
    a: float
    b: float
    c: float
    x0: tuple
    u0: tuple
    T: float
    steps: int


class GeodesicWorkload:
    name = "geodesic"
    # three step counts in equal shares: p50 lies inside the middle stratum
    STEPS = (80, 160, 320)
    REPEATS = 16
    PROBE_UNITS = 8  # probe units (about 0.12 ms each) timed before and after each op

    def __init__(self, seed, workdir):
        self.seed = seed

    def make_pool(self):
        rng = np.random.default_rng([self.seed, 1])
        pool = []
        for _ in range(self.REPEATS):
            for steps in self.STEPS:
                a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
                z0, phi0 = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * np.pi)
                rho, drho = a + b * np.sin(c * z0), b * c * np.cos(c * z0)
                direction = rng.normal(size=2)
                speed = np.sqrt((1.0 + drho**2) * direction[0] ** 2 + rho**2 * direction[1] ** 2)
                u0 = direction / speed * rng.uniform(0.5, 1.5)
                pool.append(GeodesicOp(a, b, c, (z0, phi0), tuple(u0), 1.0, steps))
        return pool

    def write_inputs(self, pool):
        pass

    def warmup_ops(self, pool):
        return pool[: len(self.STEPS)]

    def run(self, op):
        a, b, c = op.a, op.b, op.c
        surf = riemann.surface_of_revolution(lambda z: a + b * np.sin(c * z), lambda z: b * c * np.cos(c * z))
        curve = riemann.geodesic_integrate(surf.manifold, np.array(op.x0), np.array(op.u0), op.T, op.steps)
        drift = riemann.clairaut_check(surf.manifold, curve, surf.killing_field)
        return curve, drift

    def check(self, op, out):
        curve, drift = out
        points = np.asarray(curve.points)
        vel = np.asarray(curve.velocities)
        if curve.exited or points.shape != (op.steps + 1, 2) or vel.shape != points.shape:
            return [Result("geodesic", False, None)]
        # Clairaut's integral rho(z)^2 phi' recomputed from the samples
        rho = op.a + op.b * np.sin(op.c * points[:, 0])
        momentum = rho**2 * vel[:, 1]
        oracle = float(np.abs(momentum - momentum[0]).max())
        ratio = _ratio(drift / CLAIRAUT_TOL, oracle / CLAIRAUT_TOL, abs(drift - oracle) / DRIFT_AGREEMENT_TOL)
        return [Result("geodesic", ratio <= 1.0, ratio)]

    def fingerprint(self, pool):
        return json.dumps([vars(op) for op in pool], sort_keys=True).encode()


# ---------------------------------------------------------------------------
# cpn_cli: in-process qhydro CLI commands on random Hamiltonians of CP^2..CP^4


@dataclass
class CliOp:
    command: str
    dim: int
    h: int  # index of the Hamiltonian
    argv: list
    params: dict


class CpnCliWorkload:
    name = "cpn_cli"
    # one Hamiltonian each; five of CP^3 put op_p50_ms and op_tail_ms in the
    # middle of blocks of five like ops (pressure and trajectory on CP^3),
    # away from the neighbouring CP^2 and CP^4 commands
    DIMS = (3, 4, 4, 4, 4, 4, 5)
    VORTICITY_GRID = 12
    PRESSURE_GRID = 16
    TRAJECTORY_STEPS = 100
    PROBE_UNITS = 16

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.hamiltonians = {}
        self.files = {}
        self.output_bytes = 0

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def make_pool(self):
        rng = np.random.default_rng([self.seed, 2])
        pool = []
        self.hamiltonians = {}
        self.files = {}
        for h, dim in enumerate(self.DIMS):
            mat = _unit_hermitian(rng, dim)
            self.hamiltonians[h] = mat
            hjson = {"dim": dim, "re": mat.real.tolist(), "im": mat.imag.tolist()}
            self.files[f"H{h}.json"] = hjson
            hpath = self._path(f"H{h}.json")

            def add(command, extra, params):
                pool.append(CliOp(command, dim, h, [command, *extra], params))

            add("verify", ["--input", hpath, "--seed", str(int(rng.integers(0, 2**31))),
                           "--output", self._path(f"op{len(pool):02d}_verify.json")], {})
            i = int(rng.integers(1, dim))
            j = int(rng.integers(0, i))
            add("vorticity", ["--input", hpath, "--pair", str(i), str(j), "--grid", str(self.VORTICITY_GRID),
                              "--output", self._path(f"op{len(pool):02d}_vorticity.csv")], {"pair": (i, j)})
            add("pressure", ["--input", hpath, "--grid", str(self.PRESSURE_GRID),
                             "--output", self._path(f"op{len(pool):02d}_pressure")], {})
            add("critical-points", ["--input", hpath, "--output", self._path(f"op{len(pool):02d}_critical.json")], {})
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            sname = f"S{h}.json"
            self.files[sname] = {"hamiltonian": hjson, "state": {"re": state.real.tolist(), "im": state.imag.tolist()}}
            spath = self._path(sname)
            T = float(rng.uniform(0.5, 2.0))
            add("trajectory", ["--input", spath, "--grid", str(self.TRAJECTORY_STEPS), "--t", repr(T),
                               "--output", self._path(f"op{len(pool):02d}_trajectory.json")],
                {"state": state, "T": T})
            for _ in range(2):
                t = float(rng.uniform(0.05, 0.3))
                n = int(rng.integers(1, 21))
                add("zeno", ["--input", spath, "--t", repr(t), "--N", str(n),
                             "--output", self._path(f"op{len(pool):02d}_zeno.json")],
                    {"state": state, "t": t, "N": n})
        return pool

    def write_inputs(self, pool):
        os.makedirs(self.workdir, exist_ok=True)
        for name, data in self.files.items():
            with open(self._path(name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)

    def warmup_ops(self, pool):
        seen, out = set(), []
        for op in pool:
            if op.command not in seen:
                seen.add(op.command)
                out.append(op)
        return out

    def run(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(op.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def fingerprint(self, pool):
        rows = [[op.command, op.dim, op.argv] for op in pool]
        return json.dumps([rows, self.files], sort_keys=True).replace(self.workdir, "").encode()

    # -- oracles ---------------------------------------------------------

    def output_path(self, op):
        return op.argv[op.argv.index("--output") + 1]

    def _read_json(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.output_bytes += os.path.getsize(path)
            return json.load(fh)

    def _read_csv(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        self.output_bytes += len(text.encode())
        lines = text.splitlines()
        if not lines or lines[0] != "theta,phi,numeric,analytic,abs_err":
            raise ValueError(f"bad CSV header in {path}")
        return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

    def check(self, op, out):
        code, stdout, stderr = out
        self.output_bytes += len(stdout.encode())
        kind = f"cli.{op.command}"
        if code != 0:
            defect = None
            if op.command == "trajectory" and code == 2 and ("positive-definite" in stderr or "overflow" in stderr):
                defect = "chart_infinity"
            return [Result(kind, False, None, defect)]
        try:
            ratio = getattr(self, "_check_" + op.command.replace("-", "_"))(op, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return [Result(kind, False, None)]
        return [Result(kind, ratio <= 1.0, ratio)]

    def _eig(self, op):
        return np.linalg.eigh(self.hamiltonians[op.h])

    @staticmethod
    def _report_ratio(checks, expected):
        if [c["check"] for c in checks] != expected:
            raise ValueError("unexpected check list")
        return max(c["max_residual"] / TOLS[REPORT_CHECKS[c["check"]]] for c in checks)

    def _check_verify(self, op, stdout):
        rep = self._read_json(self.output_path(op))
        names = ["killing_residual", "euler_residual", "pressure_gradient_orthogonality", "divergence",
                 "velocity_form_transport", "dispersion_identity"]
        if rep["dim"] != op.dim or not rep["passed"]:
            return math.inf
        return self._report_ratio(rep["checks"], names)

    def _check_vorticity(self, op, stdout):
        rep = json.loads(stdout)
        i, j = op.params["pair"]
        vals, _ = self._eig(op)
        omega = vals[i] - vals[j]
        rows = self._read_csv(self.output_path(op))
        grid = self.VORTICITY_GRID
        thetas = np.repeat(np.linspace(0.0, np.pi, grid), grid)
        if rows.shape != (grid * grid, 5) or np.abs(rows[:, 0] - thetas).max() > 1e-12:
            return math.inf
        rel_err = np.abs(rows[:, 2] - 2.0 * omega * np.cos(rows[:, 0])).max() / (2.0 * abs(omega))
        report = self._report_ratio(rep["checks"], ["vorticity_profile_rel_error", "vorticity_transport_residual"])
        return _ratio(rel_err / TOLS["vorticity"], report)

    def _pressure_ratios(self, op, cps, eigenvalues):
        dim = op.dim
        vals, _ = self._eig(op)
        if len(cps) != dim + dim * (dim - 1) // 2:
            return math.inf
        ratios = [np.abs(np.asarray(eigenvalues) - vals).max() / TOLS["dispersion"]]
        for cp in cps:
            idx = cp["indices"]
            expected = 0.0 if cp["kind"] == "eigenstate" else (vals[idx[0]] - vals[idx[1]]) ** 2 / 8.0
            ratios.append(abs(cp["pressure"] - expected) / TOLS["pressure_grid"])
            ratios.append(cp["gradient_norm"] / GRADIENT_TOL)
        return _ratio(*ratios)

    def _check_pressure(self, op, stdout):
        rep = json.loads(stdout)
        vals, _ = self._eig(op)
        base = self.output_path(op)
        pairs = [(i, j) for i in range(op.dim) for j in range(i)]
        if rep["csv_files"] != [f"{base}_S{i}{j}.csv" for i, j in pairs]:
            return math.inf
        ratios = [self._report_ratio(rep["checks"], ["pressure_grid_error"])]
        for (i, j), path in zip(pairs, rep["csv_files"]):
            rows = self._read_csv(path)
            if rows.shape != (self.PRESSURE_GRID**2, 5):
                return math.inf
            closed = (vals[i] - vals[j]) ** 2 * np.sin(rows[:, 0]) ** 2 / 8.0
            ratios.append(np.abs(rows[:, 2] - closed).max() / TOLS["pressure_grid"])
        crit = self._read_json(rep["critical_report"])
        ratios.append(self._pressure_ratios(op, crit["critical_points"], crit["eigenvalues"]))
        return _ratio(*ratios)

    def _check_critical_points(self, op, stdout):
        rep = self._read_json(self.output_path(op))
        return self._pressure_ratios(op, rep["critical_points"], rep["eigenvalues"])

    def _check_trajectory(self, op, stdout):
        rep = self._read_json(self.output_path(op))
        if rep["flow_exited"] or rep["geodesic_exited"] or rep["steps"] != self.TRAJECTORY_STEPS:
            return math.inf
        mat = self.hamiltonians[op.h]
        vals, vecs = self._eig(op)
        v = op.params["state"] / np.linalg.norm(op.params["state"])
        times = np.arange(self.TRAJECTORY_STEPS + 1) * (op.params["T"] / self.TRAJECTORY_STEPS)
        # the flow is exp(-iHt) v; the geodesic with the same initial velocity
        # w = -i (H - <H>) v is the great circle cos(|w|s) v + sin(|w|s) w/|w|
        flow = vecs @ (np.exp(-1j * np.outer(vals, times)) * (vecs.conj().T @ v)[:, None])
        hv = mat @ v
        w = -1j * (hv - np.vdot(v, hv) * v)
        speed = np.linalg.norm(w)
        geo = np.outer(v, np.cos(speed * times)) + np.outer(w / speed, np.sin(speed * times))
        overlap = np.abs(np.sum(flow.conj() * geo, axis=0))
        deviation = np.arccos(np.clip(overlap, 0.0, 1.0)).max()
        return abs(rep["max_deviation"] - deviation) / TRAJECTORY_TOL

    def _check_zeno(self, op, stdout):
        rep = self._read_json(self.output_path(op))
        mat = self.hamiltonians[op.h]
        vals, vecs = self._eig(op)
        v = op.params["state"] / np.linalg.norm(op.params["state"])
        t, n = op.params["t"], op.params["N"]
        coeffs = vecs.conj().T @ v
        amp = np.vdot(coeffs, np.exp(-1j * vals * t / n) * coeffs)
        survival = abs(amp) ** (2 * n)
        hv = mat @ v
        variance = np.vdot(hv, hv).real - np.vdot(v, hv).real ** 2
        if rep["N"] != n or rep["t"] != t:
            return math.inf
        return _ratio(
            abs(rep["survival"] - survival) / TOLS["dispersion"],
            abs(rep["dispersion_squared"] - variance) / TOLS["dispersion"],
            abs(rep["deficit"] - (1.0 - survival)) / TOLS["dispersion"],
            abs(rep["quadratic_prediction"] - variance * t * t / n) / TOLS["dispersion"],
        )


# ---------------------------------------------------------------------------
# spin_vortex: divisors, SU(2) action and circulation of polynomial spin states


@dataclass
class SpinOp:
    two_s: int
    family: str
    roots: list  # construction roots as (location, multiplicity)
    coeffs: np.ndarray
    g: tuple  # SU(2) parameters (a, b)
    circles: list  # (center, radius)
    polygons: list  # vertex tuples, counter-clockwise


def _image_roots(roots, g):
    """Roots of act(g, chi) from those of chi: zeta = (conj(a) r - conj(b)) / (a + b r)."""
    a, b = g
    return [((np.conj(a) * r - np.conj(b)) / (a + b * r), mu) for r, mu in roots]


def _segment_distance(z, p, q):
    edge = q - p
    frac = np.clip(((z - p) * np.conj(edge)).real / abs(edge) ** 2, 0.0, 1.0)
    return abs(z - (p + frac * edge))


def _inside_polygon(z, verts):
    inside = False
    n = len(verts)
    for k in range(n):
        p, q = verts[k], verts[(k + 1) % n]
        if (p.imag > z.imag) != (q.imag > z.imag):
            cross = p.real + (z.imag - p.imag) * (q.real - p.real) / (q.imag - p.imag)
            if z.real < cross:
                inside = not inside
    return inside


class SpinVortexWorkload:
    name = "spin_vortex"
    DEGREES = (1, 2, 3, 4, 6, 8, 12, 16)
    FAMILIES = ("simple", "double", "triple", "coherent")
    # 32 of each stratum: the tail lands among the degree-16 ops that meet
    # ClusterAmbiguityError (their circulations recompute the divisor)
    REPEATS = 32
    CIRCLES = 3
    POLYGONS = 2
    PROBE_UNITS = 4  # few: an op takes about 3 ms

    def __init__(self, seed, workdir):
        self.seed = seed

    def make_pool(self):
        rng = np.random.default_rng([self.seed, 3])
        pool = []

        def point(half):
            return complex(rng.uniform(-half, half), rng.uniform(-half, half))

        for _ in range(self.REPEATS):
            for two_s in self.DEGREES:
                for family in self.FAMILIES:
                    if family == "coherent":
                        # an SU(2)-rotated spin-coherent state: one 2s-fold root
                        roots = [(point(1.5), two_s)]
                    else:
                        cap = self.FAMILIES.index(family) + 1
                        roots, left = [], two_s
                        while left:
                            mu = int(rng.integers(1, min(cap, left) + 1))
                            roots.append((point(1.5), mu))
                            left -= mu
                    flat = [r for r, mu in roots for _ in range(mu)]
                    coeffs = npoly.polyfromroots(flat).astype(complex)
                    coeffs *= np.exp(2j * np.pi * rng.uniform()) / np.linalg.norm(coeffs)
                    raw = rng.normal(size=4)
                    g = complex(raw[0], raw[1]), complex(raw[2], raw[3])
                    norm = math.hypot(abs(g[0]), abs(g[1]))
                    g = (g[0] / norm, g[1] / norm)
                    circles = [(point(2.0), float(rng.uniform(0.3, 2.5))) for _ in range(self.CIRCLES)]
                    polygons = []
                    for _ in range(self.POLYGONS):
                        center, k = point(2.0), int(rng.integers(3, 7))
                        base = rng.uniform(0.0, 2.0 * np.pi)
                        angles = base + 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, size=k)) / k
                        radii = rng.uniform(0.3, 2.5, size=k)
                        polygons.append(tuple(center + radii * np.exp(1j * angles)))
                    pool.append(SpinOp(two_s, family, roots, coeffs, g, circles, polygons))
        return pool

    def write_inputs(self, pool):
        pass

    def warmup_ops(self, pool):
        return pool[: len(self.FAMILIES) * len(self.DEGREES)]

    def fingerprint(self, pool):
        def enc(z):
            return [float(np.real(z)), float(np.imag(z))]

        rows = [
            [op.two_s, op.family, [[enc(r), mu] for r, mu in op.roots], [enc(c) for c in op.coeffs],
             [enc(x) for x in op.g], [[enc(c), r] for c, r in op.circles],
             [[enc(v) for v in poly] for poly in op.polygons]]
            for op in pool
        ]
        return json.dumps(rows).encode()

    def run(self, op):
        chi = spin.SpinWaveFunction(op.two_s, op.coeffs)
        g = spin.SU2Element.from_params(*op.g)
        divisor = _attempt(chi.divisor)
        image = spin.su2_act(g, chi)
        image_divisor = _attempt(image.divisor)
        contours = [spin.CircleContour(c, r) for c, r in op.circles]
        contours += [spin.PolygonContour(verts) for verts in op.polygons]
        circulations = [_attempt(lambda c=c: spin.circulation(chi, c)) for c in contours]
        total = _attempt(lambda: spin.total_spin_circulation(chi))
        image_total = _attempt(lambda: spin.total_spin_circulation(image))
        return divisor, image_divisor, circulations, total, image_total

    def check(self, op, out):
        divisor, image_divisor, circulations, total, image_total = out
        image_roots = _image_roots(op.roots, op.g)
        results = [
            self._check_divisor("divisor", divisor, op.roots),
            self._check_divisor("image_divisor", image_divisor, image_roots),
        ]
        shapes = [("circle", c, r) for c, r in op.circles] + [("polygon", v, None) for v in op.polygons]
        for shape, value in zip(shapes, circulations):
            results.append(self._check_circulation(shape, value, op))
        results.append(self._check_total("total_circulation", total, op.two_s, results[0]))
        results.append(self._check_total("image_total_circulation", image_total, op.two_s, results[1]))
        return results

    @staticmethod
    def _failure(kind, exc):
        if isinstance(exc, spin.ClusterAmbiguityError):
            return Result(kind, False, None, "cluster_ambiguity")
        if isinstance(exc, spin.ContourTooCloseError):
            return Result(kind, False, None, "near_root_quadrature")
        return Result(kind, False, None)

    def _check_divisor(self, kind, divisor, roots):
        if isinstance(divisor, Exception):
            return self._failure(kind, divisor)
        locs = np.array([r for r, _ in roots])
        mults = [mu for _, mu in roots]
        tol = DIVISOR_REL_TOL * (1.0 + np.abs(locs).max())
        found = [0] * len(roots)  # multiplicity of the entries nearest to each root
        worst = 0.0
        for z, mu in divisor.entries:
            dist = np.abs(locs - z)
            k = int(dist.argmin())
            found[k] += mu
            worst = max(worst, float(dist[k]))
        ratio = worst / tol
        if found == mults and len(divisor.entries) == len(roots) and ratio <= 1.0:
            return Result(kind, True, ratio)
        defect = None
        if divisor.total < sum(mults):
            defect = "degree_drop"
        elif max(mults) >= 2:
            # the companion-matrix eigenvalues of a multiple root scatter; the
            # scatter can also reach its neighbours and other nearby roots
            defect = "multiple_root_wrong"
        return Result(kind, False, ratio, defect)

    def _check_circulation(self, shape, value, op):
        name, a, b = shape
        kind = f"{name}_circulation"
        roots = op.roots
        locs = [r for r, _ in roots]
        if name == "circle":
            expected = sum(mu for r, mu in roots if abs(r - a) < b)
        else:
            expected = sum(mu for r, mu in roots if _inside_polygon(r, a))
        if not isinstance(value, Exception):
            ratio = _ratio(abs(value - expected) / TOLS["integrality"])
            if ratio <= 1.0:
                return Result(kind, True, ratio)
            result = Result(kind, False, ratio)
        else:
            result = self._failure(kind, value)
        if result.defect is None:
            if name == "circle":
                near = min(abs(abs(r - a) - b) for r in locs) < NEAR_ROOT_SHARE * b
                samples = a + b * np.exp(2j * np.pi * np.arange(256) / 256)
            else:
                edges = list(zip(a, a[1:] + a[:1]))
                near = any(_segment_distance(r, p, q) < NEAR_ROOT_SHARE * abs(q - p) for r in locs for p, q in edges)
                frac = np.linspace(0.0, 1.0, 64, endpoint=False)
                samples = np.concatenate([p + frac * (q - p) for p, q in edges])
            # relative round-off of chi summed in the monomial basis on the contour
            condition = npoly.polyval(np.abs(samples), np.abs(op.coeffs)) / np.abs(npoly.polyval(samples, op.coeffs))
            if near:
                result.defect = "near_root_quadrature"
            elif condition.max() * np.finfo(float).eps >= TOLS["integrality"]:
                result.defect = "multiple_root_cancellation"
        return result

    def _check_total(self, kind, value, two_s, divisor_result):
        if isinstance(value, Exception):
            return self._failure(kind, value)
        ratio = _ratio(abs(value - two_s) / TOLS["integrality"])
        if ratio <= 1.0:
            return Result(kind, True, ratio)
        # the ring is sized from the divisor, so a dropped far root can fall outside it
        defect = "degree_drop" if divisor_result.defect == "degree_drop" else None
        return Result(kind, False, ratio, defect)


WORKLOADS = {w.name: w for w in (GeodesicWorkload, CpnCliWorkload, SpinVortexWorkload)}
