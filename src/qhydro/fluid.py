"""The Schrodinger flow on projective space as a stationary perfect fluid.

The flow generator of a time-independent Hamiltonian is Killing for the
Fubini-Study metric, so it solves the stationary Euler equation with
pressure p = (Delta H)^2 / 2, half the local variance. This module computes
the pressure field, its gradient and critical set, the signed vorticity on
eigenstate-pair spheres, the repeated-measurement (Zeno) survival law, and
flow-vs-geodesic trajectory comparisons.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    HermitianOperator,
    StateVector,
    dispersion_squared,
    dispersion_squared_stack,
    survival_probability,
)
from .projective import (
    AffineChart,
    ProjectivePoint,
    TangentAtPoint,
    chart_manifold,
    fubini_study_distance,
    fundamental_field,
    geodesic_sphere,
    horizontal_lift,
    representative,
)
from .riemann import (
    FD_STEP,
    ScalarField,
    StackFunction,
    covariant_derivative,
    differential,
    exterior_derivative_oneform,
    flat_form,
    flow_integrate,
    geodesic_integrate,
)

__all__ = [
    "CriticalPoint",
    "VorticityProfile",
    "TrajectoryReport",
    "pressure",
    "pressure_scalar_field",
    "pressure_gradient",
    "critical_points",
    "scalar_vorticity",
    "vorticity_on_sphere",
    "vorticity_transport_residual",
    "zeno_decay",
    "schrodinger_trajectory",
    "pressure_on_sphere",
    "critical_point_report",
    "write_profile_csv",
    "write_json_report",
]


# Grid nodes per stack in vorticity_on_sphere: bounds the stencil stacks,
# 2 * (2n) rows per node on CP^n.
NODE_BLOCK = 32


def _as_point(point) -> ProjectivePoint:
    return point if isinstance(point, ProjectivePoint) else ProjectivePoint(point)


def pressure(H: HermitianOperator, point) -> float:
    """Fluid pressure at a state: half the variance of H (zero exactly at eigenstates)."""
    return 0.5 * dispersion_squared(H, _as_point(point).state)


def _unit_rows(z):
    """Each row of a complex (N, dim) stack scaled to unit norm, on its own."""
    if not np.isfinite(z.view(float)).all():
        raise ValueError("state vector has non-finite amplitudes")
    return z / np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=1))[:, None]


def pressure_scalar_field(H: HermitianOperator, chart_index) -> ScalarField:
    """The pressure as a scalar field on one affine chart, evaluated on whole stacks of chart points."""

    def value(points):
        return 0.5 * dispersion_squared_stack(H, _unit_rows(representative(AffineChart(chart_index, points))))

    return ScalarField(StackFunction(value))


def pressure_gradient(H: HermitianOperator, point, h=FD_STEP, cross_tol=1e-5) -> TangentAtPoint:
    """Riemannian pressure gradient (dp)^sharp at a state, as a horizontal tangent.

    Computed two independent ways: a five-point finite difference of the
    pressure scalar (returned), and -nabla_X X through the chart Christoffel
    machinery. Disagreement beyond cross_tol means the metric normalization
    and the algebraic variance have fallen out of sync, which is a bug, so
    it raises rather than returning either value.
    """
    point = _as_point(point)
    chart = point.chart()
    manifold = chart_manifold(H.dim, chart.chart_index)
    p = pressure_scalar_field(H, chart.chart_index)
    dp = differential(manifold, p, chart.coords, h, order=4)
    grad = np.linalg.solve(manifold.metric_at(chart.coords), dp)

    X = fundamental_field(H, H.dim, chart.chart_index)
    advection = covariant_derivative(manifold, X, X, chart.coords, h)
    mismatch = grad + advection  # (dp)^sharp should equal -nabla_X X
    mismatch_norm = float(np.sqrt(mismatch @ manifold.metric_at(chart.coords) @ mismatch))
    if mismatch_norm > cross_tol:
        raise ValueError(
            f"pressure gradient routes disagree by {mismatch_norm!r} (> {cross_tol}); "
            "metric normalization or field generator is inconsistent"
        )
    base_v, w = horizontal_lift(chart, grad)
    return TangentAtPoint(ProjectivePoint(StateVector(base_v)), w)


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point of the pressure: eigenstate or equal-weight pair."""

    kind: str
    indices: tuple
    state: StateVector
    pressure: float
    phase_orbit: bool
    gradient_norm: float


def critical_points(H: HermitianOperator, grad_tol=1e-8, cross_tol=1e-5) -> list:
    """Enumerate all critical points of the pressure for a nondegenerate H.

    Returns the n+1 eigenstates (pressure zero, minima) followed by the
    n(n+1)/2 equal-probability pair superpositions (e_j + e_i)/sqrt(2),
    i > j, each with pressure (lambda_i - lambda_j)^2 / 8. Pair entries are
    phase-orbit representatives (azimuth alpha = 0): the full critical set
    is their U(1) circle. Each returned point is certified by a pressure
    gradient below grad_tol.
    """
    H.require_nondegenerate()
    vals, vecs = H.eigenvalues, H.eigenvectors
    out = []

    def certified(state, kind, indices, press, phase_orbit):
        norm = pressure_gradient(H, state, cross_tol=cross_tol).norm
        if norm > grad_tol:
            raise ValueError(
                f"enumerated {kind} {indices} fails the gradient check: |grad p| = {norm!r}"
            )
        return CriticalPoint(kind, indices, state, press, phase_orbit, norm)

    for i in range(H.dim):
        state = StateVector(vecs[:, i], normalize=True)
        out.append(certified(state, "eigenstate", (i,), 0.0, False))
    for i in range(H.dim):
        for j in range(i):
            state = StateVector((vecs[:, j] + vecs[:, i]) / np.sqrt(2.0), normalize=True)
            press = float(vals[i] - vals[j]) ** 2 / 8.0
            out.append(certified(state, "pair_superposition", (i, j), press, True))
    return out


def scalar_vorticity(H: HermitianOperator, i, j, theta, phi, h=FD_STEP) -> float:
    """Signed vorticity per unit area of the flow on the pair sphere S_ij.

    Evaluates the exterior derivative of the lowered velocity field on a
    positively oriented orthonormal tangent frame of the sphere, so the
    value is comparable with the closed form 2 omega cos(theta) everywhere,
    poles included.
    """
    sphere = geodesic_sphere(H, i, j)
    return float(_scalar_vorticities(H, [sphere.oriented_frame(theta, phi)], h)[0])


def _scalar_vorticities(H, frames, h):
    """Vorticity u1 . d(X^flat) . u2 at each (chart, u1, u2) frame; the frames of one chart form one stack."""
    out = np.empty(len(frames))
    for k in sorted({chart.chart_index for chart, _, _ in frames}):
        rows = [n for n, (chart, _, _) in enumerate(frames) if chart.chart_index == k]
        manifold = chart_manifold(H.dim, k)
        X = fundamental_field(H, H.dim, k)
        x = np.array([frames[n][0].coords for n in rows])
        w = exterior_derivative_oneform(manifold, flat_form(manifold, X), x, h)
        u1 = np.array([frames[n][1] for n in rows])
        u2 = np.array([frames[n][2] for n in rows])
        out[rows] = (u1 * (w * u2[:, None, :]).sum(axis=2)).sum(axis=1)
    return out


@dataclass(frozen=True)
class VorticityProfile:
    """Numeric vs analytic vorticity of the flow sampled on a pair sphere."""

    i: int
    j: int
    omega: float
    thetas: np.ndarray
    phis: np.ndarray
    numeric: np.ndarray  # shape (len(thetas), len(phis))
    analytic: np.ndarray  # shape (len(thetas),), 2 omega cos(theta)
    max_abs_err: float
    max_rel_err: float  # relative to the profile peak 2|omega|

    def rows(self):
        """(theta, phi, numeric, analytic, abs_err) per grid node."""
        for a, th in enumerate(self.thetas):
            for b, ph in enumerate(self.phis):
                num = float(self.numeric[a, b])
                ana = float(self.analytic[a])
                yield th, ph, num, ana, abs(num - ana)


def vorticity_on_sphere(H: HermitianOperator, i, j, grid=(64, 64), h=FD_STEP) -> VorticityProfile:
    """Sample the sphere vorticity on a (theta, phi) grid against 2 omega cos(theta).

    The theta grid includes both poles; the relative error is measured
    against the profile peak 2|omega| since the analytic profile crosses
    zero on the equator.
    """
    n_theta, n_phi = int(grid[0]), int(grid[1])
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid resolutions must be >= 2, got {grid}")
    sphere = geodesic_sphere(H, i, j)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    nodes = [(th, ph) for th in thetas for ph in phis]
    numeric = np.concatenate([
        _scalar_vorticities(H, [sphere.oriented_frame(th, ph) for th, ph in nodes[start : start + NODE_BLOCK]], h)
        for start in range(0, len(nodes), NODE_BLOCK)
    ]).reshape(n_theta, n_phi)
    analytic = 2.0 * sphere.omega * np.cos(thetas)
    abs_err = np.abs(numeric - analytic[:, None])
    peak = max(2.0 * abs(sphere.omega), 1e-300)
    return VorticityProfile(
        i=int(i),
        j=int(j),
        omega=sphere.omega,
        thetas=thetas,
        phis=phis,
        numeric=numeric,
        analytic=analytic,
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(abs_err.max() / peak),
    )


def vorticity_transport_residual(H: HermitianOperator, i, j, theta, phi, field=None, h=FD_STEP) -> float:
    """Residual of the stationary 2d vorticity transport on S_ij at (theta, phi).

    The scalar vorticity depends only on theta while the flow is purely
    azimuthal, so the advection term vanishes identically. `field` overrides
    the advecting velocity with (theta, phi) components, either a constant
    pair or a callable of (theta, phi); the default is the Schrodinger
    rotation (0, omega).
    """
    sphere = geodesic_sphere(H, i, j)
    omega = sphere.omega

    def w_tilde(th):
        return 2.0 * omega * np.cos(th)

    if field is None:
        comp = np.array([0.0, omega])
    elif callable(field):
        comp = np.asarray(field(theta, phi), dtype=float)
    else:
        comp = np.asarray(field, dtype=float)
    dw_dtheta = (w_tilde(theta + h) - w_tilde(theta - h)) / (2.0 * h)
    dw_dphi = 0.0  # w depends on theta only; kept for the formula's shape
    return abs(comp[0] * dw_dtheta + comp[1] * dw_dphi)


def zeno_decay(H: HermitianOperator, v: StateVector, t: float, N: int) -> float:
    """Survival probability after N equally spaced projective measurements.

    Evolves for t/N, projects back onto the initial state, repeats N times:
    the result is |<v| exp(-iHt/N) v>|^(2N). For small t the single-shot
    deficit is (Delta H)^2 t^2 and splitting into N measurements divides it
    by N, freezing the motion as N grows.
    """
    if int(N) < 1:
        raise ValueError(f"measurement count must be >= 1, got {N}")
    regime = dispersion_squared(H, v) * float(t) ** 2
    if regime >= 0.1:
        warnings.warn(
            f"(Delta H)^2 t^2 = {regime:.3g} >= 0.1: outside the quadratic decay regime",
            stacklevel=2,
        )
    step = survival_probability(H, v, float(t) / int(N))
    return float(step ** int(N))


@dataclass(frozen=True)
class TrajectoryReport:
    """Schrodinger trajectory vs geodesic from the same initial data."""

    chart_index: int
    flow: object
    geodesic: object
    deviations: np.ndarray  # pointwise Fubini-Study distances
    max_deviation: float


def schrodinger_trajectory(H: HermitianOperator, point, T=1.0, steps=1000) -> TrajectoryReport:
    """Integrate the chart flow of the Schrodinger field and compare with the geodesic.

    Both curves start from the same point with the same initial velocity;
    the report carries the pointwise Fubini-Study distance between them.
    The deviation vanishes exactly when the start is a pressure critical
    point and grows at generic starts, where the flow follows a non-geodesic
    latitude circle.
    """
    point = _as_point(point)
    chart = point.chart()
    k = chart.chart_index
    manifold = chart_manifold(H.dim, k)
    X = fundamental_field(H, H.dim, k)
    flow = flow_integrate(X, chart.coords, T, steps)
    geo = geodesic_integrate(manifold, chart.coords, X(chart.coords), T, steps)
    m = min(len(flow), len(geo))
    devs = np.array(
        [
            fubini_study_distance(
                AffineChart(k, flow.points[s]).to_state(),
                AffineChart(k, geo.points[s]).to_state(),
            )
            for s in range(m)
        ]
    )
    return TrajectoryReport(k, flow, geo, devs, float(devs.max()))


def pressure_on_sphere(H: HermitianOperator, i, j, grid=(64, 64)):
    """Pressure landscape rows on S_ij: (theta, phi, numeric, analytic, abs_err).

    The closed form on the pair sphere is omega^2 sin^2(theta) / 8. All grid
    nodes are evaluated as one stack of states.
    """
    n_theta, n_phi = int(grid[0]), int(grid[1])
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid resolutions must be >= 2, got {grid}")
    sphere = geodesic_sphere(H, i, j)
    thetas = np.repeat(np.linspace(0.0, np.pi, n_theta), n_phi)
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False), n_theta)
    numeric = 0.5 * dispersion_squared_stack(H, _unit_rows(sphere.representative(thetas[:, None], phis[:, None])))
    analytic = sphere.omega**2 * np.sin(thetas) ** 2 / 8.0
    return [
        (float(th), float(ph), float(num), float(ana), abs(float(num) - float(ana)))
        for th, ph, num, ana in zip(thetas, phis, numeric, analytic)
    ]


def critical_point_report(H: HermitianOperator, grad_tol=1e-8, cross_tol=1e-5) -> dict:
    """JSON-ready critical-set report for a nondegenerate Hamiltonian."""
    points = critical_points(H, grad_tol=grad_tol, cross_tol=cross_tol)
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


def write_profile_csv(path, rows):
    """Write (theta, phi, numeric, analytic, abs_err) rows with the fixed header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,phi,numeric,analytic,abs_err\n")
        for row in rows:
            fh.write(",".join(repr(float(entry)) for entry in row) + "\n")


def write_json_report(path, report):
    """Write a report dict as deterministic JSON (sorted keys, fixed layout)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
