"""The Schrodinger flow on projective space as a stationary perfect fluid.

The flow generator of a time-independent Hamiltonian is Killing for the
Fubini-Study metric, so it solves the stationary Euler equation with
pressure p = (Delta H)^2 / 2, half the local variance. This module computes
the pressure field, its gradient and critical set, the signed vorticity on
eigenstate-pair spheres, the repeated-measurement (Zeno) survival law, and
flow-vs-geodesic trajectory comparisons. The pressure and the vorticity on a
pair sphere are sampled as one SphereProfile each, and exported as CSV.

A state is a StateVector; pressure also takes an (N, dim) stack of unit
rows, one value per row. Grid nodes, candidate points and trajectory
samples are evaluated as stacks, the rows of one chart (grouped by
projective.chart_rows) as one stack per operator, and give the same bits
as the one-point calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import HermitianOperator, StateVector, dispersion_squared, normalized_rows, survival_probability
from .projective import (
    AffineChart,
    GeodesicSphere,
    TangentAtPoint,
    chart_manifold,
    chart_of,
    chart_rows,
    fubini_study_distance,
    fundamental_field,
    horizontal_lift,
    representative,
)
from .riemann import (
    FD_STEP,
    ScalarField,
    StackFunction,
    _bilinear_rows,
    covariant_derivative,
    differential,
    exterior_derivative_oneform,
    flat_form,
    flow_integrate,
    geodesic_integrate,
)

__all__ = [
    "CriticalPoint",
    "GradientCheckError",
    "SphereProfile",
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
    "write_profile_csv",
]


# Grid nodes per stack in vorticity_on_sphere: bounds the stencil stacks,
# 2 * (2n) rows per node on CP^n.
NODE_BLOCK = 32


def pressure(H: HermitianOperator, point):
    """Fluid pressure at a state: half the variance of H (zero exactly at eigenstates).

    A float for a StateVector, one value per row of an (N, dim) unit stack.
    """
    return 0.5 * dispersion_squared(H, point)


def _unit_rows(z):
    """Each row of a complex (N, dim) stack scaled to unit norm, on its own.

    By a row sum of squares, not hilbert.normalized_rows: the pressure field
    and the pressure CSV grids are computed with it, and the BLAS norm would
    round their last bits differently.
    """
    if not np.isfinite(z.view(float)).all():
        raise ValueError("state vector has non-finite amplitudes")
    return z / np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=1))[:, None]


def pressure_scalar_field(H: HermitianOperator, chart_index) -> ScalarField:
    """The pressure as a scalar field on one affine chart, evaluated on whole stacks of chart points."""

    def value(points):
        return 0.5 * dispersion_squared(H, _unit_rows(representative(AffineChart(chart_index, points))))

    return ScalarField(StackFunction(value))


class GradientCheckError(ValueError):
    """A pressure gradient failed its check: two routes disagree, or an enumerated critical point is not critical."""


def pressure_gradient(H: HermitianOperator, point, h=FD_STEP, cross_tol=1e-5) -> TangentAtPoint:
    """Riemannian pressure gradient (dp)^sharp at a state, as a horizontal tangent.

    Computed two independent ways: a five-point finite difference of the
    pressure scalar (returned), and -nabla_X X through the chart Christoffel
    machinery. Disagreement beyond cross_tol means the metric normalization
    and the algebraic variance have fallen out of sync, which is a bug, so
    it raises GradientCheckError rather than returning either value. One
    state is the one-row case of the stacked gradients of critical_points.
    """
    chart = chart_of(point)
    grads, mismatches = _pressure_gradients(H, [chart], h)
    return _gradient_tangent(chart, grads[0], mismatches[0], cross_tol)


def _pressure_gradients(H, charts, h):
    """(dp)^sharp at each chart point, and the norm of its mismatch with -nabla_X X.

    The points of one chart form one stack.
    """
    dim = 2 * (H.dim - 1)
    grads, mismatches = np.empty((len(charts), dim)), np.empty(len(charts))
    for k, rows in chart_rows([chart.chart_index for chart in charts]):
        x = np.array([charts[n].coords for n in rows])
        manifold = chart_manifold(H.dim, k)
        dp = differential(manifold, pressure_scalar_field(H, k), x, h, order=4)
        g = manifold.metric_at(x)
        grad = np.linalg.solve(g, dp[:, :, None])[:, :, 0]
        X = fundamental_field(H, k)
        mismatch = grad + covariant_derivative(manifold, X, X, x, h)  # (dp)^sharp should equal -nabla_X X
        grads[rows] = grad
        mismatches[rows] = np.sqrt(_bilinear_rows(mismatch, g, mismatch))
    return grads, mismatches


def _gradient_tangent(chart, grad, mismatch, cross_tol):
    """The gradient at one chart point as a horizontal tangent, once its two routes agree to cross_tol."""
    if mismatch > cross_tol:
        raise GradientCheckError(
            f"pressure gradient routes disagree by {float(mismatch)!r} (> {cross_tol}); "
            "metric normalization or field generator is inconsistent"
        )
    base_v, w = horizontal_lift(chart, grad)
    return TangentAtPoint(StateVector(base_v), w)


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
    gradient below grad_tol; the gradients of all candidates are one stack
    per chart, and the first candidate in this order that fails raises.
    """
    H.require_nondegenerate()
    vals, vecs = H.eigenvalues, H.eigenvectors
    candidates = [
        (StateVector(vecs[:, i], normalize=True), "eigenstate", (i,), 0.0, False) for i in range(H.dim)
    ] + [
        (
            StateVector((vecs[:, j] + vecs[:, i]) / np.sqrt(2.0), normalize=True),
            "pair_superposition",
            (i, j),
            float(vals[i] - vals[j]) ** 2 / 8.0,
            True,
        )
        for i in range(H.dim)
        for j in range(i)
    ]
    charts = [chart_of(state) for state, *_ in candidates]
    grads, mismatches = _pressure_gradients(H, charts, FD_STEP)
    out = []
    for (state, kind, indices, press, phase_orbit), chart, grad, mismatch in zip(candidates, charts, grads, mismatches):
        norm = _gradient_tangent(chart, grad, mismatch, cross_tol).norm
        if norm > grad_tol:
            raise GradientCheckError(
                f"enumerated {kind} {indices} fails the gradient check: |grad p| = {norm!r}"
            )
        out.append(CriticalPoint(kind, indices, state, press, phase_orbit, norm))
    return out


def scalar_vorticity(H: HermitianOperator, i, j, theta, phi, h=FD_STEP) -> float:
    """Signed vorticity per unit area of the flow on the pair sphere S_ij.

    Evaluates the exterior derivative of the lowered velocity field on a
    positively oriented orthonormal tangent frame of the sphere, so the
    value is comparable with the closed form 2 omega cos(theta) everywhere,
    poles included.
    """
    ks, coords, u1, u2 = GeodesicSphere(H, i, j).oriented_frames([theta], [phi])
    return float(_scalar_vorticities(H, ks, coords, u1, u2, h)[0])


def _scalar_vorticities(H, ks, coords, u1, u2, h):
    """Vorticity u1 . d(X^flat) . u2 at each frame (ks[n], coords[n], u1[n], u2[n]).

    The frames of one chart form stacks of at most NODE_BLOCK nodes.
    """
    out = np.empty(len(ks))
    for k, in_chart in chart_rows(ks):
        manifold = chart_manifold(H.dim, k)
        alpha = flat_form(manifold, fundamental_field(H, k))
        for start in range(0, len(in_chart), NODE_BLOCK):
            rows = in_chart[start : start + NODE_BLOCK]
            w = exterior_derivative_oneform(manifold, alpha, coords[rows], h)
            out[rows] = (u1[rows] * (w * u2[rows][:, None, :]).sum(axis=2)).sum(axis=1)
    return out


@dataclass(frozen=True)
class SphereProfile:
    """A field sampled on a (theta, phi) grid of the pair sphere S_ij, next to its closed form.

    The theta grid runs from pole to pole, both included; numeric and
    analytic have shape (len(thetas), len(phis)).
    """

    i: int
    j: int
    omega: float
    thetas: np.ndarray
    phis: np.ndarray
    numeric: np.ndarray
    analytic: np.ndarray

    @property
    def abs_err(self) -> np.ndarray:
        return np.abs(self.numeric - self.analytic)

    @property
    def max_abs_err(self) -> float:
        return float(self.abs_err.max())

    @property
    def max_rel_err(self) -> float:
        """The largest error relative to the peak max|analytic|, since the closed forms cross zero."""
        return self.max_abs_err / max(float(np.abs(self.analytic).max()), 1e-300)


def _sphere_grid(grid):
    """The theta nodes (both poles included), the phi nodes, and their (n_theta, n_phi) node grids."""
    n_theta, n_phi = int(grid[0]), int(grid[1])
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid resolutions must be >= 2, got {grid}")
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return (thetas, phis, *np.meshgrid(thetas, phis, indexing="ij"))


def vorticity_on_sphere(H: HermitianOperator, i, j, grid=(64, 64), h=FD_STEP) -> SphereProfile:
    """Sample the sphere vorticity on a (theta, phi) grid against 2 omega cos(theta).

    The theta grid includes both poles, so max_rel_err is relative to the
    profile peak 2|omega|.
    """
    thetas, phis, th, ph = _sphere_grid(grid)
    sphere = GeodesicSphere(H, i, j)
    numeric = _scalar_vorticities(H, *sphere.oriented_frames(th.ravel(), ph.ravel()), h).reshape(th.shape)
    return SphereProfile(int(i), int(j), sphere.omega, thetas, phis, numeric, 2.0 * sphere.omega * np.cos(th))


def vorticity_transport_residual(H: HermitianOperator, i, j, theta, phi, field=None, h=FD_STEP) -> float:
    """Residual of the stationary 2d vorticity transport on S_ij at (theta, phi).

    The scalar vorticity depends only on theta while the flow is purely
    azimuthal, so the advection term vanishes identically. `field` overrides
    the advecting velocity with (theta, phi) components, either a constant
    pair or a callable of (theta, phi); the default is the Schrodinger
    rotation (0, omega).
    """
    sphere = GeodesicSphere(H, i, j)
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
    try:
        t_squared = float(t) ** 2
    except OverflowError:
        raise OverflowError(f"t^2 overflows a double at t = {t!r}") from None
    regime = dispersion_squared(H, v) * t_squared
    if not math.isfinite(regime):
        raise OverflowError(f"(Delta H)^2 t^2 overflows a double at t = {t!r}")
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
    chart = chart_of(point)
    k = chart.chart_index
    manifold = chart_manifold(H.dim, k)
    X = fundamental_field(H, k)
    curve = f"the flow on chart {k}"
    try:
        flow = flow_integrate(X, chart.coords, T, steps)
        curve = f"the geodesic on chart {k}"
        geo = geodesic_integrate(manifold, chart.coords, X(chart.coords), T, steps)
    except (FloatingPointError, OverflowError) as exc:  # the message names the step; add the curve
        raise type(exc)(f"{curve} {exc}") from None
    m = min(len(flow), len(geo))
    devs = fubini_study_distance(
        normalized_rows(representative(AffineChart(k, flow.points[:m]))),
        normalized_rows(representative(AffineChart(k, geo.points[:m]))),
    )
    return TrajectoryReport(k, flow, geo, devs, float(devs.max()))


def pressure_on_sphere(H: HermitianOperator, i, j, grid=(64, 64)) -> SphereProfile:
    """Sample the pressure on a (theta, phi) grid of S_ij against omega^2 sin^2(theta) / 8.

    All grid nodes are evaluated as one stack of states.
    """
    thetas, phis, th, ph = _sphere_grid(grid)
    sphere = GeodesicSphere(H, i, j)
    states = _unit_rows(sphere.representative(th.reshape(-1, 1), ph.reshape(-1, 1)))
    numeric = 0.5 * dispersion_squared(H, states).reshape(th.shape)
    return SphereProfile(int(i), int(j), sphere.omega, thetas, phis, numeric, sphere.omega**2 * np.sin(th) ** 2 / 8.0)


def write_profile_csv(path, profile: SphereProfile):
    """Write one (theta, phi, numeric, analytic, abs_err) row per grid node, theta-major, under a fixed header.

    Every value is written as its repr; each theta and phi node is formatted once.
    """
    phis = list(map(repr, profile.phis.tolist()))
    nodes = [f"{theta},{phi}," for theta in map(repr, profile.thetas.tolist()) for phi in phis]
    values = [a.ravel().tolist() for a in (profile.numeric, profile.analytic, profile.abs_err)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,phi,numeric,analytic,abs_err\n")
        fh.write("".join(map("{}{!r},{!r},{!r}\n".format, nodes, *values)))
