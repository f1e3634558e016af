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
from .jsonio import count, write_text
from .projective import (
    GeodesicSphere,
    TangentAtPoint,
    chart_manifold,
    chart_of,
    chart_rows,
    fubini_study_distance,
    fundamental_field,
    horizontal_lift,
    project_tangent,
    representative,
)
from .riemann import (
    FD_STEP,
    ScalarField,
    StackFunction,
    _bilinear,
    _Stencil,
    exterior_derivative_oneform,
    flat_form,
    flow_integrate,
    geodesic_integrate,
)
from .spin import NumericalBreakdownError

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

# The pressure-gradient checks, read when a gradient is checked: the norm of
# an enumerated critical point's gradient, and the largest disagreement of the
# gradient's two routes.
GRAD_TOL = 1e-8
CROSS_TOL = 1e-5


def pressure(H: HermitianOperator, point):
    """Fluid pressure at a state: half the variance of H (zero exactly at eigenstates).

    A float for a StateVector, one value per row of an (N, dim) unit stack.
    """
    return 0.5 * dispersion_squared(H, point)


def pressure_scalar_field(H: HermitianOperator, chart_index) -> ScalarField:
    """The pressure as a scalar field on one affine chart, evaluated on whole stacks of chart points."""

    def value(points):
        return 0.5 * dispersion_squared(H, normalized_rows(representative(chart_index, points)))

    return ScalarField(StackFunction(value))


class GradientCheckError(ValueError):
    """A pressure gradient failed its check: two routes disagree, or an enumerated critical point is not critical."""


def pressure_gradient(H: HermitianOperator, point) -> TangentAtPoint:
    """Riemannian pressure gradient (dp)^sharp at a state, as a horizontal tangent.

    The closed form: at the unit representative v, grad p lifts to
    P_perp (H - <H>)^2 v, P_perp removing the component along v. It is
    checked against -nabla_X X by central differences of step FD_STEP:
    disagreement beyond CROSS_TOL (metric normalization and variance out of
    sync, a bug) raises GradientCheckError, and a gradient or disagreement
    that is not finite raises NumericalBreakdownError. One state is the
    one-row case of critical_points' stacked gradients.
    """
    k, x = chart_of(point)
    grads, mismatches = _pressure_gradients(H, [k], x[None])
    return _gradient_tangent(point, k, x, grads[0], mismatches[0])


def _variance_gradient_lifts(H, v):
    """(H - <H>)^2 v, whose part orthogonal to v lifts grad p, at each unit row v of a stack, each row on its own."""
    Hv = H.apply_stack(v)
    mean = (v.real * Hv.real + v.imag * Hv.imag).sum(axis=1)[:, None]
    centred = Hv - mean * v
    return H.apply_stack(centred) - mean * centred


def _pressure_gradients(H, ks, xs):
    """(dp)^sharp at each chart point (ks[n], xs[n]) in closed form, and the norm of its mismatch with -nabla_X X.

    The points of one chart form one stack; g and nabla_X X share one stencil stack.
    """
    grads, mismatches = np.empty(xs.shape), np.empty(len(xs))
    for k, rows in chart_rows(ks):
        x = xs[rows]
        v = normalized_rows(representative(k, x))
        # project_tangent drops the component along v: it applies P_perp
        grad = project_tangent(v, _variance_gradient_lifts(H, v), k)
        S = _Stencil(chart_manifold(H.dim, k), x, FD_STEP)
        g = S.metric()[: len(x)]
        X = fundamental_field(H, k)
        mismatch = grad + S.covariant_derivative(X, X)  # (dp)^sharp should equal -nabla_X X
        grads[rows] = grad
        mismatches[rows] = np.sqrt(_bilinear(mismatch, g, mismatch))
    return grads, mismatches


def _gradient_tangent(where, k, x, grad, mismatch):
    """The gradient at the chart-k point x (`where` in errors) as a tangent, once finite and within CROSS_TOL."""
    if not np.isfinite(grad).all():
        raise NumericalBreakdownError(f"the pressure gradient at {where} is not finite: {grad}")
    if not math.isfinite(mismatch):
        raise NumericalBreakdownError(f"the pressure gradient routes at {where} disagree by {float(mismatch)!r}")
    if mismatch > CROSS_TOL:
        raise GradientCheckError(
            f"pressure gradient routes disagree by {float(mismatch)!r} (> {CROSS_TOL}); "
            "metric normalization or field generator is inconsistent"
        )
    base_v, w = horizontal_lift(k, x, grad)
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


def critical_points(H: HermitianOperator) -> list:
    """Enumerate all critical points of the pressure for a nondegenerate H.

    Returns the n+1 eigenstates (pressure zero, minima) followed by the
    n(n+1)/2 equal-probability pair superpositions (e_j + e_i)/sqrt(2),
    i > j, each with pressure (lambda_i - lambda_j)^2 / 8. Pair entries are
    phase-orbit representatives (azimuth alpha = 0): the full critical set
    is their U(1) circle. Each is certified by its closed-form pressure
    gradient (norm below GRAD_TOL, within CROSS_TOL of -nabla_X X), all one
    stack per chart; the first to fail raises, and an overflow raises
    NumericalBreakdownError.
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
            _pair_pressure(vals, i, j),
            True,
        )
        for i in range(H.dim)
        for j in range(i)
    ]
    ks, xs = zip(*(chart_of(state) for state, *_ in candidates))
    xs = np.array(xs)
    grads, mismatches = _pressure_gradients(H, ks, xs)
    out = []
    for (state, kind, indices, press, phase_orbit), k, x, grad, mismatch in zip(candidates, ks, xs, grads, mismatches):
        norm = _gradient_tangent(f"enumerated {kind} {indices}", k, x, grad, mismatch).norm
        if norm > GRAD_TOL:
            raise GradientCheckError(
                f"enumerated {kind} {indices} fails the gradient check: |grad p| = {norm!r}"
            )
        out.append(CriticalPoint(kind, indices, state, press, phase_orbit, norm))
    return out


def _pair_pressure(vals, i, j):
    """(lambda_i - lambda_j)^2 / 8, the pressure of the pair superposition (i, j), named if it overflows."""
    gap = float(vals[i] - vals[j])
    try:
        return gap**2 / 8.0
    except OverflowError:
        raise NumericalBreakdownError(f"the pressure of the pair superposition {(i, j)} overflows: gap {gap!r}") from None


def scalar_vorticity(H: HermitianOperator, i, j, theta, phi) -> float:
    """Signed vorticity per unit area of the flow on the pair sphere S_ij.

    Evaluates the exterior derivative of the lowered velocity field on a
    positively oriented orthonormal tangent frame of the sphere, so the
    value is comparable with the closed form 2 omega cos(theta) everywhere,
    poles included.
    """
    ks, coords, u1, u2 = GeodesicSphere(H, i, j).oriented_frames([theta], [phi])
    return float(_scalar_vorticities(H, ks, coords, u1, u2)[0])


def _scalar_vorticities(H, ks, coords, u1, u2):
    """Vorticity u1 . d(X^flat) . u2 at each frame (ks[n], coords[n], u1[n], u2[n]).

    The frames of one chart form stacks of at most NODE_BLOCK nodes.
    """
    out = np.empty(len(ks))
    for k, in_chart in chart_rows(ks):
        manifold = chart_manifold(H.dim, k)
        alpha = flat_form(manifold, fundamental_field(H, k))
        for start in range(0, len(in_chart), NODE_BLOCK):
            rows = in_chart[start : start + NODE_BLOCK]
            w = exterior_derivative_oneform(manifold, alpha, coords[rows])
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
    n_theta, n_phi = count("theta resolution", grid[0], 2), count("phi resolution", grid[1], 2)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return (thetas, phis, *np.meshgrid(thetas, phis, indexing="ij"))


def vorticity_on_sphere(H: HermitianOperator, i, j, grid=(64, 64)) -> SphereProfile:
    """Sample the sphere vorticity on a (theta, phi) grid against 2 omega cos(theta).

    The theta grid includes both poles, so max_rel_err is relative to the
    profile peak 2|omega|.
    """
    thetas, phis, th, ph = _sphere_grid(grid)
    sphere = GeodesicSphere(H, i, j)
    numeric = _scalar_vorticities(H, *sphere.oriented_frames(th.ravel(), ph.ravel())).reshape(th.shape)
    return SphereProfile(int(i), int(j), sphere.omega, thetas, phis, numeric, 2.0 * sphere.omega * np.cos(th))


def vorticity_transport_residual(H: HermitianOperator, i, j, theta, phi, field=None, h=FD_STEP):
    """Residual of the stationary 2d vorticity transport on S_ij at (theta, phi).

    The scalar vorticity depends only on theta while the flow is purely
    azimuthal, so the advection term vanishes identically. `field` overrides
    the advecting velocity with (theta, phi) components, either a constant
    pair or a callable of (theta, phi); the default is the Schrodinger
    rotation (0, omega). A float for scalar theta and phi; for arrays, one
    value per node of their broadcast, each the bits of its scalar call.
    """
    omega = GeodesicSphere(H, i, j).omega
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))

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
    residual = np.abs(comp[0] * dw_dtheta + comp[1] * dw_dphi)
    return float(residual) if residual.ndim == 0 else residual


def zeno_decay(H: HermitianOperator, v: StateVector, t: float, N: int) -> float:
    """Survival probability after N equally spaced projective measurements.

    Evolves for t/N, projects back onto the initial state, repeats N times:
    the result is |<v| exp(-iHt/N) v>|^(2N). For small t the single-shot
    deficit is (Delta H)^2 t^2 and splitting into N measurements divides it
    by N, freezing the motion as N grows. N is an integer of at least 1.
    """
    N = count("measurement count", N, 1)
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
    step = survival_probability(H, v, float(t) / N)
    return float(step**N)


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
    k, x = chart_of(point)
    manifold = chart_manifold(H.dim, k)
    X = fundamental_field(H, k)
    curve = f"the flow on chart {k}"
    try:
        flow = flow_integrate(X, x, T, steps)
        curve = f"the geodesic on chart {k}"
        geo = geodesic_integrate(manifold, x, X(x), T, steps)
    except (FloatingPointError, OverflowError) as exc:  # the message names the step; add the curve
        raise type(exc)(f"{curve} {exc}") from None
    m = min(len(flow), len(geo))
    devs = fubini_study_distance(
        normalized_rows(representative(k, flow.points[:m])),
        normalized_rows(representative(k, geo.points[:m])),
    )
    return TrajectoryReport(k, flow, geo, devs, float(devs.max()))


def pressure_on_sphere(H: HermitianOperator, i, j, grid=(64, 64)) -> SphereProfile:
    """Sample the pressure on a (theta, phi) grid of S_ij against omega^2 sin^2(theta) / 8.

    All grid nodes are evaluated as one stack of states.
    """
    thetas, phis, th, ph = _sphere_grid(grid)
    sphere = GeodesicSphere(H, i, j)
    states = normalized_rows(sphere.representative(th.reshape(-1, 1), ph.reshape(-1, 1)))
    numeric = 0.5 * dispersion_squared(H, states).reshape(th.shape)
    return SphereProfile(int(i), int(j), sphere.omega, thetas, phis, numeric, sphere.omega**2 * np.sin(th) ** 2 / 8.0)


def write_profile_csv(path, profile: SphereProfile):
    """Write one (theta, phi, numeric, analytic, abs_err) row per grid node, theta-major, under a fixed header.

    Every value is written as its repr. Each theta and phi node is formatted
    once, and so is each distinct double of the value columns, keyed by its
    bits (not by value, which would merge -0.0 into 0.0): the pressure
    repeats its values along every parallel. The file is rewritten in place
    by `jsonio.write_text`, which names a path that cannot be written in a
    ValueError.
    """
    phis = list(map(repr, profile.phis.tolist()))
    nodes = [f"{theta},{phi}," for theta in map(repr, profile.thetas.tolist()) for phi in phis]
    values = np.concatenate([a.ravel() for a in (profile.numeric, profile.analytic, profile.abs_err)], dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    numeric, analytic, abs_err = texts[inverse.reshape(3, -1)].tolist()
    rows = [f"{node}{a},{b},{c}\n" for node, a, b, c in zip(nodes, numeric, analytic, abs_err)]
    write_text(path, "".join(["theta,phi,numeric,analytic,abs_err\n", *rows]))
