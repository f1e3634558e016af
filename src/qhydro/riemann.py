"""Numerical Riemannian geometry on coordinate charts.

A manifold is a metric-matrix function on a chart plus a domain predicate.
Derivatives are central finite differences (second order, default step
1e-4); every verifier returns a residual, never a boolean - thresholds are
test policy, not library semantics. Stencil points must lie inside the
chart domain; there is no extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FD_STEP",
    "ChartBoundaryError",
    "ChartManifold",
    "VectorField",
    "OneForm",
    "TwoForm",
    "ScalarField",
    "DiscreteCurve",
    "SurfaceOfRevolution",
    "christoffel",
    "covariant_derivative",
    "lie_derivative_metric",
    "lie_derivative_oneform",
    "lie_derivative_twoform",
    "flat",
    "sharp",
    "flat_form",
    "exterior_derivative_oneform",
    "divergence",
    "differential",
    "euler_residual",
    "self_advection_identity_residual",
    "kinetic_energy_field",
    "covector_norm",
    "vector_norm",
    "geodesic_integrate",
    "flow_integrate",
    "clairaut_check",
    "surface_of_revolution",
]

FD_STEP = 1e-4
# The geodesic integrator differentiates the metric at a finer step: the
# Christoffel truncation error, not the RK4 error, dominates conserved
# quantities, and 1e-5 sits near the optimum of truncation vs round-off.
GEODESIC_FD_STEP = 1e-5


class ChartBoundaryError(ValueError):
    """A requested point (or one of its stencil points) left the chart."""


@dataclass(frozen=True)
class VectorField:
    """Contravariant components X^i as a function of the chart point."""

    components: Callable

    def __call__(self, x):
        return np.asarray(self.components(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class OneForm:
    """Covariant components alpha_i as a function of the chart point."""

    components: Callable

    def __call__(self, x):
        return np.asarray(self.components(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric coefficient matrix w_ij; antisymmetry is enforced."""

    components: Callable

    def __call__(self, x):
        w = np.asarray(self.components(np.asarray(x, dtype=float)), dtype=float)
        return (w - w.T) / 2.0


@dataclass(frozen=True)
class ScalarField:
    value: Callable

    def __call__(self, x):
        return float(self.value(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ChartManifold:
    """A Riemannian manifold presented on a single coordinate chart.

    Parameters
    ----------
    dim : int
        Number of chart coordinates.
    metric : callable
        Point -> symmetric positive-definite (dim, dim) matrix.
    chart_domain : callable, optional
        Point -> bool; defaults to the whole chart.
    name : str
        Label used in error messages.
    """

    dim: int
    metric: Callable
    chart_domain: Callable = None
    name: str = ""

    def contains(self, x) -> bool:
        return self._first_outside(np.asarray(x, dtype=float)[None]) is None

    def _first_outside(self, points):
        """Index of the first point of an (N, dim) stack that is not in the chart, or None."""
        if points.ndim != 2 or points.shape[1] != self.dim:
            return 0
        finite = np.isfinite(points).all(axis=1)
        for i, y in enumerate(points):
            if not finite[i] or (self.chart_domain is not None and not self.chart_domain(y)):
                return i
        return None

    def metric_at(self, x) -> np.ndarray:
        """Metric matrix at x, validated symmetric positive-definite."""
        return self._metric_stack(np.asarray(x, dtype=float)[None])[0]

    def _metric_stack(self, points) -> np.ndarray:
        """Metrics at a point (points[0]) and its stencil, each checked as metric_at checks one.

        Errors of the point itself come first, then the domain of every stencil
        point, then the matrix checks (shape, symmetry, Cholesky), each one
        batch over the stack in which the first offending point raises.
        """
        outside = self._first_outside(points)
        if outside == 0:
            raise ChartBoundaryError(f"point {points[0]} outside chart domain of {self.name or 'manifold'}")
        checked = points if outside is None else points[:1]
        gs = [np.asarray(self.metric(y), dtype=float) for y in checked]
        for g in gs:
            if g.shape != (self.dim, self.dim):
                raise ValueError(f"metric returned shape {g.shape}, expected {(self.dim, self.dim)}")
        g = np.array(gs)
        gt = g.transpose(0, 2, 1)
        if not (g == gt).all():  # an exactly symmetric stack passes the tolerance test
            asym = np.abs(g - gt).max(axis=(1, 2)) > 1e-9 * np.maximum(np.abs(g).max(axis=(1, 2)), 1e-300)
            if asym.any():
                raise ValueError(f"metric not symmetric at {checked[asym.argmax()]}")
        g = (g + gt) / 2.0
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            for y, gi in zip(checked, g):
                try:
                    np.linalg.cholesky(gi)
                except np.linalg.LinAlgError:
                    raise ValueError(f"metric not positive-definite at {y}") from None
        if outside is not None:
            raise ChartBoundaryError(f"stencil point {points[outside]} outside chart domain")
        return g


@dataclass(frozen=True)
class DiscreteCurve:
    """Sampled curve with velocities; `exited` marks early chart exit."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    exited: bool = False

    def __len__(self):
        return self.points.shape[0]


# order -> (shifts in units of h, their weights, denominator in units of h)
_STENCILS = {
    2: (np.array([1, -1]), (1.0, -1.0), 2.0),
    4: (np.array([2, 1, -1, -2]), (-1.0, 8.0, -8.0, 1.0), 12.0),
}


def _stencil_points(manifold, x, h, order):
    """Central stencil of x, coordinate-major: one row per (coordinate, shift)."""
    if order not in _STENCILS:
        raise ValueError(f"unsupported stencil order {order}")
    steps = _STENCILS[order][0][None, :, None] * (float(h) * np.eye(manifold.dim))[:, None, :]
    return (x + steps).reshape(-1, manifold.dim)


def _combine(values, h, order):
    """[d_i fn(x)]_i from fn's values on the rows of _stencil_points."""
    _, weights, denom = _STENCILS[order]
    values = values.reshape(-1, len(weights), *values.shape[1:])
    return sum(w * values[:, j] for j, w in enumerate(weights)) / (denom * h)


def _partials(manifold, fn, x, h, order=2):
    """[d_i fn(x)]_i by central differences; every stencil point must be in-chart."""
    points = _stencil_points(manifold, np.asarray(x, dtype=float), h, order)
    outside = manifold._first_outside(points)
    if outside is not None:
        raise ChartBoundaryError(f"stencil point {points[outside]} outside chart domain")
    return _combine(np.stack([np.asarray(fn(y), dtype=float) for y in points]), h, order)


def _metric_partials(manifold, x, h):
    """(g(x), dg) with dg[l] = d_l g(x), from one validated metric stack."""
    x = np.asarray(x, dtype=float)
    g = manifold._metric_stack(np.concatenate([x[None], _stencil_points(manifold, x, h, 2)]))
    return g[0], _combine(g[1:], h, 2)


def christoffel(manifold, x, h=FD_STEP):
    """Christoffel symbols Gamma[k, i, j] of the Levi-Civita connection at x.

    Uses the coordinate formula from metric derivatives,
    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), with central
    differences of step h. Symmetric in (i, j).
    """
    g, dg = _metric_partials(manifold, x, h)  # dg[l, i, j] = d_l g_ij
    ginv = np.linalg.inv(g)
    # brackets[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    brackets = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, brackets)


def covariant_derivative(manifold, X, Y, x, h=FD_STEP):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at x."""
    Xx, Yx = X(x), Y(x)
    dY = _partials(manifold, Y, x, h)  # dY[i, k] = d_i Y^k
    gamma = christoffel(manifold, x, h)
    return Xx @ dY + np.einsum("kij,i,j->k", gamma, Xx, Yx)


def lie_derivative_metric(manifold, X, x, h=FD_STEP):
    """Killing residual matrix (L_X g)_ij; zero iff X generates an isometry near x."""
    g, dg = _metric_partials(manifold, x, h)
    dX = _partials(manifold, X, x, h)  # dX[i, k] = d_i X^k
    out = np.einsum("k,kij->ij", X(x), dg) + dX @ g + (dX @ g).T
    return (out + out.T) / 2.0


def lie_derivative_oneform(manifold, X, alpha, x, h=FD_STEP):
    """(L_X alpha)_i = X^j d_j alpha_i + alpha_j d_i X^j at x."""
    da = _partials(manifold, alpha, x, h)  # da[j, i] = d_j alpha_i
    dX = _partials(manifold, X, x, h)
    return X(x) @ da + dX @ alpha(x)


def lie_derivative_twoform(manifold, X, w, x, h=FD_STEP):
    """(L_X w)_ij = X^k d_k w_ij + w_kj d_i X^k + w_ik d_j X^k at x."""
    dw = _partials(manifold, w, x, h)  # dw[k, i, j]
    dX = _partials(manifold, X, x, h)
    wx = w(x)
    return np.einsum("k,kij->ij", X(x), dw) + dX @ wx + wx @ dX.T


def flat(manifold, X, x):
    """Index lowering: components of X^flat = g(X, .) at x."""
    return manifold.metric_at(x) @ X(x)


def sharp(manifold, alpha, x):
    """Index raising: components of alpha^sharp = g^{-1} alpha at x."""
    return np.linalg.solve(manifold.metric_at(x), alpha(x))


def flat_form(manifold, X):
    """X^flat as a OneForm (for feeding derivative operators)."""
    return OneForm(lambda y: manifold.metric_at(y) @ X(y))


def exterior_derivative_oneform(manifold, alpha, x, h=FD_STEP):
    """(d alpha)_ij = d_i alpha_j - d_j alpha_i at x, as an antisymmetric matrix."""
    da = _partials(manifold, alpha, x, h)  # da[i, j] = d_i alpha_j
    return da - da.T


def divergence(manifold, X, x, h=FD_STEP):
    """Riemannian divergence (1 / sqrt det g) d_i (sqrt(det g) X^i) at x."""
    x = np.asarray(x, dtype=float)
    points = np.concatenate([x[None], _stencil_points(manifold, x, h, 2)])
    density = np.sqrt(np.linalg.det(manifold._metric_stack(points)))
    ds = _combine(np.stack([d * X(y) for d, y in zip(density[1:], points[1:])]), h, 2)
    return float(sum(ds[i][i] for i in range(manifold.dim)) / density[0])


def differential(manifold, f, x, h=FD_STEP, order=2):
    """Components (df)_i of a scalar field at x.

    order 2 is the default central stencil; order 4 uses the five-point
    stencil when the caller needs gradient residuals well below h^2 scale.
    """
    return _partials(manifold, f, x, h, order)


def euler_residual(manifold, X, p, x, h=FD_STEP):
    """Stationary Euler residual (nabla_X X)^flat + dp at x (zero iff satisfied)."""
    acc = covariant_derivative(manifold, X, X, x, h)
    return manifold.metric_at(x) @ acc + differential(manifold, p, x, h)


def self_advection_identity_residual(manifold, Y, x, h=FD_STEP):
    """Residual of L_Y Y^flat = (nabla_Y Y)^flat + 1/2 d<Y,Y>.

    The identity holds for every smooth field; the residual measures only
    the finite-difference truncation and is a self-test of the operators.
    """
    lhs = lie_derivative_oneform(manifold, Y, flat_form(manifold, Y), x, h)
    rhs = manifold.metric_at(x) @ covariant_derivative(manifold, Y, Y, x, h)
    kinetic = ScalarField(lambda y: float(Y(y) @ manifold.metric_at(y) @ Y(y)))
    rhs = rhs + 0.5 * differential(manifold, kinetic, x, h)
    return lhs - rhs


def kinetic_energy_field(manifold, X):
    """The pressure candidate p = 1/2 <X, X> of a Killing field."""
    return ScalarField(lambda y: 0.5 * float(X(y) @ manifold.metric_at(y) @ X(y)))


def covector_norm(manifold, alpha_value, x):
    """Intrinsic norm sqrt(a g^{-1} a) of covector components at x."""
    a = np.asarray(alpha_value, dtype=float)
    return float(np.sqrt(a @ np.linalg.solve(manifold.metric_at(x), a)))


def vector_norm(manifold, u, x):
    """Intrinsic norm sqrt(u g u) of vector components at x."""
    u = np.asarray(u, dtype=float)
    return float(np.sqrt(u @ manifold.metric_at(x) @ u))


def _rk4(rhs, y0, T, steps, domain):
    """Classical fixed-step RK4 of y' = rhs(y) over [0, T]: (times, states, exited).

    A stage raising ChartBoundaryError, or a new state failing `domain`, ends the run early; that step is not recorded.
    """
    y, dt = y0, float(T) / int(steps)
    states = [y]
    for _ in range(int(steps)):
        try:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
        except ChartBoundaryError:
            break
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if domain is not None and not domain(y):
            break
        states.append(y)
    return np.arange(len(states)) * dt, np.array(states), len(states) <= int(steps)


def geodesic_integrate(manifold, x0, u0, T, steps, fd_step=GEODESIC_FD_STEP):
    """Integrate the geodesic equation from (x0, u0) over [0, T].

    Classical fixed-step fourth-order Runge-Kutta on the first-order system
    (x, u)' = (u, -Gamma(x)(u, u)). The metric speed <u, u> is conserved by
    the exact flow; its drift in the output measures integration error.

    Returns
    -------
    DiscreteCurve
        steps+1 samples, or a shorter curve with exited=True if a stage
        point (or its Christoffel stencil) left the chart domain.
    """
    d = manifold.dim

    def rhs(y):
        gamma = christoffel(manifold, y[:d], fd_step)
        return np.concatenate([y[d:], -np.einsum("kij,i,j->k", gamma, y[d:], y[d:])])

    y0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)])
    times, states, exited = _rk4(rhs, y0, T, steps, lambda y: manifold.contains(y[:d]))
    return DiscreteCurve(times, states[:, :d], states[:, d:], exited)


def flow_integrate(X, x0, T, steps, domain=None):
    """Integrate an autonomous flow x' = X(x) by fixed-step RK4.

    Records X(x_t) as the velocity samples; stops early (exited=True) if the
    optional domain predicate fails or a stage leaves the chart.
    """
    field = lambda x: np.asarray(X(x), dtype=float)  # noqa: E731
    times, points, exited = _rk4(field, np.asarray(x0, dtype=float), T, steps, domain)
    return DiscreteCurve(times, points, np.array([field(x) for x in points]), exited)


def clairaut_check(manifold, curve, X):
    """Max drift of <curve velocity, X> along a discrete curve.

    Along a geodesic this inner product is conserved for Killing X
    (Clairaut's theorem on surfaces of revolution); the returned number is
    max_t |<u_t, X(x_t)> - <u_0, X(x_0)>|.
    """
    vals = np.array([
        float(u @ manifold.metric_at(x) @ X(x))
        for x, u in zip(curve.points, curve.velocities)
    ])
    return float(np.abs(vals - vals[0]).max())


@dataclass(frozen=True)
class SurfaceOfRevolution:
    """Surface of revolution in (z, phi) coordinates with its symmetry data."""

    manifold: ChartManifold
    killing_field: VectorField = field(repr=False)
    pressure: ScalarField = field(repr=False)


def surface_of_revolution(rho, drho, z_domain=None):
    """Build the surface of revolution of a profile rho(z) > 0.

    The chart is (z, phi) with metric diag(1 + rho'(z)^2, rho(z)^2). The
    rotation field d/dphi is Killing, with pressure 1/2 rho^2; its critical
    parallels sit at rho' = 0.

    Parameters
    ----------
    rho, drho : callable
        Profile radius and its derivative as functions of z.
    z_domain : (float, float), optional
        Open z-interval of the chart; default unrestricted.
    """

    def metric(x):
        r = float(rho(x[0]))
        if r <= 0.0:
            raise ValueError(f"profile radius must be positive, got rho({x[0]}) = {r}")
        rp = float(drho(x[0]))
        return np.array([[1.0 + rp * rp, 0.0], [0.0, r * r]])

    def domain(x):
        if z_domain is not None and not (z_domain[0] < x[0] < z_domain[1]):
            return False
        return float(rho(x[0])) > 0.0

    manifold = ChartManifold(2, metric, domain, name="surface_of_revolution")
    killing = VectorField(lambda x: np.array([0.0, 1.0]))
    pressure = ScalarField(lambda x: 0.5 * float(rho(x[0])) ** 2)
    return SurfaceOfRevolution(manifold, killing, pressure)
