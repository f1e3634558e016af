"""Numerical Riemannian geometry on coordinate charts.

A manifold is a metric-matrix function on a chart plus a domain predicate.
Derivatives are central finite differences (second order, default step
1e-4); every verifier returns a residual, never a boolean - thresholds are
test policy, not library semantics. Stencil points must lie inside the
chart domain; there is no extrapolation.

Metrics, domains and fields are evaluated on whole (N, dim) stacks of
points: a stencil, a curve. A callable given per point is lifted to stacks
once, when the manifold or field is built; one wrapped in StackFunction is
used as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "FD_STEP",
    "ChartBoundaryError",
    "ChartManifold",
    "StackFunction",
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


def _all(mask):
    """mask.all() for a boolean array, without the fixed cost of a ufunc reduction (it dominates on a stencil)."""
    return np.count_nonzero(mask) == mask.size


class ChartBoundaryError(ValueError):
    """A requested point (or one of its stencil points) left the chart."""


class StackFunction:
    """A function of an (N, dim) stack of points with one result row per point.

    Wrap a stack-native callable in it to build a ChartManifold metric or
    domain, or a field; a bare callable is taken as a function of one point.
    Called on one point it evaluates the one-row stack, so a point alone and
    the same point in a stack go through the same arithmetic.
    """

    __slots__ = ("stack",)

    def __init__(self, stack):
        self.stack = stack

    def __call__(self, x):
        return self.stack(np.asarray(x, dtype=float)[None])[0]


def _lift(fn):
    """fn as a function of an (N, dim) stack: a StackFunction's own, else fn row by row."""
    if isinstance(fn, StackFunction):
        return fn.stack
    return lambda points: [fn(y) for y in points]


class _Field:
    """Evaluation shared by the field types: their one callable is lifted to stacks once, when the field is built."""

    def __post_init__(self):
        object.__setattr__(self, "_rows", _lift(getattr(self, fields(self)[0].name)))

    def __call__(self, x):
        return self.stack(np.asarray(x, dtype=float)[None])[0]

    def stack(self, points):
        """Values at each row of an (N, dim) stack of points, one leading row per point."""
        return np.asarray(self._rows(points), dtype=float)


@dataclass(frozen=True)
class VectorField(_Field):
    """Contravariant components X^i as a function of the chart point."""

    components: Callable


@dataclass(frozen=True)
class OneForm(_Field):
    """Covariant components alpha_i as a function of the chart point."""

    components: Callable


@dataclass(frozen=True)
class TwoForm(_Field):
    """Antisymmetric coefficient matrix w_ij; antisymmetry is enforced."""

    components: Callable

    def stack(self, points):
        w = super().stack(points)
        return (w - w.transpose(0, 2, 1)) / 2.0


@dataclass(frozen=True)
class ScalarField(_Field):
    value: Callable

    def __call__(self, x):
        return float(super().__call__(x))

    def stack(self, points):
        return super().stack(points).reshape(len(points))


@dataclass(frozen=True)
class ChartManifold:
    """A Riemannian manifold presented on a single coordinate chart.

    Parameters
    ----------
    dim : int
        Number of chart coordinates.
    metric : callable
        Point -> symmetric positive-definite (dim, dim) matrix, or a
        StackFunction from an (N, dim) stack to (N, dim, dim).
    chart_domain : callable, optional
        Point -> bool, or a StackFunction from a stack to N booleans;
        defaults to the whole chart.
    name : str
        Label used in error messages.
    """

    dim: int
    metric: Callable
    chart_domain: Callable = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_metric_rows", _lift(self.metric))
        object.__setattr__(self, "_domain_rows", None if self.chart_domain is None else _lift(self.chart_domain))

    def contains(self, x) -> bool:
        return self._first_outside(np.asarray(x, dtype=float)[None]) is None

    def _first_outside(self, points):
        """Index of the first point of an (N, dim) stack that is not in the chart, or None.

        The domain predicate sees the points before the first non-finite one.
        """
        if points.ndim != 2 or points.shape[1] != self.dim:
            return 0
        first = len(points) if _all(np.isfinite(points)) else int(np.isfinite(points).all(axis=1).argmin())
        if self._domain_rows is not None and first:
            inside = np.asarray(self._domain_rows(points[:first]), dtype=bool)
            if not _all(inside):
                first = int(inside.argmin())
        return None if first == len(points) else first

    def _rows_outside(self, points):
        """Indices of the rows of an (N, dim) stack of points not in the chart, each row tested as contains tests it."""
        if self._first_outside(points) is None:
            return []
        return [r for r, y in enumerate(points) if self._first_outside(y[None]) is not None]

    def metric_at(self, x) -> np.ndarray:
        """Metric matrix at x (one per row of an (N, dim) stack), validated symmetric positive-definite."""
        # a copy: _metric_stack may hand back the metric function's own array
        return _like(x, self._metrics_at(_bases(x)).copy())

    def _metrics_at(self, points) -> np.ndarray:
        """metric_at at every row of an (N, dim) stack, checked as one batch."""
        return self._metric_stack(points, len(points))

    def _metric_stack(self, points, bases) -> np.ndarray:
        """Metrics at an (N, dim) stack, each point checked as metric_at checks one.

        The first `bases` rows are points in their own right (base points, or
        every row of a curve); the rest are their stencil points. Errors of the
        base points come first, then the domain of every stencil point, then
        the matrix checks (shape, symmetry, Cholesky), each one batch over the
        stack in which the first offending point raises.
        """
        outside = self._first_outside(points)
        if outside is not None and outside < bases:
            raise ChartBoundaryError(f"point {points[outside]} outside chart domain of {self.name or 'manifold'}")
        checked = points if outside is None else points[:bases]
        rows = self._metric_rows(checked)
        try:
            g = np.ascontiguousarray(rows, dtype=float)
            shaped = g.shape == (len(checked), self.dim, self.dim)
        except ValueError:  # rows of different shapes
            shaped = False
        if not shaped:
            shape = next((np.shape(r) for r in rows if np.shape(r) != (self.dim, self.dim)), np.shape(rows))
            raise ValueError(f"metric returned shape {shape}, expected {(self.dim, self.dim)}")
        gt = g.transpose(0, 2, 1)
        # a stack symmetric bit for bit (signed zeros included) is its own (g + g^T) / 2
        if g.tobytes() != gt.tobytes():
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


# The operators below take one point x of shape (dim,) or a stack of base
# points of shape (M, dim), and then return one result per base point along a
# new leading axis. One point is the one-row stack: it runs the same code.


def _bases(x):
    """x as an (M, dim) stack of base points."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else x[None]


def _like(x, out):
    """Results per base point, without the leading axis when x is one point."""
    return out if np.ndim(x) == 2 else out[0]


def _scalar_like(x, out):
    """_like, with a Python float for one point."""
    return out if np.ndim(x) == 2 else float(out[0])


# order -> (shifts in units of h, their weights, denominator in units of h)
_STENCILS = {
    2: (np.array([1, -1]), (1.0, -1.0), 2.0),
    4: (np.array([2, 1, -1, -2]), (-1.0, 8.0, -8.0, 1.0), 12.0),
}


@lru_cache(maxsize=32)
def _stencil_offsets(dim, h, order):
    """Offsets of a central stencil, one row per (coordinate, shift): built once per (dim, h, order), read-only."""
    steps = (_STENCILS[order][0][None, :, None] * (h * np.eye(dim))[:, None, :]).reshape(-1, dim)
    steps.flags.writeable = False
    return steps


def _stencil_points(manifold, xs, h, order):
    """Central stencils of the base points xs: one row per (base point, coordinate, shift)."""
    if order not in _STENCILS:
        raise ValueError(f"unsupported stencil order {order}")
    return (xs[:, None, :] + _stencil_offsets(manifold.dim, float(h), order)).reshape(-1, manifold.dim)


def _with_stencils(xs, h):
    """The base points xs, then the rows of their order-2 _stencil_points, filled into one stack."""
    m, d = xs.shape
    points = np.empty((m * (2 * d + 1), d))
    points[:m] = xs
    np.add(xs[:, None, :], _stencil_offsets(d, float(h), 2), out=points[m:].reshape(m, 2 * d, d))
    return points


def _combine(manifold, values, h, order):
    """[d_i fn(x)]_i per base point, shape (M, dim, ...), from fn's values on the rows of _stencil_points."""
    _, weights, denom = _STENCILS[order]
    if order == 2:
        # rounds as the weighted sum below does, zeros included: that sum starts at int 0, and 0 + (-0.0) is +0.0
        diff = values[0::2] + 0.0
        diff -= values[1::2]
        diff /= denom * h
        return diff.reshape(-1, manifold.dim, *values.shape[1:])
    values = values.reshape(-1, manifold.dim, len(weights), *values.shape[1:])
    return sum(w * values[:, :, j] for j, w in enumerate(weights)) / (denom * h)


def _partials(manifold, fn, xs, h, order=2):
    """[d_i fn(x)]_i per base point by central differences; every stencil point must be in-chart."""
    points = _stencil_points(manifold, xs, h, order)
    outside = manifold._first_outside(points)
    if outside is not None:
        raise ChartBoundaryError(f"stencil point {points[outside]} outside chart domain")
    return _combine(manifold, fn.stack(points), h, order)


def _metric_partials(manifold, xs, h):
    """(g, dg) per base point, dg[m, l] = d_l g(x_m), from one validated metric stack."""
    m = len(xs)
    g = manifold._metric_stack(_with_stencils(xs, h), m)
    return g[:m], _combine(manifold, g[m:], h, 2)


def _lower(g, u):
    """Rows g_m u_m of a metric stack and a vector stack, each summed on its own."""
    return (g * u[:, None, :]).sum(axis=2)


def _squared_norms(g, u):
    """Rows u_m g_m u_m of a metric stack and a vector stack."""
    return (u * _lower(g, u)).sum(axis=1)


def _christoffels(manifold, xs, h):
    """christoffel at every row of an (M, dim) stack of base points: Gamma, (M, dim, dim, dim)."""
    g, dg = _metric_partials(manifold, xs, h)  # dg[m, l, i, j] = d_l g_ij
    ginv = np.linalg.inv(g)
    # brackets[m, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    brackets = dg + dg.transpose(0, 2, 1, 3)
    brackets -= dg.transpose(0, 2, 3, 1)
    gamma = np.einsum("mkl,mijl->mkij", ginv, brackets)
    gamma *= 0.5
    return gamma


def christoffel(manifold, x, h=FD_STEP):
    """Christoffel symbols Gamma[k, i, j] of the Levi-Civita connection at x.

    Uses the coordinate formula from metric derivatives,
    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), with central
    differences of step h. Symmetric in (i, j).
    """
    return _like(x, _christoffels(manifold, _bases(x), h))


def covariant_derivative(manifold, X, Y, x, h=FD_STEP):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at x."""
    xs = _bases(x)
    Xx, Yx = X.stack(xs), Y.stack(xs)
    dY = _partials(manifold, Y, xs, h)  # dY[m, i, k] = d_i Y^k
    gamma = christoffel(manifold, xs, h)
    return _like(x, np.einsum("mi,mik->mk", Xx, dY) + np.einsum("mkij,mi,mj->mk", gamma, Xx, Yx))


def lie_derivative_metric(manifold, X, x, h=FD_STEP):
    """Killing residual matrix (L_X g)_ij; zero iff X generates an isometry near x."""
    xs = _bases(x)
    g, dg = _metric_partials(manifold, xs, h)
    dXg = _partials(manifold, X, xs, h) @ g  # d_i X^k g_kj
    out = np.einsum("mk,mkij->mij", X.stack(xs), dg) + dXg + dXg.transpose(0, 2, 1)
    return _like(x, (out + out.transpose(0, 2, 1)) / 2.0)


def lie_derivative_oneform(manifold, X, alpha, x, h=FD_STEP):
    """(L_X alpha)_i = X^j d_j alpha_i + alpha_j d_i X^j at x."""
    xs = _bases(x)
    da = _partials(manifold, alpha, xs, h)  # da[m, j, i] = d_j alpha_i
    dX = _partials(manifold, X, xs, h)
    return _like(x, np.einsum("mj,mji->mi", X.stack(xs), da) + np.einsum("mij,mj->mi", dX, alpha.stack(xs)))


def lie_derivative_twoform(manifold, X, w, x, h=FD_STEP):
    """(L_X w)_ij = X^k d_k w_ij + w_kj d_i X^k + w_ik d_j X^k at x."""
    xs = _bases(x)
    dw = _partials(manifold, w, xs, h)  # dw[m, k, i, j]
    dX = _partials(manifold, X, xs, h)
    wx = w.stack(xs)
    return _like(x, np.einsum("mk,mkij->mij", X.stack(xs), dw) + dX @ wx + wx @ dX.transpose(0, 2, 1))


def flat(manifold, X, x):
    """Index lowering: components of X^flat = g(X, .) at x."""
    return _like(x, flat_form(manifold, X).stack(_bases(x)))


def sharp(manifold, alpha, x):
    """Index raising: components of alpha^sharp = g^{-1} alpha at x."""
    xs = _bases(x)
    return _like(x, np.linalg.solve(manifold._metrics_at(xs), alpha.stack(xs)[:, :, None])[:, :, 0])


def flat_form(manifold, X):
    """X^flat as a OneForm (for feeding derivative operators)."""
    return OneForm(StackFunction(lambda points: _lower(manifold._metrics_at(points), X.stack(points))))


def exterior_derivative_oneform(manifold, alpha, x, h=FD_STEP):
    """(d alpha)_ij = d_i alpha_j - d_j alpha_i at x, as an antisymmetric matrix."""
    da = _partials(manifold, alpha, _bases(x), h)  # da[m, i, j] = d_i alpha_j
    return _like(x, da - da.transpose(0, 2, 1))


def divergence(manifold, X, x, h=FD_STEP):
    """Riemannian divergence (1 / sqrt det g) d_i (sqrt(det g) X^i) at x."""
    xs = _bases(x)
    m = len(xs)
    points = _with_stencils(xs, h)
    density = np.sqrt(np.linalg.det(manifold._metric_stack(points, m)))
    ds = _combine(manifold, density[m:, None] * X.stack(points[m:]), h, 2)
    return _scalar_like(x, sum(ds[:, i, i] for i in range(manifold.dim)) / density[:m])


def differential(manifold, f, x, h=FD_STEP, order=2):
    """Components (df)_i of a scalar field at x.

    order 2 is the default central stencil; order 4 uses the five-point
    stencil when the caller needs gradient residuals well below h^2 scale.
    """
    return _like(x, _partials(manifold, f, _bases(x), h, order))


def euler_residual(manifold, X, p, x, h=FD_STEP):
    """Stationary Euler residual (nabla_X X)^flat + dp at x (zero iff satisfied)."""
    xs = _bases(x)
    acc = _lower(manifold._metrics_at(xs), covariant_derivative(manifold, X, X, xs, h))
    return _like(x, acc + differential(manifold, p, xs, h))


def self_advection_identity_residual(manifold, Y, x, h=FD_STEP):
    """Residual of L_Y Y^flat = (nabla_Y Y)^flat + 1/2 d<Y,Y>.

    The identity holds for every smooth field; the residual measures only
    the finite-difference truncation and is a self-test of the operators.
    """
    xs = _bases(x)
    lhs = lie_derivative_oneform(manifold, Y, flat_form(manifold, Y), xs, h)
    rhs = _lower(manifold._metrics_at(xs), covariant_derivative(manifold, Y, Y, xs, h))
    kinetic = ScalarField(StackFunction(lambda points: _squared_norms(manifold._metrics_at(points), Y.stack(points))))
    rhs = rhs + 0.5 * differential(manifold, kinetic, xs, h)
    return _like(x, lhs - rhs)


def kinetic_energy_field(manifold, X):
    """The pressure candidate p = 1/2 <X, X> of a Killing field."""
    return ScalarField(StackFunction(lambda points: 0.5 * _squared_norms(manifold._metrics_at(points), X.stack(points))))


def covector_norm(manifold, alpha_value, x):
    """Intrinsic norm sqrt(a g^{-1} a) of covector components at x."""
    xs = _bases(x)
    a = np.asarray(alpha_value, dtype=float).reshape(xs.shape)
    raised = np.linalg.solve(manifold._metrics_at(xs), a[:, :, None])[:, :, 0]
    return _scalar_like(x, np.sqrt((a * raised).sum(axis=1)))


def _bilinear_rows(a, g, b):
    """a[n] @ g[n] @ b[n] for each row n of the stacks a, g and b.

    Row by row, as 1-d products: the stacked product (matmul or einsum over
    the stack) rounds differently, and reported residuals and exported
    grids are pinned to these bits.
    """
    return np.array([an @ gn @ bn for an, gn, bn in zip(a, g, b)])


def vector_norm(manifold, u, x):
    """Intrinsic norm sqrt(u g u) of vector components at x."""
    xs = _bases(x)
    u = np.asarray(u, dtype=float).reshape(xs.shape)
    return _scalar_like(x, np.sqrt(_bilinear_rows(u, manifold._metrics_at(xs), u)))


def _rk4(rhs, y0, T, steps, rows_outside=None):
    """Fixed-step RK4 of y' = rhs(y) over [0, T] from an (M, n) stack of starts: (times, states, exited) per row.

    A row ends early at the first step that raises ChartBoundaryError when the
    row takes it alone, or whose new state `rows_outside` names; that step is
    not recorded, the row stays frozen, and the step is redone for the rest.
    A FloatingPointError or OverflowError is raised again with the step and its time.
    """
    steps = int(steps)
    dt = float(T) / steps
    half, sixth = 0.5 * dt, dt / 6.0

    def increment(y):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + dt * k3)
        # k1 + 2 k2 + 2 k3 + k4, summed in that order, in one buffer
        incr = k1 + 2 * k2
        incr += 2 * k3
        incr += k4
        incr *= sixth
        return incr

    def alone(row):
        try:
            return increment(row)
        except ChartBoundaryError:
            return None

    def leave(y, live, left, n):
        """y and live without the rows `left` (indices into y), which end at step n."""
        ends[live[left]] = n
        return np.delete(y, left, axis=0), np.delete(live, left)

    states = np.empty((steps + 1, *y0.shape))
    states[0] = y = y0
    live = np.arange(len(y0))  # the rows of states that y continues
    ends = np.full(len(y0), steps + 1)
    for n in range(1, steps + 1):
        try:
            try:
                incr = increment(y)
            except ChartBoundaryError:
                rows = [alone(y[r : r + 1]) for r in range(len(y))]
                y, live = leave(y, live, [r for r, row in enumerate(rows) if row is None], n)
                if not len(live):
                    break
                incr = np.concatenate([row for row in rows if row is not None])
            y = y + incr
        except (FloatingPointError, OverflowError) as exc:
            where = f"in step {n} of {steps}, from t = {(n - 1) * dt:.6g}"
            raise type(exc)(f"broke down {where}: {exc}") from None
        left = [] if rows_outside is None else rows_outside(y)
        if left:
            y, live = leave(y, live, left, n)
            if not len(live):
                break
        states[n, live] = y
    return [(np.arange(end) * dt, states[:end, r], end <= steps) for r, end in enumerate(ends)]


def geodesic_integrate(manifold, x0, u0, T, steps, fd_step=GEODESIC_FD_STEP):
    """Integrate the geodesic equation from (x0, u0) over [0, T].

    Classical fixed-step fourth-order Runge-Kutta on the first-order system
    (x, u)' = (u, -Gamma(x)(u, u)). The metric speed <u, u> is conserved by
    the exact flow; its drift in the output measures integration error.
    x0 and u0 are one start of shape (dim,) or an (M, dim) stack of starts,
    integrated as one stack; each row gives the curve of its one-start call.

    Returns
    -------
    DiscreteCurve, or a list of M of them for a stack of starts
        steps+1 samples, or a shorter curve with exited=True if a stage
        point (or its Christoffel stencil) left the chart domain.
    """
    d = manifold.dim

    def rhs(y):
        u = y[:, d:]
        acc = np.einsum("mkij,mi,mj->mk", _christoffels(manifold, y[:, :d], fd_step), u, u)
        return np.concatenate([u, np.negative(acc, out=acc)], axis=1)

    y0 = np.concatenate([_bases(x0), _bases(u0)], axis=1)
    runs = _rk4(rhs, y0, T, steps, lambda y: manifold._rows_outside(y[:, :d]))
    return _like(x0, [DiscreteCurve(times, s[:, :d], s[:, d:], exited) for times, s, exited in runs])


def flow_integrate(X, x0, T, steps):
    """Integrate the autonomous flow x' = X(x) of a VectorField by fixed-step RK4.

    x0 is one start of shape (dim,) or an (M, dim) stack of starts, integrated
    as one stack. Records X(x_t) as the velocity samples, one stack over each
    curve; a curve stops early (exited=True) if a stage leaves the chart.

    Returns
    -------
    DiscreteCurve, or a list of M of them for a stack of starts
    """
    runs = _rk4(X.stack, _bases(x0), T, steps)
    return _like(x0, [DiscreteCurve(times, points, X.stack(points), exited) for times, points, exited in runs])


def clairaut_check(manifold, curve, X):
    """Max drift of <curve velocity, X> along a discrete curve.

    Along a geodesic this inner product is conserved for Killing X
    (Clairaut's theorem on surfaces of revolution); the returned number is
    max_t |<u_t, X(x_t)> - <u_0, X(x_0)>|. The metric at all samples is one
    validated stack.
    """
    vals = _bilinear_rows(curve.velocities, manifold._metrics_at(curve.points), X.stack(curve.points))
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
    parallels sit at rho' = 0. The metric and the domain are evaluated on
    stacks of points, with z as a Python float: rho once per point of a
    stack (the metric reuses the radii the domain computed for the same
    stack) and drho once per point.

    Parameters
    ----------
    rho, drho : callable
        Profile radius and its derivative as functions of z.
    z_domain : (float, float), optional
        Open z-interval of the chart; default unrestricted. rho is called
        only inside it.
    """
    # (bytes of the z column, rho of each z) of the stack the domain last saw whole:
    # one tuple, replaced at once, so a concurrent call sees a matching pair or none
    radii = (None, None)

    def metric(points):
        key, rs = radii
        zs = points[:, 0].tolist()
        if key != points[:, 0].tobytes():
            rs = map(rho, zs)  # lazily, so each rho(z) comes before its drho(z), as without the shared radii
        entries = []
        for z, r in zip(zs, rs):
            r = float(r)
            if r <= 0.0:
                raise ValueError(f"profile radius must be positive, got rho({z}) = {r}")
            rp = float(drho(z))
            entries += (1.0 + rp * rp, 0.0, 0.0, r * r)
        return np.array(entries).reshape(len(points), 2, 2)

    def domain(points):
        nonlocal radii
        zs = points[:, 0].tolist()
        if z_domain is not None and not all(z_domain[0] < z < z_domain[1] for z in zs):
            return [z_domain[0] < z < z_domain[1] and float(rho(z)) > 0.0 for z in zs]
        rs = [float(rho(z)) for z in zs]
        radii = (points[:, 0].tobytes(), rs)
        return [r > 0.0 for r in rs]

    manifold = ChartManifold(2, StackFunction(metric), StackFunction(domain), name="surface_of_revolution")
    killing = VectorField(lambda x: np.array([0.0, 1.0]))
    pressure = ScalarField(lambda x: 0.5 * float(rho(x[0])) ** 2)
    return SurfaceOfRevolution(manifold, killing, pressure)
