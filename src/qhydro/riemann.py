"""Numerical Riemannian geometry on coordinate charts.

A manifold is a metric-matrix function on a chart plus a domain predicate.
Derivatives are second-order central finite differences of step FD_STEP
(the default geodesic spray: GEODESIC_FD_STEP), module constants read at
each call; every verifier returns a residual, never a boolean - thresholds
are test policy, not library semantics. Stencil points must lie inside the
chart domain; there is no extrapolation. Geodesics integrate a manifold's
geodesic spray: its closed form where the connection has one, else the
Christoffel stencil's.

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

from .jsonio import count

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

# The step of every public stencil operator, read when the operator is called.
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
    geodesic_spray : callable, optional
        The geodesic spray in closed form: an (M, 2 dim) stack of rows
        (x, u) -> the stack of rows (u, -Gamma(x)(u, u)), of the same shape,
        geodesic_integrate's RK4 right-hand side. Defaults to the spray of
        Christoffel symbols from metric differences of step
        GEODESIC_FD_STEP, resolved by each manifold when it is built and
        not stored here. It is called at the stage points of a chunk of RK4
        steps before any point of the chunk is checked, so also past the
        step where a curve leaves the chart, and again when the chunk is
        replayed (see _rk4).
    """

    dim: int
    metric: Callable
    chart_domain: Callable = None
    name: str = ""
    geodesic_spray: Callable = None

    def __post_init__(self):
        object.__setattr__(self, "_stack_metric", _lift(self.metric))
        object.__setattr__(self, "_stack_domain", None if self.chart_domain is None else _lift(self.chart_domain))
        object.__setattr__(self, "_spray", self._stencil_spray if self.geodesic_spray is None else self.geodesic_spray)

    def _stencil_spray(self, y):
        """The geodesic spray from Christoffel symbols by central differences of step GEODESIC_FD_STEP."""
        x, u = y[:, : self.dim], y[:, self.dim :]
        acc = np.einsum("mkij,mi,mj->mk", _Stencil(self, x, GEODESIC_FD_STEP).christoffel(), u, u)
        np.negative(acc, out=acc)
        return np.concatenate([u, acc], axis=1)

    def _first_outside(self, points):
        """Index of the first point of an (N, dim) stack that is not in the chart, or None.

        The domain predicate sees the points before the first non-finite one.
        """
        if points.ndim != 2 or points.shape[1] != self.dim:
            return 0
        first = len(points) if _all(np.isfinite(points)) else int(np.isfinite(points).all(axis=1).argmin())
        if self._stack_domain is not None and first:
            inside = np.asarray(self._stack_domain(points[:first]), dtype=bool)
            if not _all(inside):
                first = int(inside.argmin())
        return None if first == len(points) else first

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
            raise self._outside_error(points, outside, bases)
        checked = points if outside is None else points[:bases]
        rows = self._stack_metric(checked)
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
            raise self._outside_error(points, outside, bases)
        return g

    def _outside_error(self, points, row, bases):
        """The ChartBoundaryError for the row `row` of a stack whose first `bases` rows are base points."""
        if row < bases:
            return ChartBoundaryError(f"point {points[row]} outside chart domain of {self.name or 'manifold'}")
        return ChartBoundaryError(f"stencil point {points[row]} outside chart domain")


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
# Each stencil operator computes from one _Stencil, which its public function
# builds for the call: the base points and their stencil points in one stack,
# base rows first. A caller that needs several operators at the same points
# (qhydro verify, the pressure gradient's two routes) calls the _Stencil
# methods of one, so the metric and each field are evaluated on it once.


def _bases(x):
    """x as an (M, dim) stack of base points."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else x[None]


def _starts(x, name, dim=None):
    """x as an (M, dim) stack of finite starts; a wrong shape or a non-finite start raises ValueError, naming it."""
    xs = _bases(x)
    if xs.ndim != 2 or (dim is not None and xs.shape[1] != dim):
        expected = "(dim,) or (M, dim)" if dim is None else f"({dim},) or (M, {dim})"
        raise ValueError(f"{name} must have shape {expected}, got {np.shape(x)}")
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {xs[finite.argmin()]}")
    return xs


def _like(x, out):
    """Results per base point, without the leading axis when x is one point."""
    return out if np.ndim(x) == 2 else out[0]


def _scalar_like(x, out):
    """_like, with a Python float for one point."""
    return out if np.ndim(x) == 2 else float(out[0])


@lru_cache(maxsize=32)
def _stencil_offsets(dim, h):
    """Offsets of the central stencil, one row per (coordinate, shift +h, -h): built once per (dim, h), read-only."""
    steps = (np.array([1, -1])[None, :, None] * (h * np.eye(dim))[:, None, :]).reshape(-1, dim)
    steps.flags.writeable = False
    return steps


def _with_stencils(xs, h):
    """The base points xs, then their central stencils, one row per (base point, coordinate, shift), in one stack."""
    m, d = xs.shape
    offsets = _stencil_offsets(d, float(h))
    points = np.empty((m * (len(offsets) + 1), d))
    points[:m] = xs
    np.add(xs[:, None, :], offsets, out=points[m:].reshape(m, len(offsets), d))
    return points


def _combine(manifold, values, h):
    """[d_i fn(x)]_i per base point, shape (M, dim, ...), from fn's values on the stencil rows of _with_stencils."""
    diff = values[0::2] - values[1::2]
    diff /= 2.0 * h
    return diff.reshape(-1, manifold.dim, *values.shape[1:])


def _lower(g, u):
    """Rows g_m u_m of a metric stack and a vector stack, each summed on its own."""
    return (g * u[:, None, :]).sum(axis=2)


def _bilinear(a, g, b):
    """Rows a_m g_m b_m of two vector stacks and a metric stack, each summed on its own."""
    return (a * _lower(g, b)).sum(axis=1)


def _covector_norms(g, a):
    """Rows sqrt(a_m g_m^{-1} a_m) of a metric stack and a covector stack."""
    return np.sqrt((a * np.linalg.solve(g, a[:, :, None])[:, :, 0]).sum(axis=1))


class _Stencil:
    """One evaluation of the stack S = _with_stencils(xs, h): the base points xs, then their stencil points.

    The metric is validated on S at most once, by _metric_stack(S, m), and a
    field evaluated at most once: on S, whose first m rows are its values at the
    base points (rows are independent), or on the stencil rows alone. The first
    evaluation checks the domain of S, base rows first.
    """

    def __init__(self, manifold, x, h):
        xs = _bases(x)
        self.manifold, self.h, self.m = manifold, h, len(xs)
        self.points = _with_stencils(xs, h)
        self._g, self._values = None, {}

    def metric(self):
        """The validated metric at every row of S."""
        if self._g is None:
            self._g = self.manifold._metric_stack(self.points, self.m)
        return self._g

    def _check_domain(self):
        """Raise for the first row of S outside the chart, unless the metric or a field was evaluated on S."""
        outside = None if self._g is not None or self._values else self.manifold._first_outside(self.points)
        if outside is not None:
            raise self.manifold._outside_error(self.points, outside, self.m)

    def values(self, F):
        """The field F at every row of S."""
        if F not in self._values:
            self._check_domain()
            self._values[F] = F.stack(self.points)
        return self._values[F]

    def stencil_partials(self, F):
        """partials of F from F evaluated at the stencil rows alone, for an operator that needs no base values."""
        self._check_domain()
        return _combine(self.manifold, F.stack(self.points[self.m :]), self.h)

    def partials(self, values):
        """[d_i v]_i per base point, shape (M, dim, ...), from values v at every row of S."""
        return _combine(self.manifold, values[self.m :], self.h)

    def christoffel(self):
        g = self.metric()
        dg = self.partials(g)  # dg[m, l, i, j] = d_l g_ij
        ginv = np.linalg.inv(g[: self.m])
        # brackets[m, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
        brackets = dg + dg.transpose(0, 2, 1, 3)
        brackets -= dg.transpose(0, 2, 3, 1)
        gamma = np.einsum("mkl,mijl->mkij", ginv, brackets)
        gamma *= 0.5
        return gamma

    def covariant_derivative(self, X, Y):
        gamma = self.christoffel()
        Xx, Ys = self.values(X)[: self.m], self.values(Y)
        dY = self.partials(Ys)  # dY[m, i, k] = d_i Y^k
        return np.einsum("mi,mik->mk", Xx, dY) + np.einsum("mkij,mi,mj->mk", gamma, Xx, Ys[: self.m])

    def lie_derivative_metric(self, X):
        g = self.metric()
        Xs = self.values(X)
        dXg = self.partials(Xs) @ g[: self.m]  # d_i X^k g_kj
        out = np.einsum("mk,mkij->mij", Xs[: self.m], self.partials(g)) + dXg + dXg.transpose(0, 2, 1)
        return (out + out.transpose(0, 2, 1)) / 2.0

    def lie_derivative_oneform(self, X, alphas):
        """L_X alpha from alpha's values at every row of S."""
        da = self.partials(alphas)  # da[m, j, i] = d_j alpha_i
        Xs = self.values(X)
        return np.einsum("mj,mji->mi", Xs[: self.m], da) + np.einsum("mij,mj->mi", self.partials(Xs), alphas[: self.m])

    def flat(self, X):
        """X^flat at every row of S, from the metric and X evaluated there."""
        return _lower(self.metric(), self.values(X))

    def divergence(self, X):
        density = np.sqrt(np.linalg.det(self.metric()))
        ds = self.partials(density[:, None] * self.values(X))
        return sum(ds[:, i, i] for i in range(self.manifold.dim)) / density[: self.m]

    def euler_residual(self, X, p):
        return _lower(self.metric()[: self.m], self.covariant_derivative(X, X)) + self.partials(self.values(p))


def christoffel(manifold, x):
    """Christoffel symbols Gamma[k, i, j] of the Levi-Civita connection at x.

    Uses the coordinate formula from metric derivatives,
    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), with central
    differences of step FD_STEP. Symmetric in (i, j).
    """
    return _like(x, _Stencil(manifold, x, FD_STEP).christoffel())


def covariant_derivative(manifold, X, Y, x):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at x, from one stencil stack: the metric, X and Y once each."""
    return _like(x, _Stencil(manifold, x, FD_STEP).covariant_derivative(X, Y))


def lie_derivative_metric(manifold, X, x):
    """Killing residual matrix (L_X g)_ij at x, zero iff X generates an isometry near x; one stencil stack."""
    return _like(x, _Stencil(manifold, x, FD_STEP).lie_derivative_metric(X))


def lie_derivative_oneform(manifold, X, alpha, x):
    """(L_X alpha)_i = X^j d_j alpha_i + alpha_j d_i X^j at x, from one stencil stack: alpha and X once each."""
    S = _Stencil(manifold, x, FD_STEP)
    return _like(x, S.lie_derivative_oneform(X, S.values(alpha)))


def lie_derivative_twoform(manifold, X, w, x):
    """(L_X w)_ij = X^k d_k w_ij + w_kj d_i X^k + w_ik d_j X^k at x, from one stencil stack: w and X once each."""
    S = _Stencil(manifold, x, FD_STEP)
    ws, Xs = S.values(w), S.values(X)
    dX, wx = S.partials(Xs), ws[: S.m]
    return _like(x, np.einsum("mk,mkij->mij", Xs[: S.m], S.partials(ws)) + dX @ wx + wx @ dX.transpose(0, 2, 1))


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


def exterior_derivative_oneform(manifold, alpha, x):
    """(d alpha)_ij = d_i alpha_j - d_j alpha_i at x, as an antisymmetric matrix."""
    da = _Stencil(manifold, x, FD_STEP).stencil_partials(alpha)  # da[m, i, j] = d_i alpha_j
    return _like(x, da - da.transpose(0, 2, 1))


def divergence(manifold, X, x):
    """Riemannian divergence (1 / sqrt det g) d_i (sqrt(det g) X^i) at x, from one stencil stack: g and X once each."""
    return _scalar_like(x, _Stencil(manifold, x, FD_STEP).divergence(X))


def differential(manifold, f, x):
    """Components (df)_i of a scalar field at x by central differences of step FD_STEP, f evaluated once."""
    return _like(x, _Stencil(manifold, x, FD_STEP).stencil_partials(f))


def euler_residual(manifold, X, p, x):
    """Stationary Euler residual (nabla_X X)^flat + dp at x (zero iff satisfied), from one stencil stack."""
    return _like(x, _Stencil(manifold, x, FD_STEP).euler_residual(X, p))


def self_advection_identity_residual(manifold, Y, x):
    """Residual of L_Y Y^flat = (nabla_Y Y)^flat + 1/2 d<Y,Y>.

    The identity holds for every smooth field; the residual measures only
    the finite-difference truncation and is a self-test of the operators.
    Its right side is the Euler residual of Y with pressure 1/2 <Y, Y>.
    """
    S = _Stencil(manifold, x, FD_STEP)
    return _like(x, S.lie_derivative_oneform(Y, S.flat(Y)) - S.euler_residual(Y, kinetic_energy_field(manifold, Y)))


def kinetic_energy_field(manifold, X):
    """The pressure candidate p = 1/2 <X, X> of a Killing field."""

    def value(points):
        u = X.stack(points)
        return 0.5 * _bilinear(u, manifold._metrics_at(points), u)

    return ScalarField(StackFunction(value))


def covector_norm(manifold, alpha_value, x):
    """Intrinsic norm sqrt(a g^{-1} a) of covector components at x."""
    xs = _bases(x)
    a = np.asarray(alpha_value, dtype=float).reshape(xs.shape)
    return _scalar_like(x, _covector_norms(manifold._metrics_at(xs), a))


def vector_norm(manifold, u, x):
    """Intrinsic norm sqrt(u g u) of vector components at x."""
    xs = _bases(x)
    u = np.asarray(u, dtype=float).reshape(xs.shape)
    return _scalar_like(x, np.sqrt(_bilinear(u, manifold._metrics_at(xs), u)))


# new states per chunk of RK4 steps, which are checked together: 32 steps of one start, fewer of a
# stack, whose rows already share numpy's fixed cost per call and whose chunks would outgrow the caches
_CHUNK = 32


def _rk4(rhs, y0, T, steps, check=None):
    """Fixed-step RK4 of y' = rhs(y) over [0, T] from an (M, n) stack of starts: (times, states, exited) per row.

    `check`, if given, sees every point the integration produces once, in
    one stack per step: at step 1 the starts, then at every step the stage
    points y + dt/2 k1, y + dt/2 k2 and y + dt k3 and the new state, stage
    by stage. Taken one step at a time, a row ends early at the first step
    where rhs or `check` raises ChartBoundaryError when the row takes it
    alone; that step is not recorded, the row stays frozen, and the step is
    redone for the rest. A FloatingPointError or OverflowError is raised
    again with the step and its time.

    The steps are taken in chunks instead, of _CHUNK // M steps (at least
    one) while M rows run, under np.errstate(all="raise"), and `check` gets
    the points of the whole chunk as one stack, step by step. A chunk in
    which anything raises is replayed from its start one step at a time,
    under the caller's errstate, and that replay alone decides the exits
    and the errors; a chunk of one step is that path. So rhs may be called
    past the step where a row ends, and again on a replayed chunk, yet the
    states, exits and errors are those of steps taken one at a time, bit
    for bit. Warnings that rhs gives through the warnings module, not
    numpy's errstate, are not held back.

    rhs must return an array of the shape of the stack it is given; one of
    another shape raises ValueError, from the step whose first stage gets
    it. steps must be an integer (a numpy integer too) of at least 1, and
    T finite.
    """
    steps = count("steps", steps, 1)
    if not np.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    dt = float(T) / steps
    half, sixth = 0.5 * dt, dt / 6.0

    def step(y, n, stop):
        """The new states of steps n to stop - 1 from y, one block row each, once `check` has seen their points."""
        block = np.empty((stop - n, *y.shape))
        points = [y] if n == 1 else []
        for new in block:
            k1 = rhs(y)
            if k1.shape != y.shape:
                raise ValueError(f"rhs returned shape {k1.shape} for states of shape {y.shape}")
            y2 = y + half * k1
            k2 = rhs(y2)
            y3 = y + half * k2
            k3 = rhs(y3)
            y4 = y + dt * k3
            k4 = rhs(y4)
            # k1 + 2 k2 + 2 k3 + k4, summed in that order, in one buffer, then added to y
            incr = k1 + 2 * k2
            incr += 2 * k3
            incr += k4
            incr *= sixth
            y = np.add(y, incr, out=new)
            points += (y2, y3, y4, y)
        if check is not None:
            check(np.concatenate(points))
        return block

    def alone(row, n):
        try:
            return step(row, n, n + 1)[0]
        except ChartBoundaryError:
            return None

    states = np.empty((steps + 1, *y0.shape))
    states[0] = y = y0
    live = np.arange(len(y0))  # the rows of states that y continues
    ends = np.full(len(y0), steps + 1)
    n = 1
    while n <= steps and len(live):
        stop = min(n + max(1, _CHUNK // len(live)), steps + 1)
        if stop - n > 1:
            try:
                with np.errstate(all="raise"):
                    block = step(y, n, stop)
            except Exception:  # raised again by the replay, or work past an exit that the replay skips
                pass
            else:
                states[n:stop, live] = block
                y, n = block[-1], stop
                continue
        # a chunk of one step, or the replay of a chunk that raised
        for n in range(n, stop):
            try:
                try:
                    y = step(y, n, n + 1)[0]
                except ChartBoundaryError:
                    rows = [alone(y[r : r + 1], n) for r in range(len(y))]
                    left = [r for r, row in enumerate(rows) if row is None]
                    ends[live[left]] = n
                    live = np.delete(live, left)
                    if not len(live):
                        break
                    y = np.concatenate([row for row in rows if row is not None])
            except (FloatingPointError, OverflowError) as exc:
                where = f"in step {n} of {steps}, from t = {(n - 1) * dt:.6g}"
                raise type(exc)(f"broke down {where}: {exc}") from None
            states[n, live] = y
        n = stop
    return [(np.arange(end) * dt, states[:end, r], end <= steps) for r, end in enumerate(ends)]


def geodesic_integrate(manifold, x0, u0, T, steps):
    """Integrate the geodesic equation from (x0, u0) over [0, T].

    Classical fixed-step fourth-order Runge-Kutta on the first-order system
    (x, u)' = (u, -Gamma(x)(u, u)), whose right-hand side is the manifold's
    geodesic spray (see ChartManifold). The metric speed <u, u> is
    conserved by the exact flow; its drift in the output measures
    integration error. x0 and u0 are one start of shape (dim,) or an
    (M, dim) stack of starts, integrated as one stack; each row gives the
    curve of its one-start call. A start of another shape, an x0 and a u0
    of different row counts, or a non-finite start raises ValueError; a
    finite x0 outside the chart gives a 1-sample curve with exited=True.

    Every point of the integration is checked once, as metric_at checks a
    point: the starts, then each step's three later stage points and its
    new sample, those of a chunk of steps as one metric stack. So every
    returned sample has passed metric_at's checks. A chunk that fails is
    replayed one step at a time, and there the first offending point in
    stage order is named, and a domain error at any point of a step comes
    before a matrix error at any point. Curves, exits and errors are those
    of steps taken one at a time (see _rk4). steps must be an integer of
    at least 1, and T finite.

    Returns
    -------
    DiscreteCurve, or a list of M of them for a stack of starts
        steps+1 samples, or a shorter curve with exited=True if a stage
        point, a new sample or a point the spray differences left the
        chart domain.
    """
    d = manifold.dim
    xs, us = _starts(x0, "x0", d), _starts(u0, "u0", d)
    if len(xs) != len(us):
        raise ValueError(f"x0 and u0 must hold as many starts, got shapes {np.shape(x0)} and {np.shape(u0)}")
    y0 = np.concatenate([xs, us], axis=1)
    # the checks of metric_at at every point of the curves; the metrics are not needed
    runs = _rk4(manifold._spray, y0, T, steps, lambda points: manifold._metrics_at(points[:, :d]))
    return _like(x0, [DiscreteCurve(times, s[:, :d], s[:, d:], exited) for times, s, exited in runs])


def flow_integrate(X, x0, T, steps):
    """Integrate the autonomous flow x' = X(x) of a VectorField by fixed-step RK4.

    x0 is one start of shape (dim,) or an (M, dim) stack of starts, integrated
    as one stack; a start of another shape or a non-finite one raises
    ValueError, and so does an X whose components are not of the start's
    shape. Records X(x_t) as the velocity samples, one stack over each
    curve. A flow has no chart: a curve stops early (exited=True) only at
    a step where X raises ChartBoundaryError at a stage point. X may be
    evaluated past that step, up to the end of its chunk of steps, and
    again when the chunk is replayed (see _rk4); the curves are those of
    steps taken one at a time. steps must be an integer of at least 1, and
    T finite.

    Returns
    -------
    DiscreteCurve, or a list of M of them for a stack of starts
    """
    runs = _rk4(X.stack, _starts(x0, "x0"), T, steps)
    return _like(x0, [DiscreteCurve(times, points, X.stack(points), exited) for times, points, exited in runs])


def clairaut_check(manifold, curve, X):
    """Max drift of <curve velocity, X> along a discrete curve.

    Along a geodesic this inner product is conserved for Killing X
    (Clairaut's theorem on surfaces of revolution); the returned number is
    max_t |<u_t, X(x_t)> - <u_0, X(x_0)>|. The metric at all samples is one
    validated stack.
    """
    vals = _bilinear(curve.velocities, manifold._metrics_at(curve.points), X.stack(curve.points))
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

    Geodesics take the closed-form connection of diag(E, rho^2), E = 1 +
    rho'^2: Gamma^z_zz = rho' rho''/E, Gamma^z_phiphi = -rho rho'/E and
    Gamma^phi_zphi = rho'/rho, so z'' = -(rho' rho'' z'^2 - rho rho' phi'^2)/E
    and phi'' = -2 (rho'/rho) z' phi'. The manifold's geodesic_spray maps
    each row (z, phi, z', phi') to (z', phi', z'', phi''), on Python floats.
    rho'' is the one difference: drho at z +- GEODESIC_FD_STEP, centred. A
    row whose z +- GEODESIC_FD_STEP leaves z_domain, or where rho(z) is not
    positive, raises ChartBoundaryError before drho is called there, so a
    geodesic exits where the Christoffel stencil would. christoffel and the
    other operators keep the stencil.

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

    low, high = z_domain if z_domain is not None else (-np.inf, np.inf)
    h = GEODESIC_FD_STEP

    def geodesic_spray(y):
        entries = []
        for z, _, vz, vphi in y.tolist():
            # z +- h inside the open z_domain puts z there too; a non-finite z fails both tests
            if not (low < z - h and z + h < high):
                raise ChartBoundaryError(f"rho'' difference at z = {z} +- {h} leaves the chart domain")
            r = float(rho(z))
            if not r > 0.0:
                raise ChartBoundaryError(f"point with rho({z}) = {r} outside chart domain of surface_of_revolution")
            rp = float(drho(z))
            rpp = (float(drho(z + h)) - float(drho(z - h))) / (2.0 * h)
            zpp = -(rp * rpp * vz * vz - r * rp * vphi * vphi) / (1.0 + rp * rp)
            entries += (vz, vphi, zpp, -2.0 * (rp / r) * vz * vphi)
        return np.array(entries).reshape(len(y), 4)

    manifold = ChartManifold(2, StackFunction(metric), StackFunction(domain), "surface_of_revolution", geodesic_spray)
    killing = VectorField(StackFunction(lambda points: np.tile([0.0, 1.0], (len(points), 1))))
    pressure = ScalarField(StackFunction(lambda points: [0.5 * float(rho(z)) ** 2 for z in points[:, 0].tolist()]))
    return SurfaceOfRevolution(manifold, killing, pressure)
