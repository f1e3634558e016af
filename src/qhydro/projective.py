"""Complex projective space as a concrete chart manifold.

Affine chart k of P(C^(n+1)) uses inhomogeneous coordinates
zeta_a = z_a / z_k (a != k), realified by interleaving (Re, Im). The metric
is normalized so that the squared length of the generator of the Schrodinger
flow equals the variance of the Hamiltonian; under this convention the
projective line is a round sphere of radius 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import HermitianOperator, StateVector
from .riemann import ChartManifold, StackFunction, VectorField

__all__ = [
    "ProjectivePoint",
    "AffineChart",
    "TangentAtPoint",
    "GeodesicSphere",
    "chart_slots",
    "representative",
    "chart_of",
    "fubini_study_metric",
    "chart_manifold",
    "fundamental_field",
    "fundamental_field_at",
    "horizontal_lift",
    "project_tangent",
    "dispersion_via_metric",
    "fubini_study_distance",
    "geodesic_sphere",
]


def chart_slots(dim, k):
    """Ambient indices carrying chart coordinates (all but the pivot k)."""
    return [a for a in range(dim) if a != k]


def _interleave(zeta):
    out = np.empty(zeta.shape[:-1] + (2 * zeta.shape[-1],))
    out[..., 0::2] = zeta.real
    out[..., 1::2] = zeta.imag
    return out


def _complexify(xy):
    return xy[..., 0::2] + 1j * xy[..., 1::2]


def _rows(chart):
    """A chart's coordinates as an (N, 2n) stack; one point is the one-row stack."""
    return chart.coords.reshape(-1, chart.coords.shape[-1])


def _shaped(chart, rows):
    """Per-point results of _rows(chart), shaped back like the chart (one point: no leading axis)."""
    return rows.reshape(chart.coords.shape[:-1] + rows.shape[1:])


@dataclass(frozen=True)
class AffineChart:
    """A point of projective space in affine chart coordinates, or a stack of points of one chart.

    coords holds the realified inhomogeneous coordinates, interleaved as
    (Re zeta_1, Im zeta_1, ...) over the non-pivot ambient slots in
    ascending order: a flat (2n,) array for one point, (N, 2n) for N points.
    """

    chart_index: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim not in (1, 2) or coords.shape[-1] % 2 != 0 or coords.shape[-1] == 0:
            raise ValueError(f"chart coords must be a flat (2n,) array or an (N, 2n) stack, got shape {coords.shape}")
        object.__setattr__(self, "coords", coords)

    @property
    def ambient_dim(self):
        return self.coords.shape[-1] // 2 + 1

    def to_state(self) -> StateVector:
        return StateVector(representative(self), normalize=True)


def representative(chart: AffineChart) -> np.ndarray:
    """Homogeneous representative with 1 at the pivot slot (one row per point of a stack)."""
    dim = chart.ambient_dim
    z = np.zeros(chart.coords.shape[:-1] + (dim,), dtype=complex)
    z[..., chart.chart_index] = 1.0
    z[..., chart_slots(dim, chart.chart_index)] = _complexify(chart.coords)
    return z


class ProjectivePoint:
    """A ray of C^(n+1): a pure quantum state up to phase."""

    __slots__ = ("state",)

    def __init__(self, state: StateVector):
        object.__setattr__(self, "state", state)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    @property
    def chart_index(self):
        """Index of the largest-modulus amplitude; keeps chart coords in the unit polydisc."""
        return int(np.argmax(np.abs(self.state.amplitudes)))

    def same_ray(self, other, tol=1e-10) -> bool:
        state = other.state if isinstance(other, ProjectivePoint) else other
        return self.state.phase_equal(state, tol)

    def chart(self, chart_index=None) -> AffineChart:
        return chart_of(self.state, chart_index)

    def __repr__(self):
        return f"ProjectivePoint({self.state!r})"


def chart_of(state, chart_index=None) -> AffineChart:
    """Affine chart coordinates of a state (default: its preferred chart)."""
    if isinstance(state, ProjectivePoint):
        state = state.state
    amp = state.amplitudes
    if chart_index is None:
        chart_index = int(np.argmax(np.abs(amp)))
    pivot = amp[chart_index]
    if pivot == 0:
        raise ValueError(f"state has zero amplitude at chart index {chart_index}")
    zeta = amp[chart_slots(amp.size, chart_index)] / pivot
    return AffineChart(chart_index, _interleave(zeta))


@dataclass(frozen=True)
class TangentAtPoint:
    """Tangent vector presented as a horizontal lift: <v|w> = 0."""

    base: ProjectivePoint
    horizontal: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.horizontal, dtype=complex)
        object.__setattr__(self, "horizontal", w)
        residue = abs(np.vdot(self.base.state.amplitudes, w))
        if residue > 1e-12 * max(1.0, float(np.linalg.norm(w))):
            raise ValueError(f"tangent vector is not horizontal: |<v|w>| = {residue!r}")

    @property
    def norm(self):
        """Fubini-Study length of the tangent vector."""
        return float(np.linalg.norm(self.horizontal))


def fubini_study_metric(chart: AffineChart) -> np.ndarray:
    """Metric matrix in realified chart coordinates (one matrix per point of a stack).

    For chart tangents u1, u2 with horizontal lifts w1, w2 at the unit
    representative, the matrix returns Re <w1|w2>; equivalently the squared
    length of the Schrodinger generator equals the Hamiltonian variance.

    In closed form g = (I - r r^T - s s^T) / |z|^2, where r = x / |z| and s
    is r with each (Re, Im) pair turned to (Im, -Re). Each point is computed
    on its own, by elementwise products and row sums, so a point gives the
    same matrix alone and in a stack.
    """
    xy = _rows(chart)
    nz2 = 1.0 + (xy * xy).sum(axis=1)
    r = xy / np.sqrt(nz2)[:, None]
    s = np.empty_like(r)
    s[:, 0::2] = r[:, 1::2]
    s[:, 1::2] = -r[:, 0::2]
    outer = r[:, :, None] * r[:, None, :] + s[:, :, None] * s[:, None, :]
    return _shaped(chart, (np.eye(xy.shape[1]) - outer) / nz2[:, None, None])


def chart_manifold(dim, chart_index, coord_bound=None) -> ChartManifold:
    """The Fubini-Study geometry of chart `chart_index` as a ChartManifold.

    dim is the ambient Hilbert dimension n+1; the chart has 2n real
    coordinates. coord_bound optionally restricts |zeta|_inf to keep
    far-from-pivot points (badly conditioned) out of stencils.
    """
    if dim < 2 or not 0 <= chart_index < dim:
        raise ValueError(f"invalid chart: dim={dim}, index={chart_index}")

    metric = StackFunction(lambda points: fubini_study_metric(AffineChart(chart_index, points)))
    domain = None
    if coord_bound is not None:
        domain = StackFunction(lambda points: np.abs(points).max(axis=1) < coord_bound)
    return ChartManifold(2 * (dim - 1), metric, domain, name=f"CP^{dim - 1} chart {chart_index}")


def fundamental_field_at(A: HermitianOperator, chart: AffineChart) -> np.ndarray:
    """Chart components of the flow generator of [v] -> [exp(-iAt) v] (one row per point of a stack).

    Each point is computed on its own, as fubini_study_metric computes it.
    """
    if A.dim != chart.ambient_dim:
        raise ValueError(f"dimension mismatch: operator {A.dim}, chart ambient {chart.ambient_dim}")
    k = chart.chart_index
    z = representative(chart).reshape(-1, A.dim)
    Az = A.apply_stack(z)
    slots = chart_slots(A.dim, k)
    return _shaped(chart, _interleave(-1j * (Az[:, slots] - z[:, slots] * Az[:, k, None])))


def fundamental_field(A: HermitianOperator, dim, chart_index) -> VectorField:
    """The Schrodinger velocity field of a Hermitian generator on one chart.

    The Hermitian input is converted internally to the skew-Hermitian
    generator -iA of the unitary flow; the horizontal lift of the returned
    field at a unit v is -i (A - <A>) v.
    """
    if A.dim != dim:
        raise ValueError(f"dimension mismatch: operator {A.dim}, requested {dim}")
    return VectorField(StackFunction(lambda points: fundamental_field_at(A, AffineChart(chart_index, points))))


def horizontal_lift(chart: AffineChart, u) -> tuple[np.ndarray, np.ndarray]:
    """Lift a realified chart tangent u to (v, w): unit base and horizontal vector."""
    z = representative(chart)
    nz = float(np.linalg.norm(z))
    v = z / nz
    U = np.zeros(chart.ambient_dim, dtype=complex)
    U[chart_slots(chart.ambient_dim, chart.chart_index)] = _complexify(np.asarray(u, dtype=float))
    w = (U - v * np.vdot(v, U)) / nz
    return v, w


def project_tangent(v, w, chart_index) -> np.ndarray:
    """Chart velocity of a curve through [v] whose representative velocity is w.

    Insensitive to the vertical (phase/scale) part of w, so w need not be
    horizontal; v and w must come from the same representative gauge.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    pivot = v[chart_index]
    if pivot == 0:
        raise ValueError(f"curve leaves chart {chart_index}: zero pivot amplitude")
    slots = chart_slots(v.size, chart_index)
    zeta_dot = (w[slots] * pivot - v[slots] * w[chart_index]) / pivot**2
    return _interleave(zeta_dot)


def dispersion_via_metric(H: HermitianOperator, point) -> float:
    """Hamiltonian variance read off the metric: g(X, X) for the flow generator X.

    Agrees with the algebraic variance <H^2> - <H>^2; the agreement is the
    normalization contract of the metric.
    """
    point = point if isinstance(point, ProjectivePoint) else ProjectivePoint(point)
    chart = point.chart()
    X = fundamental_field_at(H, chart)
    g = fubini_study_metric(chart)
    return float(X @ g @ X)


def fubini_study_distance(u, v) -> float:
    """Geodesic distance arccos |<u|v>| between rays (pi/2 for orthogonal states).

    Evaluated as 2 asin(|v - e^{i phi} u| / 2), where e^{i phi}, the phase of
    <u|v>, brings u closest to v. The chord keeps full relative precision for
    nearby rays; arccos near 1 cannot resolve distances below about 2e-8.
    """
    u = u.state if isinstance(u, ProjectivePoint) else u
    v = v.state if isinstance(v, ProjectivePoint) else v
    overlap = u.inner(v)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    chord = float(np.linalg.norm(v.amplitudes - phase * u.amplitudes))
    return 2.0 * float(np.arcsin(min(chord / 2.0, 1.0)))


class GeodesicSphere:
    """The totally geodesic 2-sphere of superpositions of two eigenstates.

    Colatitude theta runs from the lower-energy pole (index j) at theta = 0
    to the higher-energy pole (index i) at theta = pi. The azimuth phi is
    minus the relative phase of the higher-energy amplitude:

        v(theta, phi) = cos(theta/2) b_j + sin(theta/2) exp(-i phi) b_i

    With (theta, phi) positively ordered the area form is
    (1/4) sin(theta) dtheta ^ dphi and the Schrodinger flow rotates with
    dphi/dt = + (lambda_i - lambda_j); this orientation makes the signed
    vorticity come out as 2 omega cos(theta) per unit area.
    """

    def __init__(self, H: HermitianOperator, i, j):
        if i == j:
            raise ValueError("geodesic sphere needs two distinct eigenstate indices")
        if not (0 <= j < i < H.dim):
            raise ValueError(f"indices must satisfy 0 <= j < i < {H.dim}, got i={i}, j={j}")
        self.i = int(i)
        self.j = int(j)
        self.dim = H.dim
        self.basis = H.eigenvectors
        self.omega = float(H.eigenvalues[i] - H.eigenvalues[j])

    def representative(self, theta, phi) -> np.ndarray:
        b = self.basis
        return np.cos(theta / 2.0) * b[:, self.j] + np.sin(theta / 2.0) * np.exp(-1j * phi) * b[:, self.i]

    def state(self, theta, phi) -> StateVector:
        return StateVector(self.representative(theta, phi), normalize=True)

    def embedding_velocities(self, theta, phi):
        """d/dtheta and d/dphi of the representative (same gauge as representative)."""
        b = self.basis
        d_th = (
            -0.5 * np.sin(theta / 2.0) * b[:, self.j]
            + 0.5 * np.cos(theta / 2.0) * np.exp(-1j * phi) * b[:, self.i]
        )
        d_ph = -1j * np.sin(theta / 2.0) * np.exp(-1j * phi) * b[:, self.i]
        return d_th, d_ph

    def induced_metric(self, theta) -> np.ndarray:
        """Pullback metric diag(1/4, 1/4 sin^2 theta) in (theta, phi)."""
        return np.diag([0.25, 0.25 * np.sin(theta) ** 2])

    def area_coefficient(self, theta) -> float:
        """Coefficient of dtheta ^ dphi in the area form."""
        return 0.25 * np.sin(theta)

    def oriented_frame(self, theta, phi, pole_tol=1e-8):
        """Positively oriented orthonormal tangent frame in chart coordinates.

        Returns (chart, u1, u2) at the point; away from the poles u1, u2
        point along d/dtheta and d/dphi. At the poles d/dphi degenerates, so
        the frame is built from two meridian directions (phi and phi + pi/2),
        each lifted through its own representative gauge, with the ordering
        flipped at theta = pi where meridians converge.
        """
        v = self.representative(theta, phi)
        k = int(np.argmax(np.abs(v)))
        chart = chart_of(StateVector(v, normalize=True), k)
        g = fubini_study_metric(chart)
        if abs(np.sin(theta)) > pole_tol:
            d_th, d_ph = self.embedding_velocities(theta, phi)
            t1 = project_tangent(v, d_th, k)
            t2 = project_tangent(v, d_ph, k)
        else:
            d_th1, _ = self.embedding_velocities(theta, phi)
            v2 = self.representative(theta, phi + np.pi / 2.0)
            d_th2, _ = self.embedding_velocities(theta, phi + np.pi / 2.0)
            t1 = project_tangent(v, d_th1, k)
            t2 = project_tangent(v2, d_th2, k)
            if theta > np.pi / 2.0:
                t2 = -t2
        u1 = t1 / np.sqrt(t1 @ g @ t1)
        u2 = t2 / np.sqrt(t2 @ g @ t2)
        return chart, u1, u2


def geodesic_sphere(H: HermitianOperator, i, j) -> GeodesicSphere:
    """The eigenstate-pair sphere S_ij (i > j) in the eigenbasis of H."""
    return GeodesicSphere(H, i, j)
