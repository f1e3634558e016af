"""Complex projective space as a concrete chart manifold.

Affine chart k of P(C^(n+1)) uses inhomogeneous coordinates
zeta_a = z_a / z_k (a != k), realified by interleaving (Re, Im). The metric
is normalized so that the squared length of the generator of the Schrodinger
flow equals the variance of the Hamiltonian; under this convention the
projective line is a round sphere of radius 1/2.

A point of CP^n is passed as a StateVector, any unit representative of its
ray (StateVector.phase_equal compares rays). Many points are an (N, dim)
stack of unit rows: the functions of states follow riemann's point-or-stack
convention, a float for a StateVector and one value per row for a stack.
A point of chart k is that index and a plain coordinate array, as riemann
takes it: (2n,) for one point, (N, 2n) for a stack in one chart. chart_of
gives the pair; chart_rows groups the rows of a stack by chart index, so
that the rows of one chart go through each operator as one stack. Every
function of coordinates refuses an array of another shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jsonio
from .hilbert import HermitianOperator, StateVector, _per_state, _row_norms, _row_products, normalized_rows
from .riemann import ChartManifold, StackFunction, VectorField, _bilinear

__all__ = [
    "TangentAtPoint",
    "GeodesicSphere",
    "representative",
    "chart_of",
    "chart_rows",
    "fubini_study_metric",
    "chart_manifold",
    "fundamental_field",
    "horizontal_lift",
    "project_tangent",
    "dispersion_via_metric",
    "fubini_study_distance",
]

# A sphere node with |sin theta| at or below this is a pole in
# GeodesicSphere.oriented_frames: d/dphi degenerates there.
POLE_TOL = 1e-8


@lru_cache(maxsize=None)
def _slots(dim, k):
    """Ambient indices carrying chart-k coordinates (all but the pivot k): built once per (dim, k), read-only."""
    slots = np.array([a for a in range(dim) if a != k], dtype=np.intp)
    slots.flags.writeable = False
    return slots


@lru_cache(maxsize=None)
def _identity(n):
    """The (n, n) identity matrix: built once per n, read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _interleave(zeta):
    """Complex coordinates as real ones: each complex number read as its (Re, Im) pair."""
    return np.ascontiguousarray(zeta, dtype=complex).view(float)


def _complexify(xy):
    """Real coordinates as complex ones: each (Re, Im) pair read as one complex number."""
    return np.ascontiguousarray(xy, dtype=float).view(complex)


def _checked_coords(coords):
    """coords as a float array of chart coordinates: a flat (2n,) point or an (N, 2n) stack."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim not in (1, 2) or coords.shape[-1] % 2 != 0 or coords.shape[-1] == 0:
        raise ValueError(f"chart coords must be a flat (2n,) array or an (N, 2n) stack, got shape {coords.shape}")
    return coords


def _require_chart(dim, chart_index):
    """Refuse a chart index outside [0, dim) of C^dim."""
    if dim < 2 or not 0 <= chart_index < dim:
        raise ValueError(f"invalid chart: dim={dim}, index={chart_index}")


def representative(k, coords) -> np.ndarray:
    """Homogeneous representative of chart-k coordinates: 1 at slot k, zeta at the others (one row per stack row)."""
    zeta = _complexify(_checked_coords(coords))
    dim = zeta.shape[-1] + 1
    _require_chart(dim, k)
    z = np.zeros(zeta.shape[:-1] + (dim,), dtype=complex)
    z[..., k] = 1.0
    z[..., _slots(dim, k)] = zeta
    return z


def chart_rows(ks):
    """(k, rows) for each chart index k in ks, ascending: rows holds the n with ks[n] = k."""
    ks = np.asarray(ks)
    for k in sorted(set(ks.tolist())):
        yield k, np.flatnonzero(ks == k)


def chart_of(state, chart_index=None) -> tuple[int, np.ndarray]:
    """(k, coords): the chart index and coordinates v_a / v_k of a StateVector, or of each row of an (N, dim) stack.

    A state defaults to its preferred chart k, the index of its largest-modulus
    amplitude, which keeps its coordinates in the unit polydisc; a stack
    needs chart_index.
    """
    one = isinstance(state, StateVector)
    vectors = state.amplitudes[None] if one else np.asarray(state)
    if chart_index is None and not one:
        raise ValueError("a stack of states needs an explicit chart index")
    k = int(np.argmax(np.abs(vectors[0]))) if chart_index is None else chart_index
    _require_chart(vectors.shape[1], k)
    if not vectors[:, k].all():
        raise ValueError(f"state has zero amplitude at chart index {k}")
    coords = _interleave(vectors[:, _slots(vectors.shape[1], k)] / vectors[:, k, None])
    return k, coords[0] if one else coords


@dataclass(frozen=True)
class TangentAtPoint:
    """Tangent vector presented as a horizontal lift: <v|w> = 0."""

    base: StateVector
    horizontal: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.horizontal, dtype=complex)
        object.__setattr__(self, "horizontal", w)
        residue = abs(np.vdot(self.base.amplitudes, w))
        if residue > 1e-12 * max(1.0, float(np.linalg.norm(w))):
            raise ValueError(f"tangent vector is not horizontal: |<v|w>| = {residue!r}")

    @property
    def norm(self):
        """Fubini-Study length of the tangent vector."""
        return float(np.linalg.norm(self.horizontal))


def fubini_study_metric(coords) -> np.ndarray:
    """Metric matrix at chart coordinates: a flat (2n,) point, or an (N, 2n) stack with one matrix per row.

    For chart tangents u1, u2 with horizontal lifts w1, w2 at the unit
    representative, the matrix returns Re <w1|w2>; equivalently the squared
    length of the Schrodinger generator equals the Hamiltonian variance. The
    formula is the same in every chart: g = (I - r r^T - s s^T) / |z|^2,
    where r = x / |z| and s is r with each (Re, Im) pair turned to (Im, -Re).
    Each point is computed on its own, by elementwise products and row sums,
    so a point gives the same matrix alone and in a stack.
    """
    xy = _checked_coords(coords)
    nz2 = 1.0 + (xy * xy).sum(axis=-1)
    r = xy / np.sqrt(nz2)[..., None]
    s = np.empty_like(r)
    s[..., 0::2] = r[..., 1::2]
    s[..., 1::2] = -r[..., 0::2]
    g = r[..., :, None] * r[..., None, :]
    g += s[..., :, None] * s[..., None, :]
    np.subtract(_identity(xy.shape[-1]), g, out=g)
    g /= nz2[..., None, None]
    return g


def _geodesic_spray(y):
    """The Fubini-Study geodesic spray: an (N, 4n) stack of rows (x, u) of chart points and velocities -> rows (u, x'').

    The metric is Kahler with potential log(1 + |zeta|^2), and its connection
    Gamma^k_ij = -(delta^k_i conj(zeta_j) + delta^k_j conj(zeta_i)) / (1 + |zeta|^2)
    gives zeta'' = 2 <zeta, zeta'> zeta' / (1 + |zeta|^2), the same formula in
    every chart (Bengtsson and Zyczkowski, Geometry of Quantum States, ch. 4).
    x'' is returned interleaved as x; each row is computed on its own.
    """
    n = y.shape[1] // 2
    x, u = y[:, :n], y[:, n:]
    zeta, dzeta = _complexify(x), _complexify(u)
    scale = (zeta.conj() * dzeta).sum(axis=1)
    scale *= 2.0 / (1.0 + (x * x).sum(axis=1))
    return np.concatenate([u, _interleave(dzeta * scale[:, None])], axis=1)


def chart_manifold(dim, chart_index) -> ChartManifold:
    """The Fubini-Study geometry of chart `chart_index` as a ChartManifold.

    dim is the ambient Hilbert dimension n+1; the chart has 2n real
    coordinates and is the whole of C^n, so it has no domain predicate. A
    bounded chart is dataclasses.replace(chart_manifold(dim, k),
    chart_domain=StackFunction(...)). Geodesics take the closed-form
    connection, through the spray _geodesic_spray.
    """
    _require_chart(dim, chart_index)
    name = f"CP^{dim - 1} chart {chart_index}"
    return ChartManifold(2 * (dim - 1), StackFunction(fubini_study_metric), name=name, geodesic_spray=_geodesic_spray)


def fundamental_field(A: HermitianOperator, chart_index) -> VectorField:
    """The Schrodinger velocity field of a Hermitian generator on one chart of CP^(A.dim - 1).

    The Hermitian input is converted internally to the skew-Hermitian
    generator G = -iA of the unitary flow; the horizontal lift of the returned
    field at a unit v is -i (A - <A>) v. On chart k (s: the other slots) the
    field is G_sk + G_ss zeta - zeta (G_kk + G_ks zeta), computed from the
    complex coordinates zeta with the pieces of G cut once, here. Each point
    of a stack is computed on its own (row products, row sums), so a point
    gives the same components alone and in a stack.
    """
    _require_chart(A.dim, chart_index)
    k, slots = chart_index, _slots(A.dim, chart_index)
    G = -1j * A.matrix
    rows = G[np.append(slots, k)][:, slots]  # G_ss above G_ks: one row product gives both
    g_sk, g_kk = G[slots, k], G[k, k]

    def stack(points):
        xy = _checked_coords(points)
        if xy.ndim != 2:
            raise ValueError(f"expected an (N, {2 * (A.dim - 1)}) stack of chart points, got shape {xy.shape}")
        if A.dim != xy.shape[-1] // 2 + 1:
            raise ValueError(f"dimension mismatch: operator {A.dim}, chart ambient {xy.shape[-1] // 2 + 1}")
        zeta = _complexify(xy)
        products = _row_products(zeta, rows)
        x = products[:, :-1] + g_sk
        x -= zeta * (products[:, -1:] + g_kk)
        return _interleave(x)

    return VectorField(StackFunction(stack))


def horizontal_lift(k, coords, u) -> tuple[np.ndarray, np.ndarray]:
    """Lift a realified tangent u at one point of chart k to (v, w): unit base and horizontal vector."""
    z = representative(k, coords)
    if z.ndim != 1:
        raise ValueError(f"horizontal_lift takes one chart point, a flat (2n,) array; got shape {np.shape(coords)}")
    nz = float(np.linalg.norm(z))
    v = z / nz
    U = np.zeros(z.size, dtype=complex)
    U[_slots(z.size, k)] = _complexify(u)
    w = (U - v * np.vdot(v, U)) / nz
    return v, w


def project_tangent(v, w, chart_index) -> np.ndarray:
    """Chart velocity of a curve through [v] whose representative velocity is w (one row per row of a stack).

    Insensitive to the vertical (phase/scale) part of w, so w need not be
    horizontal; v and w must come from the same representative gauge. Each
    row is computed on its own, so a row gives the same velocity alone and
    in a stack.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    pivot = v[..., chart_index, None]
    if not pivot.all():
        raise ValueError(f"curve leaves chart {chart_index}: zero pivot amplitude")
    slots = _slots(v.shape[-1], chart_index)
    zeta_dot = (w[..., slots] * pivot - v[..., slots] * w[..., chart_index, None]) / (pivot * pivot)
    return _interleave(zeta_dot)


def dispersion_via_metric(H: HermitianOperator, v):
    """Hamiltonian variance read off the metric: g(X, X) for the flow generator X.

    A float for a StateVector, one value per row of an (N, dim) stack of unit
    vectors. Agrees with the algebraic variance <H^2> - <H>^2; the agreement
    is the normalization contract of the metric. Each row is taken in its
    preferred chart (its largest amplitude); the rows of one chart are one
    field stack and one metric stack.
    """

    def values(vectors):
        out = np.empty(len(vectors))
        for k, rows in chart_rows(np.abs(vectors).argmax(axis=1)):
            _, xy = chart_of(vectors[rows], k)
            X = fundamental_field(H, k).stack(xy)
            out[rows] = _bilinear(X, fubini_study_metric(xy), X)
        return out

    return _per_state(values, v)


def fubini_study_distance(u, v):
    """Geodesic distance arccos |<u|v>| between rays (pi/2 for orthogonal states).

    A float for two StateVectors, one value per row pair for two (N, dim)
    stacks of unit vectors. Evaluated as 2 asin(|v - e^{i phi} u| / 2), where
    e^{i phi}, the phase of <u|v>, brings u closest to v. The chord keeps
    full relative precision for nearby rays; arccos near 1 cannot resolve
    distances below about 2e-8.
    """

    def values(us, vs):
        overlaps = (us.conj() * vs).sum(axis=1)
        sizes = np.abs(overlaps)
        phases = np.divide(overlaps, sizes, out=np.ones_like(overlaps), where=sizes > 0)
        half = _row_norms(vs - phases[:, None] * us) / 2.0
        return 2.0 * np.arcsin(np.minimum(half, 1.0))

    return _per_state(values, u, v)


class GeodesicSphere:
    """The totally geodesic 2-sphere of superpositions of two eigenstates.

    Colatitude theta runs from the lower-energy pole (index j) at theta = 0
    to the higher-energy pole (index i) at theta = pi. The azimuth phi is
    minus the relative phase of the higher-energy amplitude:

        v(theta, phi) = cos(theta/2) b_j + sin(theta/2) exp(-i phi) b_i

    With (theta, phi) positively ordered the area form is
    (1/4) sin(theta) dtheta ^ dphi and the Schrodinger flow rotates with
    dphi/dt = + (lambda_i - lambda_j); this orientation makes the signed
    vorticity come out as 2 omega cos(theta) per unit area. The indices
    are integers, 0 <= j < i < H.dim.
    """

    def __init__(self, H: HermitianOperator, i, j):
        self.i = jsonio.integer("i", i, 1, H.dim - 1)
        self.j = jsonio.integer("j", j, 0, self.i - 1)
        self.dim = H.dim
        self.basis = H.eigenvectors
        self.omega = float(H.eigenvalues[self.i] - H.eigenvalues[self.j])

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

    def oriented_frames(self, thetas, phis):
        """Positively oriented orthonormal tangent frames in chart coordinates, one row per node.

        Returns (chart indices, coords, u1, u2) for the nodes (thetas[n],
        phis[n]). Each node is taken in the chart of its largest amplitude; away from
        the poles u1, u2 point along d/dtheta and d/dphi. At the poles d/dphi
        degenerates, so the frame is built from two meridian directions (phi
        and phi + pi/2), each lifted through its own representative gauge,
        with the ordering flipped at theta = pi where meridians converge.
        The nodes of one chart are one metric stack.
        """
        th = np.asarray(thetas, dtype=float).reshape(-1, 1)
        ph = np.asarray(phis, dtype=float).reshape(-1, 1)
        v = self.representative(th, ph)
        d_th, d_ph = self.embedding_velocities(th, ph)
        # the second direction: d/dphi, or at a pole the meridian at phi + pi/2 in its own gauge
        pole = np.abs(np.sin(th[:, 0])) <= POLE_TOL
        v2, d2 = v.copy(), d_ph
        v2[pole] = self.representative(th[pole], ph[pole] + np.pi / 2.0)
        d2[pole] = self.embedding_velocities(th[pole], ph[pole] + np.pi / 2.0)[0]
        flip = pole & (th[:, 0] > np.pi / 2.0)
        ks = np.abs(v).argmax(axis=1)
        coords = np.empty((len(v), 2 * (self.dim - 1)))
        u1, u2 = np.empty_like(coords), np.empty_like(coords)
        unit = normalized_rows(v)
        for k, rows in chart_rows(ks):
            _, xy = chart_of(unit[rows], k)
            t1 = project_tangent(v[rows], d_th[rows], k)
            t2 = project_tangent(v2[rows], d2[rows], k)
            t2[flip[rows]] *= -1.0
            g = fubini_study_metric(xy)
            coords[rows] = xy
            u1[rows] = t1 / np.sqrt(_bilinear(t1, g, t1))[:, None]
            u2[rows] = t2 / np.sqrt(_bilinear(t2, g, t2))[:, None]
        return ks, coords, u1, u2

