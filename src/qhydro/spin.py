"""Spin wave functions as complex polynomials and their point-vortex content.

A spin-s wave function is a polynomial of degree <= 2s in the inhomogeneous
coordinate zeta of the Riemann sphere. Its phase gradient (the Madelung-Bohm
velocity form) is closed away from the roots, and the winding of the phase
around a loop counts the enclosed root multiplicities: circulation / 2 pi is
an integer vortex strength, and around all roots it equals the full degree,
i.e. 2s for a full-degree polynomial.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.polyutils import trimseq

from . import jsonio

__all__ = [
    "EXCLUSION_TOL",
    "INTEGRALITY_TOL",
    "SZ_ACTION_SIGN",
    "SpinWaveFunction",
    "VorticityDivisor",
    "CircleContour",
    "PolygonContour",
    "SU2Element",
    "ContourTooCloseError",
    "ClusterAmbiguityError",
    "NumericalBreakdownError",
    "IntegralityRecord",
    "sz_apply",
    "su2_matrix",
    "su2_act",
    "madelung_velocity",
    "circulation",
    "total_spin_circulation",
    "vorticity_divisor",
    "bohr_sommerfeld_check",
    "wavefunction_from_json",
    "contour_from_json",
]

# Quadrature near a root of the wave function is ill-conditioned: the
# integrand has a pole there. Evaluation closer than this is refused.
EXCLUSION_TOL = 1e-6

# A circulation passes the integrality check within this distance of the
# nearest integer; read when a record is built.
INTEGRALITY_TOL = 1e-8

# The one-parameter diagonal subgroup diag(e^{-i a/2}, e^{+i a/2}) acts on the
# monomial zeta^k by the phase e^{-i(k-s)a}; differentiating at the identity
# gives SZ_ACTION_SIGN * i * (S_z action).
SZ_ACTION_SIGN = -1.0


class ContourTooCloseError(ValueError):
    """Contour passes within the exclusion tolerance of a root."""


class ClusterAmbiguityError(ValueError):
    """Root clustering changes with the clustering radius; multiplicities unsafe."""


class NumericalBreakdownError(ArithmeticError):
    """Finite input whose arithmetic leaves double precision.

    Here a derivative coefficient, the companion matrix, a root or the
    contour integral overflows; in fluid, a pressure gradient or a pair
    pressure.

    Not a ValueError: the input is well formed, the arithmetic broke down.
    """


class SpinWaveFunction:
    """Polynomial wave function of a spin-s particle, s = two_s / 2.

    Coefficients are indexed lowest power first: chi(zeta) = sum c_k zeta^k,
    k = 0 .. 2s. The natural inner product makes the monomials orthogonal
    with <zeta^k, zeta^k> = 1 / C(2s, k); the rotation action below is
    unitary for it.
    """

    __slots__ = ("two_s", "coeffs", "_dcoeffs", "_degree", "_divisor", "_roots")

    def __init__(self, two_s, coeffs, allow_zero=False):
        if not isinstance(two_s, (int, np.integer)) or isinstance(two_s, bool) or two_s < 0:
            raise ValueError(f"two_s must be a nonnegative integer, got {two_s!r}")
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size != two_s + 1:
            raise ValueError(f"need {two_s + 1} coefficients for two_s={two_s}, got shape {c.shape}")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients must be finite")
        if not allow_zero and not np.any(c != 0):
            raise ValueError("wave function must not be identically zero")
        c.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by vorticity_divisor
            # P.polyder's bits: it scales by 1 first (which moves the signs of
            # zero parts), then multiplies coefficient k by k
            dc = (c * 1)[1:] * np.arange(1.0, c.size) if c.size > 1 else c[:1] * 0
        dc.setflags(write=False)
        object.__setattr__(self, "two_s", int(two_s))
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_dcoeffs", dc)
        # effective_degree, computed on first use
        object.__setattr__(self, "_degree", None)
        # the VorticityDivisor, or the message of its ClusterAmbiguityError,
        # and the read-only array of its roots repeated by multiplicity
        object.__setattr__(self, "_divisor", None)
        object.__setattr__(self, "_roots", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpinWaveFunction is immutable")

    @property
    def spin(self):
        return self.two_s / 2.0

    @property
    def effective_degree(self):
        """Degree after stripping trailing coefficients below round-off scale, computed once."""
        if self._degree is None:
            mags = np.abs(self.coeffs)
            live = np.flatnonzero(mags > 1e-12 * mags.max())  # empty for the zero polynomial
            object.__setattr__(self, "_degree", int(live[-1]) if live.size else 0)
        return self._degree

    @classmethod
    def from_roots(cls, roots_with_mult, two_s=None):
        """Monic polynomial prod (zeta - a)^mu from (root, multiplicity) pairs."""
        c = np.array([1.0 + 0.0j])
        total = 0
        for a, mu in roots_with_mult:
            mu = jsonio.count("multiplicity", mu, 1)
            total += mu
            c = P.polymul(c, P.polypow([-complex(a), 1.0], mu))
        if two_s is None:
            two_s = total
        if total > two_s:
            raise ValueError(f"total multiplicity {total} exceeds 2s = {two_s}")
        coeffs = np.zeros(two_s + 1, dtype=complex)
        coeffs[: c.size] = c
        return cls(two_s, coeffs)

    def __call__(self, zeta):
        return P.polyval(zeta, self.coeffs)

    def log_derivative(self, zeta):
        """chi'(zeta) / chi(zeta); poles at the roots.

        chi and chi' come from one Horner loop over both coefficient arrays,
        each value with P.polyval's operations in P.polyval's order, so the
        bits are those of P.polyval(zeta, dc) / P.polyval(zeta, c).
        """
        if isinstance(zeta, (tuple, list)):
            zeta = np.asarray(zeta)
        c, dc = self.coeffs, self._dcoeffs
        zero = zeta * 0
        value, deriv = c[-1] + zero, dc[-1] + zero
        for ck, dk in zip(c[-2::-1], dc[-2::-1]):
            value = ck + value * zeta
            deriv = dk + deriv * zeta
        if c.size > 1:
            value = c[0] + value * zeta
        return deriv / value

    def weighted_norm(self):
        weights = np.array([1.0 / math.comb(self.two_s, k) for k in range(self.two_s + 1)])
        return float(np.sqrt(np.sum(weights * np.abs(self.coeffs) ** 2)))

    def normalized(self):
        return SpinWaveFunction(self.two_s, self.coeffs / self.weighted_norm())

    @property
    def is_normalized(self):
        return abs(self.weighted_norm() - 1.0) < 1e-10

    def roots(self):
        """Root locations repeated by multiplicity, read-only (built once with the cached divisor)."""
        self.divisor()
        return self._roots

    def divisor(self):
        """The vorticity divisor, computed once; an ambiguous clustering raises on every call."""
        if self._divisor is None:
            try:
                found = vorticity_divisor(self)
            except ClusterAmbiguityError as exc:
                found = str(exc)
            else:
                locs = np.array([a for a, mu in found.entries for _ in range(mu)]) if found.entries else np.array([])
                locs.setflags(write=False)
                object.__setattr__(self, "_roots", locs)
            object.__setattr__(self, "_divisor", found)
        if isinstance(self._divisor, str):
            raise ClusterAmbiguityError(self._divisor)
        return self._divisor

    def __repr__(self):
        return f"SpinWaveFunction(two_s={self.two_s}, coeffs={np.array2string(self.coeffs, precision=4)})"


@dataclass(frozen=True)
class VorticityDivisor:
    """Point vortices of a wave function: (location, integer strength) pairs.

    The strengths sum to the effective polynomial degree; a deficit against
    2s means the remainder sits at infinity.
    """

    entries: tuple

    @property
    def total(self):
        return sum(mu for _, mu in self.entries)


class SU2Element:
    """A special unitary 2x2 matrix [[a, b], [-conj(b), conj(a)]]."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if float(np.abs(m.conj().T @ m - np.eye(2)).max()) > 1e-12:
            raise ValueError("matrix is not unitary to tolerance")
        if abs(np.linalg.det(m) - 1.0) > 1e-12:
            raise ValueError("matrix does not have unit determinant")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("SU2Element is immutable")

    @property
    def a(self):
        return complex(self.matrix[0, 0])

    @property
    def b(self):
        return complex(self.matrix[0, 1])

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    @classmethod
    def from_params(cls, a, b):
        return cls(np.array([[a, b], [-np.conj(b), np.conj(a)]]))

    @classmethod
    def diagonal(cls, alpha):
        """The z-rotation diag(e^{-i alpha/2}, e^{+i alpha/2})."""
        return cls.from_params(np.exp(-0.5j * alpha), 0.0)

    @classmethod
    def random(cls, rng):
        """Haar-ish random element from a normalized complex pair."""
        raw = rng.normal(size=4)
        a = raw[0] + 1j * raw[1]
        b = raw[2] + 1j * raw[3]
        nrm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return cls.from_params(a / nrm, b / nrm)

    def __matmul__(self, other):
        return SU2Element(self.matrix @ other.matrix)

    def inverse(self):
        return SU2Element(self.matrix.conj().T)

    def mobius(self, zeta):
        """The Mobius map mu_g with (act(g, chi))(zeta) propto chi(mu_g(zeta)).

        Root locations transform by the inverse map: roots of act(g, chi)
        are g.inverse().mobius(old roots).
        """
        a, b = self.a, self.b
        return (np.conj(b) + a * zeta) / (np.conj(a) - b * zeta)

    def __repr__(self):
        return f"SU2Element(a={self.a:.4g}, b={self.b:.4g})"


def sz_apply(chi: SpinWaveFunction) -> SpinWaveFunction:
    """Spin-z operator in the monomial basis: c_k -> (k - s) c_k.

    The output may be the zero polynomial (when chi is the k = s monomial).
    """
    k = np.arange(chi.two_s + 1, dtype=float)
    return SpinWaveFunction(chi.two_s, (k - chi.spin) * chi.coeffs, allow_zero=True)


def su2_matrix(g: SU2Element, two_s) -> np.ndarray:
    """Matrix of the rotation action on coefficient vectors (monomial basis).

    Column k holds the coefficients of
    (conj(a) - b zeta)^(2s-k) (conj(b) + a zeta)^k: the image of zeta^k
    under precomposition of the degree-2s homogeneous representative with
    g^{-1}, dehomogenized back to zeta.
    """
    a, b = g.a, g.b
    left, right = _powers([np.conj(a), -b], two_s), _powers([np.conj(b), a], two_s)
    out = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    for k in range(two_s + 1):
        # P.polymul's product: np.convolve of the trimmed factors, trimmed
        col = trimseq(np.convolve(left[two_s - k], right[k]))
        out[: col.size, k] = col
    return out


def _powers(c, top):
    """[c^0, c^1, ..., c^top], each as P.polypow(c, j) builds it: np.convolve with the trimmed c, j - 1 times.

    Each power is then trimmed of trailing zeros (an underflowed top
    coefficient), as P.polymul trims its factors.
    """
    base = trimseq(np.array(c, dtype=complex))
    powers = [np.ones(1, dtype=complex), base]
    while len(powers) <= top:
        powers.append(np.convolve(powers[-1], base))
    return [trimseq(p) for p in powers[: top + 1]]


def su2_act(g: SU2Element, chi: SpinWaveFunction) -> SpinWaveFunction:
    """Rotate a wave function; degree preserving and unitary for the weighted product."""
    return SpinWaveFunction(chi.two_s, su2_matrix(g, chi.two_s) @ chi.coeffs, allow_zero=True)


def madelung_velocity(chi: SpinWaveFunction, zeta) -> np.ndarray:
    """Components (v_x, v_y) of the phase-gradient 1-form Im d log chi at zeta.

    With Q = chi'/chi this is Im[Q (dx + i dy)] = (Im Q) dx + (Re Q) dy.
    Refuses evaluation within the exclusion tolerance of a root.
    """
    zeta = complex(zeta)
    locs = chi.roots()
    if locs.size and float(np.abs(locs - zeta).min()) <= EXCLUSION_TOL:
        raise ValueError(f"evaluation point {zeta} is within {EXCLUSION_TOL} of a root")
    q = chi.log_derivative(zeta)
    return np.array([q.imag, q.real])


@dataclass(frozen=True)
class CircleContour:
    """Closed circle for circulation quadrature (trapezoidal, spectrally accurate)."""

    center: complex
    radius: float
    nodes: int = 256
    ccw: bool = True

    def __post_init__(self):
        if isinstance(self.radius, (bool, np.bool_)) or not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")
        object.__setattr__(self, "nodes", jsonio.count("nodes", self.nodes, 4))

    def quadrature(self):
        """(points, weighted tangents): integral of f dz ~ sum f(points) * tangents."""
        sign = 1.0 if self.ccw else -1.0
        ring = _unit_ring(self.nodes, self.ccw)
        points = self.center + self.radius * ring
        tangents = sign * 2j * np.pi * self.radius * ring / self.nodes
        return points, tangents

    def distances_to(self, points) -> np.ndarray:
        """Distance from each point of a 1-d complex array to the circle."""
        d = np.asarray(points, dtype=complex) - complex(self.center)
        return np.abs(np.hypot(d.real, d.imag) - self.radius)


@dataclass(frozen=True)
class PolygonContour:
    """Closed polygonal loop; per-edge Gauss-Legendre quadrature.

    Orientation follows the vertex order; the loop closes from the last
    vertex back to the first.
    """

    vertices: tuple
    nodes_per_edge: int = 32

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "nodes_per_edge", jsonio.count("nodes_per_edge", self.nodes_per_edge, 2))

    def quadrature(self):
        t, w = _gauss_legendre(self.nodes_per_edge)
        verts = self.vertices
        # each edge's midpoint and half-vector in Python's complex arithmetic, then all edges at once
        mids, halves = np.array([((a + b) / 2.0, (b - a) / 2.0) for a, b in zip(verts, verts[1:] + verts[:1])]).T
        return (mids[:, None] + t * halves[:, None]).ravel(), (w * halves[:, None]).ravel()

    def distances_to(self, points) -> np.ndarray:
        """Distance from each point of a complex array to the polygon."""
        z = np.asarray(points, dtype=complex)
        verts = self.vertices
        # per edge: start a, edge vector, and |edge|^2 as the scalar formula rounds it; one row per edge
        a, edge, length2 = (
            np.array(column).reshape((-1,) + (1,) * z.ndim)
            for column in zip(*[(a, b - a, abs(b - a) ** 2) for a, b in zip(verts, verts[1:] + verts[:1])])
        )
        along = (z.real - a.real) * edge.real + (z.imag - a.imag) * edge.imag
        # a zero-length edge keeps frac = 0, the foot at its vertex
        moving = length2 != 0
        frac = np.where(moving, np.clip(along / np.where(moving, length2, 1.0), 0.0, 1.0), 0.0)
        # z - (a + frac * edge) in the scalar formula's order; fmin skips a
        # NaN distance as the scalar min over edges did
        foot_re, foot_im = a.real + frac * edge.real, a.imag + frac * edge.imag
        return np.fmin.reduce(np.hypot(z.real - foot_re, z.imag - foot_im), axis=0, initial=np.inf)


@functools.lru_cache(maxsize=8)
def _unit_ring(nodes, ccw):
    """exp(+-2 pi i k / nodes) for k = 0 .. nodes - 1, read-only, computed once per (nodes, ccw)."""
    sign = 1.0 if ccw else -1.0
    ring = np.exp(sign * 2j * np.pi * (np.arange(nodes) / nodes))
    ring.setflags(write=False)
    return ring


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once per n."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def circulation(chi: SpinWaveFunction, contour) -> float:
    """Circulation (1 / 2 pi) of the Madelung-Bohm velocity around a contour.

    Evaluates Im of the contour integral of chi'/chi; by the residue count
    the result is the total multiplicity of the enclosed roots, so it must
    come out an integer to quadrature accuracy.
    """
    locs = chi.roots()
    if locs.size:
        # Python's min over floats: the message shows a float's repr
        nearest = min(contour.distances_to(locs).tolist())
        if nearest <= EXCLUSION_TOL:
            raise ContourTooCloseError(
                f"contour passes within {nearest!r} of a root (need > {EXCLUSION_TOL})"
            )
    points, tangents = contour.quadrature()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite integral is refused below
        integral = np.sum(chi.log_derivative(points) * tangents)
    value = float(integral.imag / (2.0 * np.pi))
    if not math.isfinite(value):
        raise NumericalBreakdownError(
            f"circulation integral is {value!r}: chi'/chi overflows double precision on the contour"
        )
    return value


def total_spin_circulation(chi: SpinWaveFunction) -> float:
    """Circulation around all finite roots: the effective degree of chi.

    The contour is |zeta| = 2 max|root| + 1 with CircleContour's 256 nodes.
    Equals 2s for a full-degree wave function. When the degree is deficient
    the missing vorticity sits at infinity and a warning is emitted.
    """
    if chi.effective_degree < chi.two_s:
        warnings.warn(
            f"degree {chi.effective_degree} < 2s = {chi.two_s}: "
            "the remaining vorticity sits at infinity",
            stacklevel=2,
        )
    locs = chi.roots()
    maxmod = float(np.abs(locs).max()) if locs.size else 0.0
    ring = CircleContour(0.0, 2.0 * maxmod + 1.0)
    return circulation(chi, ring)


def _companion_roots(c):
    """np.roots(c[::-1]).tolist() for coefficients c, low order first, whose last is nonzero, bit for bit.

    The eigenvalues of the companion matrix of c with its low-order zeros
    stripped, then a root 0 for each zero stripped. As in np.roots, they
    are Python complex numbers, except for a monomial, whose roots are
    Python floats.
    """
    low = int(np.flatnonzero(c)[0])
    if low == len(c) - 1:
        return [0.0] * low
    p = c[low:][::-1]
    A = np.eye(len(p) - 1, k=-1, dtype=p.dtype)
    A[0] = -p[1:] / p[0]
    return np.linalg.eigvals(A).tolist() + [0j] * low


def vorticity_divisor(chi: SpinWaveFunction) -> VorticityDivisor:
    """Roots with multiplicities via companion-matrix eigenvalues.

    Each eigenvalue is Newton-polished for at most 20 steps. The polish stops
    early at a relative step below 1e-15, and without taking it at the first
    step no smaller than the step before: from there on round-off, not the
    root, sets the correction (on a multiple root, after a few steps).
    Polished roots are clustered within 1e-6 (1 + max modulus); a cluster
    of m points is an m-fold root at their mean. Clustering that changes
    when the radius moves a factor 4 either way raises ClusterAmbiguityError
    instead of guessing.
    """
    deg = chi.effective_degree
    if deg == 0:
        return VorticityDivisor(())
    c = chi.coeffs[: deg + 1]
    # the derivative of the truncation is the truncated derivative
    cs, dcs = c.tolist(), chi._dcoeffs[:deg].tolist()
    if not all(map(cmath.isfinite, dcs)):
        raise NumericalBreakdownError("derivative coefficients overflow double precision")
    # chi and chi' by one Horner loop over Python complex coefficients, each
    # in P.polyval's order: Python's complex product and sum round like
    # numpy's scalar arithmetic (numpy's array product, a fused multiply-add,
    # and Python's complex division do not)
    top, dtop, pairs = cs[-1], dcs[-1], list(zip(cs[-2:0:-1], dcs[-2::-1]))
    # numpy's complex division, which rounds unlike Python's: adding -0 (an
    # exact identity) makes a numpy scalar of the numerator, and complex.__pos__
    # takes the quotient back as a Python complex; both bit for bit, and
    # cheaper than the np.complex128() and complex() constructors
    neg_zero, as_python = np.complex128(complex(-0.0, -0.0)), complex.__pos__

    def polish(z):
        # Newton converges quadratically on simple roots and pulls the
        # eigenvalue cloud of a multiple root well inside the cluster radius,
        # until a step fails to shrink
        last = math.inf
        for _ in range(20):
            zero = z * 0
            value, deriv = top + zero, dtop + zero
            for ck, dk in pairs:
                value = ck + value * z
                deriv = dk + deriv * z
            if deriv == 0:
                return z
            step = as_python((neg_zero + (cs[0] + value * z)) / deriv)
            size = abs(step)
            if size > 0.1 * (1.0 + abs(z)) or size >= last:
                return z  # left the local basin, or round-off sets the step: keep z
            z -= step
            if size < 1e-15 * (1.0 + abs(z)):
                break
            last = size
        return z

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        try:
            eigenvalues = _companion_roots(c)
        except np.linalg.LinAlgError:  # the companion matrix overflowed
            raise NumericalBreakdownError("companion matrix of the roots overflows double precision") from None
        refined = [polish(z) for z in eigenvalues]
    if not all(map(cmath.isfinite, refined)):
        raise NumericalBreakdownError("Newton polish of the roots overflows double precision")
    refined = np.array(refined)
    radius = 1e-6 * (1.0 + float(np.abs(refined).max()))
    # np.hypot on the parts, not np.abs, rounds like the scalar abs
    diff = refined[:, None] - refined[None, :]
    dist = np.hypot(diff.real, diff.imag)
    # single-linkage clusters at the radius and a factor 4 either way, in one
    # pass: each point takes the lowest label among itself and its neighbours
    # until no label moves; label[i] == i starts a cluster, in index order
    near = dist <= np.array([radius, radius * 0.25, radius * 4.0])[:, None, None]
    n = refined.size
    index = np.arange(n)
    labels = np.tile(index, (3, 1))
    while True:
        lowest = np.minimum(labels, np.where(near, labels[:, None, :], n).min(axis=2))
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    starts = np.count_nonzero(labels == index, axis=1)
    if not (starts == starts[0]).all():
        raise ClusterAmbiguityError(
            f"root clusters unstable near radius {radius!r}; "
            "multiplicities cannot be assigned reliably"
        )
    label = labels[0]
    groups = [refined[label == first] for first in np.flatnonzero(label == index)]
    # group.sum() / group.size is what np.mean computes for a complex group
    entries = [(complex(group.sum() / group.size), group.size) for group in groups]
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return VorticityDivisor(tuple(entries))


@dataclass(frozen=True)
class IntegralityRecord:
    """Circulation of one contour against the nearest integer."""

    value: float
    nearest: int
    deviation: float
    ok: bool

    @classmethod
    def of(cls, value):
        """The record of a circulation: ok when it lies within INTEGRALITY_TOL of its nearest integer."""
        nearest = int(np.rint(value))
        deviation = abs(value - nearest)
        return cls(value, nearest, deviation, deviation <= INTEGRALITY_TOL)


def bohr_sommerfeld_check(chi: SpinWaveFunction, contours) -> list:
    """Quantization check: each contour circulation must be an integer.

    Integer circulation is single-valuedness of the wave function's phase
    (trivial holonomy of the velocity viewed as a flat connection); records
    with deviation beyond INTEGRALITY_TOL come back flagged ok=False.
    """
    return [IntegralityRecord.of(circulation(chi, contour)) for contour in contours]


def wavefunction_from_json(source) -> SpinWaveFunction:
    """Parse a wave function from JSON: coefficient or factored form.

    Coefficient form: {"two_s": 3, "coeffs_re": [...], "coeffs_im": [...]}
    (im optional). Factored form: {"roots": [[re, im, mult], ...]} with an
    optional "two_s" override when the degree is deficient. Degrees and
    multiplicities are bounded by jsonio.MAX_DEGREE.
    """
    data = jsonio.load_object(source, "wave function")
    two_s = data.get("two_s")
    if "roots" in data:
        raw = data["roots"]
        if not isinstance(raw, list):
            raise ValueError("'roots' must be a list of [re, im, mult] triples")
        triples = jsonio.real_array("roots", raw, (len(raw), 3)).tolist()
        pairs = [
            (re + 1j * im, jsonio.integer(f"roots[{idx}][2]", mult, 1, jsonio.MAX_DEGREE))
            for idx, (re, im, mult) in enumerate(triples)
        ]
        jsonio.integer("total multiplicity of roots", sum(mu for _, mu in pairs), 0, jsonio.MAX_DEGREE)
        if two_s is not None:
            two_s = jsonio.integer("two_s", two_s, 0, jsonio.MAX_DEGREE)
        return SpinWaveFunction.from_roots(pairs, two_s=two_s)
    two_s = jsonio.integer("two_s", two_s, 0, jsonio.MAX_DEGREE)
    re = jsonio.real_array("coeffs_re", data.get("coeffs_re"), (two_s + 1,))
    if data.get("coeffs_im") is not None:
        im = jsonio.real_array("coeffs_im", data["coeffs_im"], (two_s + 1,))
    else:
        im = np.zeros(two_s + 1)
    return SpinWaveFunction(two_s, re + 1j * im)


def contour_from_json(source):
    """Parse a contour: {"circle": {...}} or {"polygon": {...}}.

    A circle takes at most jsonio.MAX_GRID_NODES nodes; a polygon at most
    jsonio.MAX_GAUSS_NODES per edge and MAX_GRID_NODES in all.
    """
    data = jsonio.load_object(source, "contour")
    if "circle" in data:
        params = data["circle"]
        if not isinstance(params, dict):
            raise ValueError("'circle' must be an object")
        x, y = jsonio.real_array("circle.center", params.get("center", [0.0, 0.0]), (2,)).tolist()
        radius = jsonio.real_array("circle.radius", params.get("radius"), ())
        nodes = jsonio.integer("circle.nodes", params.get("nodes", 256), 4, jsonio.MAX_GRID_NODES)
        return CircleContour(x + 1j * y, radius, nodes, bool(params.get("ccw", True)))
    if "polygon" in data:
        params = data["polygon"]
        if not isinstance(params, dict):
            raise ValueError("'polygon' must be an object")
        raw = params.get("vertices")
        if not isinstance(raw, list) or len(raw) < 3:
            raise ValueError("'polygon.vertices' must list at least 3 [re, im] pairs")
        verts = tuple(x + 1j * y for x, y in jsonio.real_array("polygon.vertices", raw, (len(raw), 2)).tolist())
        most = min(jsonio.MAX_GAUSS_NODES, jsonio.MAX_GRID_NODES // len(verts))
        nodes = jsonio.integer("polygon.nodes_per_edge", params.get("nodes_per_edge", 32), 2, most)
        return PolygonContour(verts, nodes)
    raise ValueError("contour JSON needs a 'circle' or 'polygon' key")
