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

from . import jsonio

__all__ = [
    "EXCLUSION_TOL",
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

# The one-parameter diagonal subgroup diag(e^{-i a/2}, e^{+i a/2}) acts on the
# monomial zeta^k by the phase e^{-i(k-s)a}; differentiating at the identity
# gives SZ_ACTION_SIGN * i * (S_z action).
SZ_ACTION_SIGN = -1.0


class ContourTooCloseError(ValueError):
    """Contour passes within the exclusion tolerance of a root."""


class ClusterAmbiguityError(ValueError):
    """Root clustering changes with the clustering radius; multiplicities unsafe."""


class NumericalBreakdownError(ArithmeticError):
    """Finite input whose divisor or circulation leaves double precision.

    A derivative coefficient, the companion matrix, a root or the contour
    integral overflows.

    Not a ValueError: the input is well formed, the arithmetic broke down.
    """


class SpinWaveFunction:
    """Polynomial wave function of a spin-s particle, s = two_s / 2.

    Coefficients are indexed lowest power first: chi(zeta) = sum c_k zeta^k,
    k = 0 .. 2s. The natural inner product makes the monomials orthogonal
    with <zeta^k, zeta^k> = 1 / C(2s, k); the rotation action below is
    unitary for it.
    """

    __slots__ = ("two_s", "coeffs", "_dcoeffs", "_divisor")

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
            dc = P.polyder(c)
        dc.setflags(write=False)
        object.__setattr__(self, "two_s", int(two_s))
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_dcoeffs", dc)
        # the VorticityDivisor, or the message of its ClusterAmbiguityError
        object.__setattr__(self, "_divisor", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpinWaveFunction is immutable")

    @property
    def spin(self):
        return self.two_s / 2.0

    @property
    def effective_degree(self):
        """Degree after stripping trailing coefficients below round-off scale."""
        mags = np.abs(self.coeffs)
        peak = mags.max()
        if peak == 0.0:
            return 0
        live = np.nonzero(mags > 1e-12 * peak)[0]
        return int(live[-1]) if live.size else 0

    @classmethod
    def from_roots(cls, roots_with_mult, two_s=None):
        """Monic polynomial prod (zeta - a)^mu from (root, multiplicity) pairs."""
        c = np.array([1.0 + 0.0j])
        total = 0
        for a, mu in roots_with_mult:
            if not isinstance(mu, (int, np.integer)) or mu < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {mu!r}")
            total += int(mu)
            c = P.polymul(c, P.polypow([-complex(a), 1.0], int(mu)))
        if two_s is None:
            two_s = total
        if total > two_s:
            raise ValueError(f"total multiplicity {total} exceeds 2s = {two_s}")
        coeffs = np.zeros(two_s + 1, dtype=complex)
        coeffs[: c.size] = c
        return cls(two_s, coeffs)

    def __call__(self, zeta):
        return P.polyval(zeta, self.coeffs)

    def derivative_values(self, zeta):
        return P.polyval(zeta, self._dcoeffs)

    def log_derivative(self, zeta):
        """chi'(zeta) / chi(zeta); poles at the roots."""
        return self.derivative_values(zeta) / self(zeta)

    def weighted_norm(self):
        weights = np.array([1.0 / math.comb(self.two_s, k) for k in range(self.two_s + 1)])
        return float(np.sqrt(np.sum(weights * np.abs(self.coeffs) ** 2)))

    def normalized(self):
        return SpinWaveFunction(self.two_s, self.coeffs / self.weighted_norm())

    @property
    def is_normalized(self):
        return abs(self.weighted_norm() - 1.0) < 1e-10

    def roots(self):
        """Root locations repeated by multiplicity (from the cached divisor)."""
        div = self.divisor()
        return np.array([a for a, mu in div.entries for _ in range(mu)]) if div.entries else np.array([])

    def divisor(self):
        """The vorticity divisor, computed once; an ambiguous clustering raises on every call."""
        if self._divisor is None:
            try:
                found = vorticity_divisor(self)
            except ClusterAmbiguityError as exc:
                found = str(exc)
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
        col = P.polymul(left[two_s - k], right[k])
        out[: col.size, k] = col
    return out


def _powers(c, top):
    """[c^0, c^1, ..., c^top], each as P.polypow(c, j) builds it (np.convolve with c, j - 1 times)."""
    powers = [P.polypow(c, 0), P.polypow(c, 1)]
    while len(powers) <= top:
        powers.append(np.convolve(powers[-1], powers[1]))
    return powers[: top + 1]


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
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.nodes < 4:
            raise ValueError(f"need at least 4 quadrature nodes, got {self.nodes}")

    def quadrature(self):
        """(points, weighted tangents): integral of f dz ~ sum f(points) * tangents."""
        sign = 1.0 if self.ccw else -1.0
        tau = np.arange(self.nodes) / self.nodes
        ring = np.exp(sign * 2j * np.pi * tau)
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

    def quadrature(self):
        t, w = _gauss_legendre(self.nodes_per_edge)
        points = []
        tangents = []
        verts = self.vertices
        for idx in range(len(verts)):
            a, b = verts[idx], verts[(idx + 1) % len(verts)]
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            points.append(mid + t * half)
            tangents.append(w * half)
        return np.concatenate(points), np.concatenate(tangents)

    def distances_to(self, points) -> np.ndarray:
        """Distance from each point of a 1-d complex array to the polygon."""
        z = np.asarray(points, dtype=complex)
        best = np.full(z.shape, np.inf)
        verts = self.vertices
        for idx in range(len(verts)):
            a, b = verts[idx], verts[(idx + 1) % len(verts)]
            edge = b - a
            length2 = abs(edge) ** 2
            frac = 0.0
            if length2 != 0:
                along = (z.real - a.real) * edge.real + (z.imag - a.imag) * edge.imag
                frac = np.clip(along / length2, 0.0, 1.0)
            # z - (a + frac * edge) in the scalar formula's order; fmin skips
            # a NaN distance as the scalar min over edges did
            foot_re, foot_im = a.real + frac * edge.real, a.imag + frac * edge.imag
            best = np.fmin(best, np.hypot(z.real - foot_re, z.imag - foot_im))
        return best


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


def total_spin_circulation(chi: SpinWaveFunction, nodes=256) -> float:
    """Circulation around all finite roots: the effective degree of chi.

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
    ring = CircleContour(0.0, 2.0 * maxmod + 1.0, nodes=nodes)
    return circulation(chi, ring)


def _cluster(dist, radius):
    """Single-linkage clusters at the given radius, from a pairwise-distance matrix.

    Returns each point's cluster label, the first index in its cluster, so
    the points with label[i] == i start the clusters in index order.
    """
    n = len(dist)
    near = dist <= radius
    label = np.arange(n)
    while True:
        # each point takes the lowest label among itself and its neighbours
        lowest = np.minimum(label, np.where(near, label, n).min(axis=1))
        if np.array_equal(lowest, label):
            return label
        label = lowest


def _horner(coeffs, z):
    """P.polyval(z, coeffs) for a list of Python complex coefficients and a scalar z.

    Python's complex product and sum round like numpy's scalar arithmetic,
    so the value is the same to the last bit; numpy's array product (fused
    multiply-add) is not.
    """
    value = coeffs[-1] + z * 0
    for c in coeffs[-2::-1]:
        value = c + value * z
    return value


def vorticity_divisor(chi: SpinWaveFunction) -> VorticityDivisor:
    """Roots with multiplicities via companion-matrix eigenvalues.

    Raw roots are clustered within 1e-6 (1 + max modulus); simple roots are
    Newton-polished, multiple roots take the cluster mean. Clustering that
    changes when the radius moves a factor 4 either way raises
    ClusterAmbiguityError instead of guessing.
    """
    deg = chi.effective_degree
    if deg == 0:
        return VorticityDivisor(())
    c = chi.coeffs[: deg + 1]
    # the derivative of the truncation is the truncated derivative
    cs, dcs = c.tolist(), chi._dcoeffs[:deg].tolist()
    if not all(map(cmath.isfinite, dcs)):
        raise NumericalBreakdownError("derivative coefficients overflow double precision")

    def polish(z):
        # Newton converges quadratically on simple roots and pulls the
        # eigenvalue cloud of a multiple root well inside the cluster radius
        for _ in range(20):
            deriv = _horner(dcs, z)
            if deriv == 0:
                return z
            # numpy's complex division, which rounds unlike Python's
            step = complex(np.complex128(_horner(cs, z)) / deriv)
            if abs(step) > 0.1 * (1.0 + abs(z)):
                return z  # left the local basin; keep the eigenvalue estimate
            z -= step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
        return z

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        try:
            eigenvalues = np.roots(c[::-1]).tolist()
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
    index = np.arange(refined.size)
    label = _cluster(dist, radius)
    firsts = np.flatnonzero(label == index)
    for factor in (0.25, 4.0):
        if np.count_nonzero(_cluster(dist, radius * factor) == index) != firsts.size:
            raise ClusterAmbiguityError(
                f"root clusters unstable near radius {radius!r}; "
                "multiplicities cannot be assigned reliably"
            )
    groups = [refined[label == first] for first in firsts]
    entries = [(complex(np.mean(group)), group.size) for group in groups]
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return VorticityDivisor(tuple(entries))


@dataclass(frozen=True)
class IntegralityRecord:
    """Circulation of one contour against the nearest integer."""

    value: float
    nearest: int
    deviation: float
    ok: bool


def bohr_sommerfeld_check(chi: SpinWaveFunction, contours, tol=1e-8) -> list:
    """Quantization check: each contour circulation must be an integer.

    Integer circulation is single-valuedness of the wave function's phase
    (trivial holonomy of the velocity viewed as a flat connection); records
    with deviation beyond tol come back flagged ok=False.
    """
    out = []
    for contour in contours:
        value = circulation(chi, contour)
        nearest = int(np.rint(value))
        deviation = abs(value - nearest)
        out.append(IntegralityRecord(value, nearest, deviation, deviation <= tol))
    return out


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
