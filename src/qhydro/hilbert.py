"""Finite-dimensional complex Hilbert space: state vectors, Hermitian
observables, expectations, dispersion, and unitary time evolution (hbar = 1).

All objects are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import numpy as np

from . import jsonio

__all__ = [
    "StateVector",
    "HermitianOperator",
    "DegenerateSpectrumError",
    "expectation",
    "dispersion_squared",
    "evolve",
    "survival_probability",
    "hermitian_from_json",
    "normalized_rows",
]

# Relative thresholds for validating operator input; the underlying theory
# assumes exact self-adjointness and exact nondegeneracy.
HERMITICITY_RTOL = 1e-10
DEGENERACY_RTOL = 1e-8
NORM_TOL = 1e-10
PHASE_TOL = 1e-10
# Below this norm a row's sum of squares is subnormal or zero, and inexact.
_MIN_NORM = float(np.sqrt(np.finfo(float).tiny))
# Rows per block of the row products of HermitianOperator.apply_stack and the chart fields.
STACK_BLOCK = 4096


class DegenerateSpectrumError(ValueError):
    """Raised when an operation requires distinct eigenvalues and the
    spectrum has a gap below tolerance."""


class StateVector:
    """A pure state: a unit vector in C^(n+1), n >= 1.

    Equality of physical states is phase-insensitive; use
    `phase_equal` for that and `allclose` for strict amplitude equality.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, normalize=False):
        amp = np.asarray(amplitudes, dtype=complex).copy()
        if amp.ndim != 1 or amp.size < 2:
            raise ValueError(f"state vector must be 1-d with dimension >= 2, got shape {amp.shape}")
        if normalize:
            amp = normalized_rows(amp[None])[0]
        else:
            nrm = float(_row_norms(amp[None])[0])
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state vector not normalized: |v| = {nrm!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self):
        return self.amplitudes.size

    @classmethod
    def basis(cls, dim, k):
        """The canonical basis state e_k in C^dim."""
        amp = np.zeros(dim, dtype=complex)
        amp[k] = 1.0
        return cls(amp)

    def inner(self, other):
        """<self|other>, antilinear in self."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def phase_equal(self, other, tol=PHASE_TOL):
        """True when the two vectors describe the same ray: | |<u|v>| - 1 | < tol."""
        if self.dim != other.dim:
            return False
        return abs(abs(self.inner(other)) - 1.0) < tol

    def allclose(self, other, tol=1e-12):
        """Strict amplitude-wise equality (phase sensitive)."""
        return self.dim == other.dim and bool(
            np.allclose(self.amplitudes, other.amplitudes, rtol=0.0, atol=tol)
        )

    def __repr__(self):
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


def _row_norms(z):
    """The norm of each row of a complex (N, dim) stack, each summed on its own; inf where its sum of squares overflows."""
    if not np.isfinite(z.view(float)).all():
        raise ValueError("state vector has non-finite amplitudes")
    with np.errstate(over="ignore"):
        return np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=1))


def normalized_rows(z):
    """Each row of a complex (N, dim) stack divided by its norm: the normalizer of StateVector.

    Where a row's norm overflows, or its sum of squares underflows, the row
    is first divided by its largest real or imaginary part; ordinary rows
    never take that branch. An all-zero row raises.
    """
    norms = _row_norms(z)
    extreme = (norms < _MIN_NORM) | (norms == np.inf)
    if extreme.any():
        parts = z[extreme].view(float)
        scale = np.abs(parts).max(axis=1)
        if not scale.all():
            raise ValueError("state vector must be nonzero")
        z = z.copy()
        # real division: a complex one forms 1 / scale, which overflows for a subnormal scale
        z[extreme] = (parts / scale[:, None]).view(complex)
        norms[extreme] = _row_norms(z[extreme])
    return z / norms[:, None]


def _row_products(vectors, matrix):
    """matrix @ v for each row v of an (N, m) stack, as an (N, len(matrix)) stack.

    Each row is summed on its own (elementwise products, a row sum), so a
    row's result does not depend on the other rows, as a BLAS product's may.
    A stack longer than STACK_BLOCK goes in blocks of that many rows, to keep
    the (rows, len(matrix), m) temporary small.
    """
    if len(vectors) <= STACK_BLOCK:
        return np.add.reduce(vectors[:, None, :] * matrix, axis=2)
    blocks = range(0, len(vectors), STACK_BLOCK)
    return np.concatenate([_row_products(vectors[start : start + STACK_BLOCK], matrix) for start in blocks])


def _per_state(rows_fn, *states):
    """rows_fn, a function of (N, dim) stacks of unit vectors, on StateVectors (a float) or on stacks (N values)."""
    if isinstance(states[0], StateVector):
        return float(rows_fn(*(state.amplitudes[None] for state in states))[0])
    if any(np.ndim(stack) != 2 for stack in states):
        raise ValueError("expected StateVectors or (N, dim) stacks of unit vectors")
    return rows_fn(*(np.asarray(stack) for stack in states))


class HermitianOperator:
    """A self-adjoint operator on C^(n+1) with cached eigendecomposition.

    Parameters
    ----------
    matrix : array_like
        (n+1) x (n+1) complex matrix; must satisfy max|M - M^dag| below
        HERMITICITY_RTOL * |M|.
    """

    __slots__ = ("matrix", "_eigenvalues", "_eigenvectors")

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError(f"operator must be square with dimension >= 2, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator has non-finite entries")
        scale = max(float(np.abs(mat).max()), 1e-300)
        defect = float(np.abs(mat - mat.conj().T).max())
        if defect > HERMITICITY_RTOL * scale:
            raise ValueError(f"matrix is not Hermitian: max|M - M^dag| = {defect!r}")
        mat = (mat + mat.conj().T) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigenvalues", None)
        object.__setattr__(self, "_eigenvectors", None)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)).astype(complex))

    def _eig(self):
        if self._eigenvalues is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            object.__setattr__(self, "_eigenvalues", vals)
            object.__setattr__(self, "_eigenvectors", vecs)
        return self._eigenvalues, self._eigenvectors

    @property
    def eigenvalues(self):
        """Eigenvalues in ascending order."""
        return self._eig()[0]

    @property
    def eigenvectors(self):
        """Unitary matrix whose column k is the eigenvector of eigenvalue k."""
        return self._eig()[1]

    @property
    def spectral_range(self):
        vals = self.eigenvalues
        return float(vals[-1] - vals[0])

    def min_gap(self):
        vals = self.eigenvalues
        return float(np.min(np.diff(vals)))

    def require_nondegenerate(self):
        """Raise DegenerateSpectrumError unless all eigenvalue gaps clear tolerance."""
        rng = max(self.spectral_range, 1e-300)
        if self.min_gap() <= DEGENERACY_RTOL * rng:
            raise DegenerateSpectrumError(
                f"spectrum is degenerate to tolerance: min gap {self.min_gap()!r}, range {rng!r}"
            )

    def apply(self, v: StateVector) -> np.ndarray:
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: operator {self.dim}, state {v.dim}")
        return self.matrix @ v.amplitudes

    def apply_stack(self, vectors) -> np.ndarray:
        """The operator applied to each row of an (N, dim) stack of vectors, each row on its own (_row_products)."""
        if vectors.ndim != 2:
            raise ValueError(f"expected an (N, {self.dim}) stack of vectors, got shape {vectors.shape}")
        if vectors.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator {self.dim}, state {vectors.shape[-1]}")
        return _row_products(vectors, self.matrix)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def expectation(A: HermitianOperator, v: StateVector) -> float:
    """<v|Av> for a Hermitian A and normalized v.

    The raw inner product must be real up to round-off; a large imaginary
    residue indicates a non-Hermitian operator and raises.
    """
    raw = np.vdot(v.amplitudes, A.apply(v))
    scale = max(float(np.abs(A.matrix).max()), 1e-300)
    if abs(raw.imag) > 1e-10 * scale:
        raise ValueError(f"expectation has imaginary residue {raw.imag!r}")
    return float(raw.real)


def dispersion_squared(H: HermitianOperator, v):
    """Variance <v|H^2 v> - <v|H v>^2 of H: a float for a StateVector, one value per row of a unit stack.

    Computed as |Hv|^2 - <H>^2, which is nonnegative up to round-off; small
    negative round-off is clamped to zero, and a row negative beyond it
    raises. Each row is computed on its own (H.apply_stack, row sums).
    """

    def rows(vectors):
        w = H.apply_stack(vectors)
        mean = (vectors.real * w.real + vectors.imag * w.imag).sum(axis=1)
        second = (w.real * w.real + w.imag * w.imag).sum(axis=1)
        out = second - mean * mean
        negative = out < -1e-12 * np.maximum(second, 1.0)
        if negative.any():
            raise ValueError(f"dispersion came out negative beyond round-off: {float(out[negative.argmax()])!r}")
        return np.where(out < 0.0, 0.0, out)

    return _per_state(rows, v)


def evolve(H: HermitianOperator, v: StateVector, t: float) -> StateVector:
    """Schrodinger evolution exp(-iHt) v through the eigendecomposition of H.

    Unitary to round-off; the output is renormalized to kill the residual.
    """
    if v.dim != H.dim:
        raise ValueError(f"dimension mismatch: operator {H.dim}, state {v.dim}")
    vals, vecs = H.eigenvalues, H.eigenvectors
    coeffs = vecs.conj().T @ v.amplitudes
    out = vecs @ (np.exp(-1j * vals * t) * coeffs)
    return StateVector(out, normalize=True)


def survival_probability(H: HermitianOperator, v: StateVector, t: float) -> float:
    """|<v| exp(-iHt) v>|^2."""
    amp = v.inner(evolve(H, v, t))
    return float(min(abs(amp) ** 2, 1.0))


def hermitian_from_json(source) -> HermitianOperator:
    """Parse a Hermitian operator from JSON.

    Accepts a dict, a JSON string, or a path to a JSON file with layout
    `{"dim": n+1, "re": [[...]], "im": [[...]]}`; "im" may be omitted for
    real symmetric input. Validation errors name the offending entry.
    """
    data = jsonio.load_object(source, "hermitian")
    dim = jsonio.integer("dim", data.get("dim"), 2, jsonio.MAX_DIM)
    re = jsonio.real_array("re", data.get("re"), (dim, dim))
    im = jsonio.real_array("im", data["im"], (dim, dim)) if data.get("im") is not None else np.zeros((dim, dim))
    return HermitianOperator(re + 1j * im)
