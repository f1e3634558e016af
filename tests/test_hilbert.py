"""Hilbert-space layer: expectations, dispersion, evolution, JSON ingestion."""

import json

import numpy as np
import pytest

from helpers import random_hermitian, random_state
from qhydro.hilbert import (
    DegenerateSpectrumError,
    HermitianOperator,
    StateVector,
    dispersion_squared,
    evolve,
    expectation,
    hermitian_from_json,
    survival_probability,
)

H01 = HermitianOperator.diagonal([0.0, 1.0])
EQUAL = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_expectation_eigenstate():
    assert expectation(H01, StateVector.basis(2, 0)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_equal_superposition():
    # direct arithmetic: (0 + 1) / 2
    assert expectation(H01, EQUAL) == pytest.approx(0.5, abs=1e-14)


def test_expectation_identity_operator():
    rng = np.random.default_rng(11)
    eye = HermitianOperator(np.eye(4))
    for _ in range(5):
        assert expectation(eye, random_state(rng, 4)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(H01, StateVector.basis(3, 0))


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector([1.0, 1.0])
    v = StateVector([1.0, 1.0], normalize=True)
    assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e308, 1e-160, 1e-200, 5e-324])
def test_normalize_keeps_extreme_but_finite_amplitudes(scale):
    # the plain norm overflows to inf or underflows to 0 (or to a subnormal square) for these
    v = StateVector([scale, scale * 1j], normalize=True)
    assert np.abs(v.amplitudes) == pytest.approx([np.sqrt(0.5)] * 2, rel=1e-15)
    assert float(np.linalg.norm(v.amplitudes)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_normalize_extremes_through_charts_and_stacks():
    from qhydro.hilbert import normalized_rows
    from qhydro.projective import representative

    v = StateVector(representative(0, [1e308, 1e308]), normalize=True)
    assert float(np.linalg.norm(v.amplitudes)) == pytest.approx(1.0, abs=1e-15)
    assert abs(v.amplitudes[1]) == pytest.approx(1.0, abs=1e-15)
    # an ordinary row next to extreme ones equals the row normalized alone
    rng = np.random.default_rng(13)
    row = rng.normal(size=3) + 1j * rng.normal(size=3)
    rows = normalized_rows(np.array([row, [1e308, 0, 0], [0, 1e-200, 0]]))
    assert np.array_equal(rows[0], normalized_rows(row[None])[0])
    assert np.array_equal(rows[1:], [[1, 0, 0], [0, 1, 0]])
    for zero in ([0.0, 0.0], [0.0, -0.0j]):
        with pytest.raises(ValueError, match="must be nonzero"):
            StateVector(zero, normalize=True)
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(zero)
    with pytest.raises(ValueError, match="not normalized"):
        StateVector([1e308, 1e308])
    with pytest.raises(ValueError, match="non-finite"):
        StateVector([np.inf, 1.0], normalize=True)


def test_dispersion_examples():
    assert dispersion_squared(H01, StateVector.basis(2, 1)) == pytest.approx(0.0, abs=1e-14)
    assert dispersion_squared(H01, EQUAL) == pytest.approx(0.25, abs=1e-14)
    H123 = HermitianOperator.diagonal([1.0, 2.0, 3.0])
    v = StateVector(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    # ((lambda_2 - lambda_0) / 2)^2
    assert dispersion_squared(H123, v) == pytest.approx(1.0, abs=1e-13)


def test_dispersion_zero_at_every_eigenvector():
    rng = np.random.default_rng(7)
    H = random_hermitian(rng, 5)
    for k in range(5):
        ek = StateVector(H.eigenvectors[:, k], normalize=True)
        assert dispersion_squared(H, ek) == pytest.approx(0.0, abs=1e-12)


def test_dispersion_phase_and_shift_invariance():
    rng = np.random.default_rng(8)
    H = random_hermitian(rng, 4)
    v = random_state(rng, 4)
    base = dispersion_squared(H, v)
    shifted = HermitianOperator(H.matrix + 2.7 * np.eye(4))
    rotated = StateVector(np.exp(1.3j) * v.amplitudes)
    assert dispersion_squared(shifted, v) == pytest.approx(base, abs=1e-11)
    assert dispersion_squared(H, rotated) == pytest.approx(base, abs=1e-12)


def test_evolve_identity_at_zero_time():
    rng = np.random.default_rng(9)
    H = random_hermitian(rng, 3)
    v = random_state(rng, 3)
    assert evolve(H, v, 0.0).allclose(v, tol=1e-14)


def test_evolve_eigenstate_stationary():
    out = evolve(H01, StateVector.basis(2, 0), 17.3)
    # eigenvalue 0: the phase is exactly 1
    assert out.allclose(StateVector.basis(2, 0), tol=1e-14)


def test_evolve_equal_superposition_half_period():
    out = evolve(H01, EQUAL, np.pi)
    expected = StateVector(np.array([1.0, -1.0]) / np.sqrt(2.0))
    assert out.phase_equal(expected, tol=1e-12)
    assert out.allclose(expected, tol=1e-12)


def test_evolve_preserves_norm():
    rng = np.random.default_rng(10)
    for dim in (2, 5, 9):
        H = random_hermitian(rng, dim, spectral_range=3.0)
        v = random_state(rng, dim)
        for t in rng.uniform(-10.0, 10.0, size=5):
            out = evolve(H, v, float(t))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_survival_quadratic_coefficient():
    # 1 - |<v|e^{-iHt}v>|^2 = (Delta H)^2 t^2 + O(t^4)
    rng = np.random.default_rng(12)
    for dim in (2, 3, 4):
        H = random_hermitian(rng, dim)
        v = random_state(rng, dim)
        t = 1e-2
        fitted = (1.0 - survival_probability(H, v, t)) / t**2
        target = dispersion_squared(H, v)
        assert fitted == pytest.approx(target, rel=0.01)


def test_hermiticity_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_degenerate_spectrum_flagged():
    H = HermitianOperator.diagonal([1.0, 1.0, 2.0])
    with pytest.raises(DegenerateSpectrumError):
        H.require_nondegenerate()
    random_hermitian(np.random.default_rng(13), 4).require_nondegenerate()


def test_phase_equality_predicates():
    v = StateVector([1.0, 0.0])
    w = StateVector([np.exp(0.4j), 0.0])
    assert v.phase_equal(w)
    assert not v.allclose(w)
    u = StateVector([1.0, 1.0j], normalize=True)
    assert u.phase_equal(StateVector(np.exp(0.7j) * u.amplitudes))
    assert not u.phase_equal(StateVector.basis(2, 0))


def test_hermitian_from_json_roundtrip(tmp_path):
    data = {
        "dim": 2,
        "re": [[0.0, 1.0], [1.0, 0.5]],
        "im": [[0.0, 0.25], [-0.25, 0.0]],
    }
    path = tmp_path / "H.json"
    path.write_text(json.dumps(data))
    H = hermitian_from_json(str(path))
    assert H.matrix[0, 1] == pytest.approx(1.0 + 0.25j)
    assert hermitian_from_json(data).matrix[1, 1] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "mangle, needle",
    [
        (lambda d: d.pop("dim"), "dim"),
        (lambda d: d.__setitem__("dim", 1), "dim"),
        (lambda d: d["re"][1].__setitem__(0, "x"), "re\\[1\\]\\[0\\]"),
        (lambda d: d["im"][0].__setitem__(1, float("nan")), "im\\[0\\]\\[1\\]"),
        (lambda d: d.__setitem__("re", [[0.0]]), "re"),
    ],
)
def test_hermitian_from_json_reports_offending_entry(mangle, needle):
    data = {"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    mangle(data)
    with pytest.raises(ValueError, match=needle):
        hermitian_from_json(data)


def test_dispersion_stack_matches_row_by_row_and_keeps_the_negative_guard():
    rng = np.random.default_rng(70)
    H = random_hermitian(rng, 4)
    rows = np.array([random_state(rng, 4).amplitudes for _ in range(6)])
    values = dispersion_squared(H, rows)
    for row, value in zip(rows, values):
        assert value == dispersion_squared(H, StateVector(row))
    # an eigenvector row clamps to exactly zero or stays at round-off
    assert 0.0 <= dispersion_squared(H, H.eigenvectors.T.copy()).max() < 1e-14
    # a row of norm 2 has |Hv|^2 - <v|Hv>^2 far below zero: the stack raises
    doubled = np.array([rows[0], 2.0 * H.eigenvectors[:, 3]])
    with pytest.raises(ValueError, match="negative beyond round-off"):
        dispersion_squared(H, doubled)
    with pytest.raises(ValueError, match="dimension mismatch"):
        dispersion_squared(H, rows[:, :3])
