"""Shared generators for the test suite (seeded, deterministic)."""

import numpy as np

from qhydro.hilbert import HermitianOperator, StateVector


def random_hermitian(rng, dim, spectral_range=1.0):
    """Random nondegenerate Hermitian matrix rescaled to the given spectral range."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = HermitianOperator((raw + raw.conj().T) / 2.0)
    scale = spectral_range / H.spectral_range
    H = HermitianOperator(H.matrix * scale)
    H.require_nondegenerate()
    return H


def random_state(rng, dim):
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(raw, normalize=True)


def round_sphere(radius=1.0, margin=0.05):
    """Round 2-sphere chart (theta, phi) avoiding the coordinate poles."""
    from qhydro.riemann import ChartManifold

    def metric(x):
        return np.diag([radius**2, radius**2 * np.sin(x[0]) ** 2])

    return ChartManifold(
        2, metric, lambda x: margin < x[0] < np.pi - margin, name="round_sphere"
    )


def euclidean_plane():
    from qhydro.riemann import ChartManifold

    return ChartManifold(2, lambda x: np.eye(2), name="plane")


def assert_same_curve(curve, reference):
    """Two DiscreteCurves equal bit for bit: times, points, velocities and their sign bits, length and exit."""
    assert len(curve) == len(reference) and curve.exited == reference.exited
    for name in ("times", "points", "velocities"):
        a, b = getattr(curve, name), getattr(reference, name)
        # array_equal takes -0.0 == 0.0: the sign bits are compared too
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
