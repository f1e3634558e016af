"""Shared generators for the test suite (seeded, deterministic)."""

import math

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


def spin_amplitudes(chi):
    """The unit state of a spin polynomial: amplitudes a_k = c_k / sqrt(binom(2s, k)), whose norm is weighted_norm."""
    weights = np.sqrt([math.comb(chi.two_s, k) for k in range(chi.two_s + 1)])
    return StateVector(chi.coeffs / weights, normalize=True)


def spin_matrices(two_s):
    """(J_x, J_y, J_z) of spin s = two_s / 2 in the monomial index order k: J_z = diag(k - s), J_+ raises k."""
    m = np.arange(two_s + 1) - two_s / 2.0
    plus = np.diag(np.sqrt((two_s / 2.0 - m[:-1]) * (two_s / 2.0 + m[:-1] + 1.0)), k=-1).astype(complex)
    return (plus + plus.T) / 2.0, (plus - plus.T) / 2j, np.diag(m).astype(complex)


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


def same_bits(a, b):
    """Two arrays equal bit for bit: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def count_metric_stacks(monkeypatch, calls):
    """Append ("metric", rows) to calls at every Fubini-Study metric evaluation of a chart manifold built from now on."""
    from qhydro import projective

    metric = projective.fubini_study_metric
    monkeypatch.setattr(projective, "fubini_study_metric", lambda xy: (calls.append(("metric", len(xy))), metric(xy))[1])


def count_field_stacks(monkeypatch, calls, owner, factory, kind):
    """Patch owner.factory so that each field it makes appends (kind, rows) to calls at every stack evaluation."""
    from qhydro.riemann import StackFunction

    make = getattr(owner, factory)

    def counted(H, k):
        F = make(H, k)
        return type(F)(StackFunction(lambda points: (calls.append((kind, len(points))), F.stack(points))[1]))

    monkeypatch.setattr(owner, factory, counted)


def field_with_pressure_gradient(eps):
    """A stand-in for fluid.fundamental_field that adds eps grad p, grad p in closed form: a flow with a meridian part."""
    from qhydro import fluid, projective
    from qhydro.hilbert import normalized_rows
    from qhydro.riemann import StackFunction, VectorField

    def field(H, k):
        X = projective.fundamental_field(H, k)

        def stack(points):
            v = normalized_rows(projective.representative(k, points))
            return X.stack(points) + eps * projective.project_tangent(v, fluid._variance_gradient_lifts(H, v), k)

        return VectorField(StackFunction(stack))

    return field


def winding_about(contour, a):
    """Winding number of a spin.CircleContour or spin.PolygonContour about the point a, from its geometry alone."""
    if hasattr(contour, "radius"):
        return (1 if contour.ccw else -1) if abs(a - contour.center) < contour.radius else 0
    v = np.array(contour.vertices) - a
    return int(round(float(np.angle(np.roll(v, -1) / v).sum()) / (2.0 * math.pi)))


def _distances(contour, a):
    """(distance from a, scale) per piece of a contour: the circle and its radius, or each edge and its length."""
    if hasattr(contour, "radius"):
        return [(abs(abs(a - contour.center) - contour.radius), contour.radius)]
    verts, pieces = contour.vertices, []
    for p, q in zip(verts, verts[1:] + verts[:1]):
        edge = q - p
        if edge:  # a zero-length edge is its vertex, which its neighbours end at
            t = min(1.0, max(0.0, ((a - p) * edge.conjugate()).real / abs(edge) ** 2))
            pieces.append((abs(a - (p + t * edge)), abs(edge)))
    return pieces


def contour_distance(contour, a):
    """Distance from the point a to a contour."""
    return min((d for d, _ in _distances(contour, a)), default=math.inf)


def contour_gap(contour, a):
    """Distance from a to a contour in units of its scale: the radius, or for a polygon each edge's length."""
    return min((d / scale for d, scale in _distances(contour, a)), default=math.inf)
