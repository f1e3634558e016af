"""Fubini-Study charts: normalization, fields, spheres, chart covariance."""

import dataclasses

import numpy as np
import pytest

from helpers import assert_same_curve, random_hermitian, random_state
from qhydro.hilbert import HermitianOperator, StateVector, dispersion_squared, evolve
from qhydro.projective import (
    GeodesicSphere,
    TangentAtPoint,
    chart_manifold,
    chart_of,
    dispersion_via_metric,
    fubini_study_distance,
    fubini_study_metric,
    fundamental_field,
    horizontal_lift,
    project_tangent,
    representative,
)
from qhydro.riemann import (
    StackFunction,
    divergence,
    exterior_derivative_oneform,
    flat_form,
    flow_integrate,
    geodesic_integrate,
    lie_derivative_metric,
)

H01 = HermitianOperator.diagonal([0.0, 1.0])


def bounded_chart_manifold(dim, chart_index, bound):
    """The chart manifold restricted to |zeta|_inf < bound, which keeps far-from-pivot points out of stencils."""
    domain = StackFunction(lambda points: np.abs(points).max(axis=1) < bound)
    return dataclasses.replace(chart_manifold(dim, chart_index), chart_domain=domain)


def random_chart_point(rng, dim):
    """Chart of a random state: coordinates inside the unit polydisc."""
    return chart_of(random_state(rng, dim))


# ---------------------------------------------------------------------------
# Charts


def test_chart_round_trip():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 5):
        for _ in range(20):
            state = random_state(rng, dim)
            k, xy = chart_of(state)
            assert np.abs(xy).max() <= 1.0 + 1e-12
            back = StateVector(representative(k, xy), normalize=True)
            assert state.phase_equal(back, tol=1e-12)
            _, again = chart_of(back, k)
            assert np.abs(again - xy).max() < 1e-12


def test_chart_of_a_stack_and_chart_rows_group_states_by_chart():
    from qhydro.projective import chart_rows

    rng = np.random.default_rng(32)
    states = [random_state(rng, 4) for _ in range(12)]
    amps = np.array([state.amplitudes for state in states])
    groups = list(chart_rows([chart_of(state)[0] for state in states]))
    assert [k for k, _ in groups] == sorted({chart_of(state)[0] for state in states})
    assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == list(range(12))
    for k, rows in groups:
        assert np.array_equal(chart_of(amps[rows], k)[1], [chart_of(states[n])[1] for n in rows])
    with pytest.raises(ValueError, match="explicit chart index"):
        chart_of(amps)
    with pytest.raises(ValueError, match="stacks of unit vectors"):
        fubini_study_distance(amps[0], amps[1])


def test_chart_requires_nonzero_pivot():
    with pytest.raises(ValueError, match="zero amplitude"):
        chart_of(StateVector.basis(3, 0), chart_index=1)


# ---------------------------------------------------------------------------
# Metric normalization


def test_metric_is_identity_at_chart_origin():
    g = fubini_study_metric(np.zeros(2))
    assert np.abs(g - np.eye(2)).max() < 1e-14


def test_projective_line_circumference_is_pi():
    # the real-axis great circle through both poles, length 2 pi R with R = 1/2
    taus = np.linspace(-np.pi / 2 + 1e-4, np.pi / 2 - 1e-4, 20001)
    length = 0.0
    for a, b in zip(taus[:-1], taus[1:]):
        mid = (a + b) / 2.0
        xy = np.array([np.tan(mid), 0.0])
        g = fubini_study_metric(xy)
        speed = np.sqrt(g[0, 0]) / np.cos(mid) ** 2  # |d zeta / d tau| = sec^2
        length += speed * (b - a)
    assert length == pytest.approx(np.pi, abs=1e-3)


def test_distance_between_orthogonal_states():
    assert fubini_study_distance(StateVector.basis(2, 0), StateVector.basis(2, 1)) == pytest.approx(
        np.pi / 2, abs=1e-14
    )


def test_geodesic_distance_matches_arc_length():
    # unit-speed geodesic from the pole travels distance t on the radius-1/2 sphere
    M = chart_manifold(2, 0)
    u0 = np.array([1.0, 0.0])  # unit g-speed at the origin
    curve = geodesic_integrate(M, np.zeros(2), u0, np.pi / 4, 400)
    end = StateVector(representative(0, curve.points[-1]), normalize=True)
    start = StateVector.basis(2, 0)
    assert fubini_study_distance(start, end) == pytest.approx(np.pi / 4, abs=1e-7)
    # after pi/4 the geodesic sits on the equator |zeta| = 1
    assert np.linalg.norm(curve.points[-1]) == pytest.approx(1.0, abs=1e-7)


def test_metric_positive_definite_at_random_points():
    rng = np.random.default_rng(32)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        _, xy = random_chart_point(rng, dim)
        g = fubini_study_metric(xy)
        assert np.linalg.eigvalsh(g).min() > 0.0


# ---------------------------------------------------------------------------
# Fundamental field


def test_identity_operator_generates_no_motion():
    rng = np.random.default_rng(33)
    eye = HermitianOperator(np.eye(3))
    for _ in range(10):
        k, xy = random_chart_point(rng, 3)
        assert np.abs(fundamental_field(eye, k)(xy)).max() < 1e-14


def test_field_at_equator_is_tangent_with_half_speed():
    k, xy = chart_of(StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    X = fundamental_field(H01, k)(xy)
    # zeta = 1: the flow moves along the unit circle, g-speed sqrt(1/4)
    assert X @ xy == pytest.approx(0.0, abs=1e-14)  # tangent to |zeta| = 1
    g = fubini_study_metric(xy)
    assert np.sqrt(X @ g @ X) == pytest.approx(0.5, abs=1e-12)


def test_field_vanishes_at_eigenstates():
    assert np.abs(fundamental_field(H01, 0)(np.zeros(2))).max() < 1e-14
    assert np.abs(fundamental_field(H01, 1)(np.zeros(2))).max() < 1e-14


def test_field_horizontal_lift_formula():
    rng = np.random.default_rng(34)
    H = random_hermitian(rng, 4)
    state = random_state(rng, 4)
    k, xy = chart_of(state)
    v, w = horizontal_lift(k, xy, fundamental_field(H, k)(xy))
    mean = np.vdot(v, H.matrix @ v).real
    expected = -1j * (H.matrix @ v - mean * v)
    assert np.abs(w - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# Dispersion identity and isometry properties


def test_dispersion_via_metric_examples():
    assert dispersion_via_metric(H01, StateVector.basis(2, 1)) == pytest.approx(0.0, abs=1e-14)
    equal = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert dispersion_via_metric(H01, equal) == pytest.approx(0.25, abs=1e-13)


def test_dispersion_via_metric_cross_oracle():
    rng = np.random.default_rng(35)
    H = random_hermitian(rng, 5, spectral_range=2.0)
    for _ in range(50):
        v = random_state(rng, 5)
        gap = abs(dispersion_via_metric(H, v) - dispersion_squared(H, v))
        assert gap < 1e-8


def test_schrodinger_field_is_killing():
    rng = np.random.default_rng(36)
    for dim in (2, 3, 4, 5):
        H = random_hermitian(rng, dim)
        for _ in range(8):
            k, xy = random_chart_point(rng, dim)
            M = chart_manifold(dim, k)
            X = fundamental_field(H, k)
            assert np.abs(lie_derivative_metric(M, X, xy)).max() < 1e-5


def test_schrodinger_field_is_divergence_free():
    rng = np.random.default_rng(37)
    H = random_hermitian(rng, 4)
    for _ in range(10):
        k, xy = random_chart_point(rng, 4)
        M = chart_manifold(4, k)
        X = fundamental_field(H, k)
        assert abs(divergence(M, X, xy)) < 1e-6


def test_vorticity_two_form_equals_its_closed_form_on_charts_0_and_1():
    # d(X^flat)_ab = -2 Im <w_a|(H - <H>)|w_b>, w_a the horizontal lift of the chart basis vector e_a
    rng = np.random.default_rng(38)
    for dim in (3, 4):
        H = random_hermitian(rng, dim)
        for k in (0, 1):
            M, X = chart_manifold(dim, k), fundamental_field(H, k)
            points = rng.uniform(-0.8, 0.8, size=(5, 2 * (dim - 1)))
            stencil = exterior_derivative_oneform(M, flat_form(M, X), points)
            for x, d_flat in zip(points, stencil):
                lifts = [horizontal_lift(k, x, e) for e in np.eye(len(x))]
                v, w = lifts[0][0], np.array([lift[1] for lift in lifts])
                centered = H.matrix - np.vdot(v, H.matrix @ v).real * np.eye(dim)
                closed = -2.0 * (w.conj() @ centered @ w.T).imag
                assert np.abs(d_flat - closed).max() <= 1e-6 * np.abs(closed).max()


# ---------------------------------------------------------------------------
# Chart covariance


def test_tangent_lengths_agree_across_charts():
    rng = np.random.default_rng(38)
    for _ in range(20):
        # two comparable amplitudes so both charts are usable
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps[0] = 1.0 + 0.2 * rng.normal()
        amps[1] = 1.0 + 0.2 * rng.normal()
        state = StateVector(amps, normalize=True)
        u = rng.normal(size=4)
        _, xy_a = chart_of(state, 0)
        v, w = horizontal_lift(0, xy_a, u)
        len_a = float(u @ fubini_study_metric(xy_a) @ u)
        u_b = project_tangent(v, w, 1)
        _, xy_b = chart_of(state, 1)
        len_b = float(u_b @ fubini_study_metric(xy_b) @ u_b)
        assert abs(len_a - len_b) < 1e-8 * max(1.0, len_a)


def test_unitary_homogeneity_preserves_inner_products():
    rng = np.random.default_rng(39)
    for _ in range(10):
        dim = 4
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        U, _ = np.linalg.qr(raw)
        state = random_state(rng, dim)
        k0, xy = chart_of(state)
        u1, u2 = rng.normal(size=2 * (dim - 1)), rng.normal(size=2 * (dim - 1))
        g = fubini_study_metric(xy)
        before = float(u1 @ g @ u2)
        v, w1 = horizontal_lift(k0, xy, u1)
        _, w2 = horizontal_lift(k0, xy, u2)
        moved = StateVector(U @ v, normalize=True)
        k = int(np.argmax(np.abs(moved.amplitudes)))
        t1 = project_tangent(U @ v, U @ w1, k)
        t2 = project_tangent(U @ v, U @ w2, k)
        g2 = fubini_study_metric(chart_of(moved, k)[1])
        after = float(t1 @ g2 @ t2)
        assert abs(before - after) < 1e-8 * max(1.0, abs(before))


def test_chart_flow_matches_projected_evolution():
    H = HermitianOperator.diagonal([0.3, 1.1, 2.4])
    v0 = StateVector(np.array([0.8, 0.5, 0.33166247903554]), normalize=True)
    k, x0 = chart_of(v0)
    X = fundamental_field(H, k)
    curve = flow_integrate(X, x0, 1.0, 1000)
    worst = 0.0
    for t, xy in zip(curve.times, curve.points):
        exact = evolve(H, v0, float(t))
        flowed = StateVector(representative(k, xy), normalize=True)
        worst = max(worst, fubini_study_distance(exact, flowed))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# Tangent vectors


def test_tangent_requires_horizontality():
    v = StateVector.basis(2, 0)
    with pytest.raises(ValueError, match="not horizontal"):
        TangentAtPoint(v, np.array([1.0, 0.0], dtype=complex))
    TangentAtPoint(v, np.array([0.0, 0.7 - 0.2j]))


# ---------------------------------------------------------------------------
# Geodesic spheres


def test_sphere_poles_are_eigenstates():
    sph = GeodesicSphere(H01, 1, 0)
    assert sph.state(0.0, 0.3).phase_equal(StateVector.basis(2, 0))
    assert sph.state(np.pi, 1.2).phase_equal(StateVector.basis(2, 1))


def test_sphere_rejects_bad_indices():
    # (1.9, 0.2) ended in numpy's IndexError
    H = HermitianOperator.diagonal([0.0, 1.0, 2.5])
    for i, j, message in (
        (1, 1, "'j' must be an integer in [0, 0], got 1"),
        (0, 1, "'i' must be an integer in [1, 2], got 0"),
        (1.9, 0.2, "'i' must be an integer in [1, 2], got 1.9"),
        (2, 0.5, "'j' must be an integer in [0, 1], got 0.5"),
    ):
        with pytest.raises(ValueError) as refused:
            GeodesicSphere(H, i, j)
        assert str(refused.value) == message
    assert GeodesicSphere(H, 2.0, np.int64(1)).omega == 1.5  # a whole float and a numpy integer are indices


def test_sphere_total_area():
    # the area form is (1/4) sin(theta) dtheta ^ dphi: a sphere of radius 1/2
    thetas = np.linspace(0.0, np.pi, 2001)
    ring = np.trapezoid(0.25 * np.sin(thetas), thetas)
    assert ring * 2.0 * np.pi == pytest.approx(np.pi, abs=1e-6)


def test_sphere_induced_metric_matches_pullback():
    rng = np.random.default_rng(40)
    H = random_hermitian(rng, 4, spectral_range=3.0)
    sph = GeodesicSphere(H, 3, 1)
    for _ in range(10):
        theta = rng.uniform(0.2, np.pi - 0.2)
        phi = rng.uniform(0.0, 2 * np.pi)
        v = sph.representative(theta, phi)
        k = int(np.argmax(np.abs(v)))
        d_th, d_ph = sph.embedding_velocities(theta, phi)
        t1 = project_tangent(v, d_th, k)
        t2 = project_tangent(v, d_ph, k)
        g = fubini_study_metric(chart_of(StateVector(v, normalize=True), k)[1])
        pulled = np.array([[t1 @ g @ t1, t1 @ g @ t2], [t2 @ g @ t1, t2 @ g @ t2]])
        assert np.abs(pulled - np.diag([0.25, 0.25 * np.sin(theta) ** 2])).max() < 1e-8


def test_sphere_flow_rotates_azimuth_forward():
    # d phi / dt = + omega in the sphere's azimuth convention
    sph = GeodesicSphere(H01, 1, 0)
    theta, phi, dt = 1.0, 0.4, 1e-3
    moved = evolve(H01, sph.state(theta, phi), dt)
    expected = sph.state(theta, phi + sph.omega * dt)
    assert fubini_study_distance(moved, expected) < 1e-8


def test_sphere_frame_is_orthonormal_and_smooth_at_poles():
    sph = GeodesicSphere(H01, 1, 0)
    for theta in (0.0, 0.7, np.pi / 2, 2.5, np.pi):
        ks, coords, u1, u2 = sph.oriented_frames([theta], [0.9])
        g = fubini_study_metric(coords[0])
        u1, u2 = u1[0], u2[0]
        assert u1 @ g @ u1 == pytest.approx(1.0, abs=1e-12)
        assert u2 @ g @ u2 == pytest.approx(1.0, abs=1e-12)
        assert u1 @ g @ u2 == pytest.approx(0.0, abs=1e-12)


def test_sphere_meridians_have_length_one_half_in_the_charts_of_the_frames():
    # the transport residual reads the theta component of a field X as 4 g(d/dtheta, X)
    sph = GeodesicSphere(random_hermitian(np.random.default_rng(7), 4), 3, 1)
    th, ph = np.meshgrid(np.linspace(0.0, np.pi, 9), np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False), indexing="ij")
    ks, coords, d_theta = sph.meridians(th.ravel(), ph.ravel())
    frame_ks, frame_coords, u1, _ = sph.oriented_frames(th.ravel(), ph.ravel())
    assert ks.tobytes() == frame_ks.tobytes() and coords.tobytes() == frame_coords.tobytes()
    lengths = np.sqrt(np.einsum("na,nab,nb->n", d_theta, fubini_study_metric(coords), d_theta))
    assert np.abs(lengths - 0.5).max() < 1e-12
    assert np.abs(u1 - 2.0 * d_theta).max() < 1e-12


# ---------------------------------------------------------------------------
# Stack evaluation: a point alone and the same point in a stack give the
# same floating-point numbers


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_stack_evaluation_equals_row_by_row(dim):
    from qhydro.fluid import pressure_scalar_field

    rng = np.random.default_rng(60 + dim)
    H = random_hermitian(rng, dim)
    for k in range(dim):
        points = rng.uniform(-0.9, 0.9, size=(17, 2 * (dim - 1)))
        M = chart_manifold(dim, k)
        X = fundamental_field(H, k)
        p = pressure_scalar_field(H, k)
        metrics = fubini_study_metric(points)
        fields = X.stack(points)
        pressures = p.stack(points)
        assert metrics.shape == (17, 2 * (dim - 1), 2 * (dim - 1)) and fields.shape == points.shape
        for n, y in enumerate(points):
            assert np.array_equal(metrics[n], fubini_study_metric(y))
            assert np.array_equal(metrics[n], M.metric(y))
            assert np.array_equal(fields[n], X(y))
            assert pressures[n] == p(y)


@pytest.mark.parametrize("dim", [3, 4])
def test_bounded_chart_stencil_point_is_rejected(dim):
    import re

    from qhydro.riemann import ChartBoundaryError, christoffel

    M = bounded_chart_manifold(dim, 0, 0.5)
    X = fundamental_field(random_hermitian(np.random.default_rng(67), dim), 0)
    x = np.full(2 * (dim - 1), 0.1)
    x[0] = 0.5 - 0.5e-4  # inside; its stencil point x + h e_0 is not
    bad = x.copy()
    bad[0] += 1e-4
    for call in (
        lambda: christoffel(M, x),
        lambda: divergence(M, X, x),
        lambda: lie_derivative_metric(M, X, x),
    ):
        with pytest.raises(ChartBoundaryError, match=re.escape(f"stencil point {bad} outside chart domain")):
            call()
    nonfinite = np.full(2 * (dim - 1), 0.1)
    nonfinite[1] = np.nan
    for call in (
        lambda: christoffel(M, nonfinite),
        lambda: divergence(M, X, nonfinite),
        lambda: lie_derivative_metric(M, X, nonfinite),
    ):
        with pytest.raises(ChartBoundaryError, match=re.escape(f"point {nonfinite} outside chart domain of {M.name}")):
            call()


def test_distance_resolves_nearby_rays():
    rng = np.random.default_rng(68)
    for dim in (2, 3, 5):
        u = random_state(rng, dim).amplitudes
        r = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        w = r - u * np.vdot(u, r)
        w /= np.linalg.norm(w)
        for d in (1e-10, 1e-8, 1e-3):
            v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * (np.cos(d) * u + np.sin(d) * w)
            distance = fubini_study_distance(StateVector(u), StateVector(v, normalize=True))
            assert distance == pytest.approx(d, rel=1e-3)
        assert fubini_study_distance(StateVector(u), StateVector(w)) == pytest.approx(np.pi / 2, abs=1e-14)


def test_distance_resolves_a_known_small_angle_and_matches_arccos_elsewhere():
    # the rays of e_0 and cos(eps) e_0 + sin(eps) e_1 are eps apart; these phases and amplitudes are exact
    eps = 1e-10
    for dim in (2, 3, 5):
        u = np.zeros(dim, dtype=complex)
        u[0] = 1.0
        for phase in (1.0, -1.0, 1j, -1j):
            v = u.copy()
            v[1] = np.sin(eps)
            v = phase * v
            assert fubini_study_distance(StateVector(u), StateVector(v, normalize=True)) == pytest.approx(eps, rel=1e-12)
    rng = np.random.default_rng(69)
    us, vs = (np.array([random_state(rng, 4).amplitudes for _ in range(50)]) for _ in range(2))
    overlaps = np.abs((us.conj() * vs).sum(axis=1))
    assert overlaps.max() < 0.99  # away from 1, where arccos is accurate
    distances = fubini_study_distance(us, vs)
    assert np.abs(distances - np.arccos(overlaps)).max() < 1e-13
    assert [fubini_study_distance(StateVector(a), StateVector(b)) for a, b in zip(us[:5], vs[:5])] == distances[:5].tolist()


def test_project_tangent_is_the_chart_velocity_of_the_curve():
    # the chart coordinates of v + t w move at project_tangent(v, w) at t = 0, whatever the vertical part of w
    rng = np.random.default_rng(70)
    for dim in (2, 3, 5):
        v, w = rng.normal(size=(2, 4, dim)) + 1j * rng.normal(size=(2, 4, dim))
        for k in range(dim):
            velocity = project_tangent(v, w, k)
            h = 1e-6
            moved = (chart_of(v + h * w, k)[1] - chart_of(v - h * w, k)[1]) / (2.0 * h)
            assert np.abs(velocity - moved).max() < 1e-6 * max(1.0, np.abs(velocity).max())
            vertical = project_tangent(v, w + (0.3 - 1.1j) * v, k)
            assert np.abs(vertical - velocity).max() < 1e-12 * max(1.0, np.abs(velocity).max())
            for row, (a, b) in zip(velocity, zip(v, w)):
                assert row.tobytes() == project_tangent(a, b, k).tobytes()  # the stack equals its one-row calls


# ---------------------------------------------------------------------------
# The closed-form geodesic acceleration of a chart


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_closed_form_acceleration_equals_the_christoffel_stencil_on_every_chart(monkeypatch, dim):
    from qhydro import riemann
    from qhydro.riemann import christoffel

    monkeypatch.setattr(riemann, "FD_STEP", riemann.GEODESIC_FD_STEP)
    rng = np.random.default_rng(90 + dim)
    for k in range(dim):
        M = chart_manifold(dim, k)
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, size=2 * (dim - 1))
            u = rng.normal(size=x.shape)
            stencil = -np.einsum("kij,i,j->k", christoffel(M, x), u, u)
            closed = M.geodesic_spray(np.concatenate([x, u])[None])[0, len(x) :]
            assert np.linalg.norm(closed - stencil) <= 1e-8 * np.linalg.norm(stencil)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_spray_passes_the_velocity_through_and_a_row_alone_is_its_row_of_a_stack(dim):
    rng = np.random.default_rng(190 + dim)
    n = 2 * (dim - 1)
    for k in range(dim):
        M = chart_manifold(dim, k)
        y = np.hstack([rng.uniform(-0.9, 0.9, size=(6, n)), rng.normal(size=(6, n))])
        spray = M.geodesic_spray(y)
        assert spray.shape == y.shape and spray[:, :n].tobytes() == y[:, n:].tobytes()
        for row, out in zip(y, spray):
            assert M.geodesic_spray(row[None]).tobytes() == out.tobytes()


def test_geodesics_refuse_starts_of_another_dimension_than_the_chart():
    M = chart_manifold(3, 0)
    with pytest.raises(ValueError, match=r"^x0 must have shape \(4,\) or \(M, 4\), got \(6,\)$"):
        geodesic_integrate(M, np.zeros(6), np.zeros(6), 1.0, 4)
    with pytest.raises(ValueError, match=r"^u0 must have shape \(4,\) or \(M, 4\), got \(2, 2\)$"):
        geodesic_integrate(M, np.zeros((2, 4)), np.zeros((2, 2)), 1.0, 4)


def test_closed_form_geodesic_through_the_point_at_infinity_is_refused():
    # unit speed from zeta = 0 reaches the chart's point at infinity at t = pi/2; each stage point's metric is checked
    with pytest.raises(ValueError, match="metric not positive-definite"):
        geodesic_integrate(chart_manifold(2, 0), np.zeros(2), np.array([1.0, 0.0]), 1.6, 400)


# ---------------------------------------------------------------------------
# Stacks of starts on CP^2..CP^4 charts: each row the curve of its one-start call


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_stacked_geodesics_and_flows_on_cpn_charts_equal_their_one_start_calls(dim):
    rng = np.random.default_rng(70 + dim)
    H = random_hermitian(rng, dim)
    for k in range(dim):
        M, X = chart_manifold(dim, k), fundamental_field(H, k)
        x0 = rng.uniform(-0.8, 0.8, size=(3, 2 * (dim - 1)))
        u0 = rng.normal(size=x0.shape) * 0.3
        for curve, x, u in zip(geodesic_integrate(M, x0, u0, 1.0, 30), x0, u0):
            assert_same_curve(curve, geodesic_integrate(M, x, u, 1.0, 30))
        for curve, x in zip(flow_integrate(X, x0, 1.0, 30), x0):
            assert_same_curve(curve, flow_integrate(X, x, 1.0, 30))


def test_stacked_geodesics_on_a_bounded_cpn_chart_freeze_the_row_that_leaves():
    # the bound 1 cuts the chart of CP^2; the fast row crosses |zeta|_inf = 1 mid-run
    M = bounded_chart_manifold(3, 0, 1.0)
    x0 = np.array([[0.1, 0.0, 0.0, 0.2], [0.5, 0.1, -0.2, 0.0], [-0.3, 0.3, 0.0, -0.1]])
    u0 = np.array([[0.1, 0.0, 0.05, 0.0], [1.5, 0.0, 0.0, 0.0], [0.0, -0.1, 0.1, 0.0]])
    curves = geodesic_integrate(M, x0, u0, 1.0, 40)
    assert [c.exited for c in curves] == [False, True, False] and 1 < len(curves[1]) < 41
    for curve, x, u in zip(curves, x0, u0):
        assert_same_curve(curve, geodesic_integrate(M, x, u, 1.0, 40))


# ---------------------------------------------------------------------------
# The metric and field stacks of a chart: the checks at their boundary, and
# the same bits as the chart-level functions


@pytest.mark.parametrize("width", [3, 5, 0])
def test_chart_stacks_refuse_odd_or_empty_coordinate_widths(width):
    import re

    H = random_hermitian(np.random.default_rng(80), 3)
    points = np.zeros((4, width))
    message = f"chart coords must be a flat (2n,) array or an (N, 2n) stack, got shape {points.shape}"
    for call in (
        lambda: chart_manifold(3, 0).metric.stack(points),
        lambda: fundamental_field(H, 1).stack(points),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_field_stack_refuses_coordinates_of_another_dimension():
    X = fundamental_field(random_hermitian(np.random.default_rng(81), 3), 0)
    with pytest.raises(ValueError, match=r"^dimension mismatch: operator 3, chart ambient 4$"):
        X.stack(np.zeros((2, 6)))
    with pytest.raises(ValueError, match=r"^dimension mismatch: operator 3, chart ambient 2$"):
        X(np.zeros(2))


def test_field_stack_and_apply_stack_refuse_a_flat_vector_with_the_expected_shape():
    import re

    H = random_hermitian(np.random.default_rng(82), 3)
    with pytest.raises(ValueError, match=re.escape("expected an (N, 4) stack of chart points, got shape (4,)")):
        fundamental_field(H, 0).stack(np.zeros(4))
    with pytest.raises(ValueError, match=re.escape("expected an (N, 3) stack of vectors, got shape (3,)")):
        H.apply_stack(np.zeros(3, dtype=complex))


@pytest.mark.parametrize("k", [3, -1, 7])
def test_field_on_a_chart_that_does_not_exist_is_refused_when_built(k):
    with pytest.raises(ValueError, match=f"^invalid chart: dim=3, index={k}$"):
        fundamental_field(random_hermitian(np.random.default_rng(82), 3), k)


@pytest.mark.parametrize("k", [-1, 3, 5])
def test_chart_of_representative_and_horizontal_lift_refuse_a_chart_that_does_not_exist(k):
    # CP^2: a state has 3 amplitudes, a chart point 4 coordinates
    for call in (
        lambda: chart_of(np.ones((2, 3)) / np.sqrt(3), k),
        lambda: representative(k, np.zeros(4)),
        lambda: representative(k, np.zeros((2, 4))),
        lambda: horizontal_lift(k, np.zeros(4), np.ones(4)),
    ):
        with pytest.raises(ValueError, match=f"^invalid chart: dim=3, index={k}$"):
            call()


@pytest.mark.parametrize("shape", [(3,), (4, 5), (0,), (4, 0), (2, 3, 4)])
def test_functions_of_chart_coordinates_refuse_odd_empty_or_3d_arrays(shape):
    import re

    H = random_hermitian(np.random.default_rng(84), 3)
    coords = np.zeros(shape)
    message = f"chart coords must be a flat (2n,) array or an (N, 2n) stack, got shape {shape}"
    for call in (
        lambda: representative(0, coords),
        lambda: fubini_study_metric(coords),
        lambda: fundamental_field(H, 0).stack(coords),
        lambda: horizontal_lift(0, coords, np.zeros(4)),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_horizontal_lift_refuses_a_stack_of_points():
    import re

    message = "horizontal_lift takes one chart point, a flat (2n,) array; got shape (5, 4)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        horizontal_lift(0, np.zeros((5, 4)), np.zeros(4))


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_chart_stacks_equal_the_chart_functions_bit_for_bit(dim):
    # each stack equals its one-point calls, signs of zero included
    rng = np.random.default_rng(83 + dim)
    H = random_hermitian(rng, dim)
    for k in range(dim):
        points = rng.uniform(-1.5, 1.5, size=(9, 2 * (dim - 1)))
        points[0] = 0.0
        points[1] = -0.0
        points[2, ::2] = -0.0
        M = chart_manifold(dim, k)
        X = fundamental_field(H, k)
        for stacked, one_point in (
            (M.metric.stack(points), M.metric),
            (fubini_study_metric(points), fubini_study_metric),
            (X.stack(points), X),
            (representative(k, points), lambda y: representative(k, y)),
        ):
            for row, y in zip(stacked, points):
                reference = one_point(y)
                assert row.shape == reference.shape and row.dtype == reference.dtype
                assert row.tobytes() == reference.tobytes()


def test_field_stack_longer_than_one_block_equals_its_one_row_calls(monkeypatch):
    from qhydro import hilbert

    monkeypatch.setattr(hilbert, "STACK_BLOCK", 3)
    rng = np.random.default_rng(87)
    for dim in (2, 4):
        H = random_hermitian(rng, dim)
        points = rng.uniform(-1.5, 1.5, size=(10, 2 * (dim - 1)))
        points[4] = -0.0
        for k in range(dim):
            X = fundamental_field(H, k)
            for row, y in zip(X.stack(points), points):
                assert row.tobytes() == X(y).tobytes()
        vectors = representative(0, points)
        for row, vector in zip(H.apply_stack(vectors), vectors):
            assert row.tobytes() == H.apply_stack(vector[None])[0].tobytes()
