"""Fubini-Study charts: normalization, fields, spheres, chart covariance."""

import numpy as np
import pytest

from helpers import assert_same_curve, random_hermitian, random_state
from qhydro.hilbert import HermitianOperator, StateVector, dispersion_squared, evolve
from qhydro.projective import (
    AffineChart,
    GeodesicSphere,
    TangentAtPoint,
    chart_manifold,
    chart_of,
    dispersion_via_metric,
    fubini_study_distance,
    fubini_study_metric,
    fundamental_field,
    fundamental_field_at,
    horizontal_lift,
    project_tangent,
)
from qhydro.riemann import (
    divergence,
    flow_integrate,
    geodesic_integrate,
    lie_derivative_metric,
)

H01 = HermitianOperator.diagonal([0.0, 1.0])


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
            chart = chart_of(state)
            assert np.abs(chart.coords).max() <= 1.0 + 1e-12
            back = chart.to_state()
            assert state.phase_equal(back, tol=1e-12)
            again = chart_of(back, chart.chart_index)
            assert np.abs(again.coords - chart.coords).max() < 1e-12


def test_chart_of_a_stack_and_chart_rows_group_states_by_chart():
    from qhydro.projective import chart_rows

    rng = np.random.default_rng(32)
    states = [random_state(rng, 4) for _ in range(12)]
    amps = np.array([state.amplitudes for state in states])
    groups = list(chart_rows([chart_of(state).chart_index for state in states]))
    assert [k for k, _ in groups] == sorted({chart_of(state).chart_index for state in states})
    assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == list(range(12))
    for k, rows in groups:
        assert np.array_equal(chart_of(amps[rows], k).coords, [chart_of(states[n]).coords for n in rows])
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
    g = fubini_study_metric(AffineChart(0, np.zeros(2)))
    assert np.abs(g - np.eye(2)).max() < 1e-14


def test_projective_line_circumference_is_pi():
    # the real-axis great circle through both poles, length 2 pi R with R = 1/2
    taus = np.linspace(-np.pi / 2 + 1e-4, np.pi / 2 - 1e-4, 20001)
    length = 0.0
    for a, b in zip(taus[:-1], taus[1:]):
        mid = (a + b) / 2.0
        xy = np.array([np.tan(mid), 0.0])
        g = fubini_study_metric(AffineChart(0, xy))
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
    end = AffineChart(0, curve.points[-1]).to_state()
    start = StateVector.basis(2, 0)
    assert fubini_study_distance(start, end) == pytest.approx(np.pi / 4, abs=1e-7)
    # after pi/4 the geodesic sits on the equator |zeta| = 1
    assert np.linalg.norm(curve.points[-1]) == pytest.approx(1.0, abs=1e-7)


def test_metric_positive_definite_at_random_points():
    rng = np.random.default_rng(32)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        chart = random_chart_point(rng, dim)
        g = fubini_study_metric(chart)
        assert np.linalg.eigvalsh(g).min() > 0.0


# ---------------------------------------------------------------------------
# Fundamental field


def test_identity_operator_generates_no_motion():
    rng = np.random.default_rng(33)
    eye = HermitianOperator(np.eye(3))
    for _ in range(10):
        chart = random_chart_point(rng, 3)
        assert np.abs(fundamental_field_at(eye, chart)).max() < 1e-14


def test_field_at_equator_is_tangent_with_half_speed():
    chart = chart_of(StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    X = fundamental_field_at(H01, chart)
    # zeta = 1: the flow moves along the unit circle, g-speed sqrt(1/4)
    assert X @ chart.coords == pytest.approx(0.0, abs=1e-14)  # tangent to |zeta| = 1
    g = fubini_study_metric(chart)
    assert np.sqrt(X @ g @ X) == pytest.approx(0.5, abs=1e-12)


def test_field_vanishes_at_eigenstates():
    assert np.abs(fundamental_field_at(H01, AffineChart(0, np.zeros(2)))).max() < 1e-14
    assert np.abs(fundamental_field_at(H01, AffineChart(1, np.zeros(2)))).max() < 1e-14


def test_field_horizontal_lift_formula():
    rng = np.random.default_rng(34)
    H = random_hermitian(rng, 4)
    state = random_state(rng, 4)
    chart = chart_of(state)
    v, w = horizontal_lift(chart, fundamental_field_at(H, chart))
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
            chart = random_chart_point(rng, dim)
            M = chart_manifold(dim, chart.chart_index)
            X = fundamental_field(H, chart.chart_index)
            assert np.abs(lie_derivative_metric(M, X, chart.coords)).max() < 1e-5


def test_schrodinger_field_is_divergence_free():
    rng = np.random.default_rng(37)
    H = random_hermitian(rng, 4)
    for _ in range(10):
        chart = random_chart_point(rng, 4)
        M = chart_manifold(4, chart.chart_index)
        X = fundamental_field(H, chart.chart_index)
        assert abs(divergence(M, X, chart.coords)) < 1e-6


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
        chart_a = chart_of(state, 0)
        v, w = horizontal_lift(chart_a, u)
        len_a = float(u @ fubini_study_metric(chart_a) @ u)
        u_b = project_tangent(v, w, 1)
        chart_b = chart_of(state, 1)
        len_b = float(u_b @ fubini_study_metric(chart_b) @ u_b)
        assert abs(len_a - len_b) < 1e-8 * max(1.0, len_a)


def test_unitary_homogeneity_preserves_inner_products():
    rng = np.random.default_rng(39)
    for _ in range(10):
        dim = 4
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        U, _ = np.linalg.qr(raw)
        state = random_state(rng, dim)
        chart = chart_of(state)
        u1, u2 = rng.normal(size=2 * (dim - 1)), rng.normal(size=2 * (dim - 1))
        g = fubini_study_metric(chart)
        before = float(u1 @ g @ u2)
        v, w1 = horizontal_lift(chart, u1)
        _, w2 = horizontal_lift(chart, u2)
        moved = StateVector(U @ v, normalize=True)
        k = int(np.argmax(np.abs(moved.amplitudes)))
        t1 = project_tangent(U @ v, U @ w1, k)
        t2 = project_tangent(U @ v, U @ w2, k)
        g2 = fubini_study_metric(chart_of(moved, k))
        after = float(t1 @ g2 @ t2)
        assert abs(before - after) < 1e-8 * max(1.0, abs(before))


def test_chart_flow_matches_projected_evolution():
    H = HermitianOperator.diagonal([0.3, 1.1, 2.4])
    v0 = StateVector(np.array([0.8, 0.5, 0.33166247903554]), normalize=True)
    chart = chart_of(v0)
    X = fundamental_field(H, chart.chart_index)
    curve = flow_integrate(X, chart.coords, 1.0, 1000)
    worst = 0.0
    for t, xy in zip(curve.times, curve.points):
        exact = evolve(H, v0, float(t))
        flowed = AffineChart(chart.chart_index, xy).to_state()
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
    with pytest.raises(ValueError):
        GeodesicSphere(H01, 1, 1)
    with pytest.raises(ValueError):
        GeodesicSphere(H01, 0, 1)


def test_sphere_total_area():
    sph = GeodesicSphere(H01, 1, 0)
    thetas = np.linspace(0.0, np.pi, 2001)
    ring = np.trapezoid([sph.area_coefficient(t) for t in thetas], thetas)
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
        g = fubini_study_metric(chart_of(StateVector(v, normalize=True), k))
        pulled = np.array([[t1 @ g @ t1, t1 @ g @ t2], [t2 @ g @ t1, t2 @ g @ t2]])
        assert np.abs(pulled - sph.induced_metric(theta)).max() < 1e-8


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
        g = fubini_study_metric(AffineChart(int(ks[0]), coords[0]))
        u1, u2 = u1[0], u2[0]
        assert u1 @ g @ u1 == pytest.approx(1.0, abs=1e-12)
        assert u2 @ g @ u2 == pytest.approx(1.0, abs=1e-12)
        assert u1 @ g @ u2 == pytest.approx(0.0, abs=1e-12)


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
        metrics = fubini_study_metric(AffineChart(k, points))
        fields = X.stack(points)
        pressures = p.stack(points)
        assert metrics.shape == (17, 2 * (dim - 1), 2 * (dim - 1)) and fields.shape == points.shape
        for n, y in enumerate(points):
            assert np.array_equal(metrics[n], fubini_study_metric(AffineChart(k, y)))
            assert np.array_equal(metrics[n], M.metric(y))
            assert np.array_equal(fields[n], X(y))
            assert np.array_equal(fields[n], fundamental_field_at(H, AffineChart(k, y)))
            assert pressures[n] == p(y)


@pytest.mark.parametrize("dim", [3, 4])
def test_coord_bound_stencil_point_is_rejected(dim):
    import re

    from qhydro.riemann import ChartBoundaryError, christoffel

    M = chart_manifold(dim, 0, coord_bound=0.5)
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
    # coord_bound 1 cuts the chart of CP^2; the fast row crosses |zeta|_inf = 1 mid-run
    M = chart_manifold(3, 0, coord_bound=1.0)
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


@pytest.mark.parametrize("k", [3, -1, 7])
def test_field_on_a_chart_that_does_not_exist_is_refused_when_built(k):
    with pytest.raises(ValueError, match=f"^invalid chart: dim=3, index={k}$"):
        fundamental_field(random_hermitian(np.random.default_rng(82), 3), k)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_chart_stacks_equal_the_chart_functions_bit_for_bit(dim):
    rng = np.random.default_rng(83 + dim)
    H = random_hermitian(rng, dim)
    for k in range(dim):
        points = rng.uniform(-1.5, 1.5, size=(9, 2 * (dim - 1)))
        points[0] = 0.0
        points[1] = -0.0
        points[2, ::2] = -0.0
        chart = AffineChart(k, points)
        for stacked, reference in (
            (chart_manifold(dim, k).metric.stack(points), fubini_study_metric(chart)),
            (fundamental_field(H, k).stack(points), fundamental_field_at(H, chart)),
        ):
            assert stacked.shape == reference.shape
            assert np.array_equal(stacked, reference) and np.array_equal(np.signbit(stacked), np.signbit(reference))
