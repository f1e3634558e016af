"""Chart geometry operators against closed-form and hand-computed oracles."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from helpers import assert_same_curve, euclidean_plane, round_sphere
from qhydro import riemann
from qhydro.fluid import schrodinger_trajectory
from qhydro.hilbert import HermitianOperator, StateVector
from qhydro.riemann import (
    GEODESIC_FD_STEP,
    ChartBoundaryError,
    ChartManifold,
    DiscreteCurve,
    OneForm,
    ScalarField,
    StackFunction,
    TwoForm,
    VectorField,
    christoffel,
    clairaut_check,
    covariant_derivative,
    covector_norm,
    differential,
    divergence,
    euler_residual,
    exterior_derivative_oneform,
    flat,
    flat_form,
    flow_integrate,
    geodesic_integrate,
    kinetic_energy_field,
    lie_derivative_metric,
    lie_derivative_oneform,
    lie_derivative_twoform,
    self_advection_identity_residual,
    sharp,
    surface_of_revolution,
    vector_norm,
)

PLANE = euclidean_plane()
ROTATION = VectorField(lambda x: np.array([-x[1], x[0]]))
DILATION = VectorField(lambda x: np.array([x[0], x[1]]))


def random_polynomial_metric(rng, dim=2):
    """SPD metric with quadratic coefficient functions (smooth, tame)."""
    A0 = rng.uniform(-0.4, 0.4, size=(dim, dim))
    A1 = rng.uniform(-0.4, 0.4, size=(dim, dim, dim))

    def metric(x):
        A = A0 + np.einsum("ijk,k->ij", A1, x) + 0.1 * np.outer(np.sin(x), x)
        return A @ A.T + np.eye(dim)

    return ChartManifold(dim, metric, lambda x: np.abs(x).max() < 3.0)


def random_polynomial_field(rng, dim=2):
    c0 = rng.uniform(-1.0, 1.0, size=dim)
    c1 = rng.uniform(-1.0, 1.0, size=(dim, dim))
    c2 = rng.uniform(-0.5, 0.5, size=(dim, dim, dim))

    def comps(x):
        return c0 + c1 @ x + np.einsum("ijk,j,k->i", c2, x, x)

    return VectorField(comps)


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_christoffel_flat_plane_vanishes():
    gamma = christoffel(PLANE, np.array([0.3, -1.2]))
    assert np.abs(gamma).max() < 1e-12


def test_christoffel_round_sphere_matches_textbook():
    R = 1.7
    sphere = round_sphere(R)
    theta = 1.1
    gamma = christoffel(sphere, np.array([theta, 0.4]))
    assert gamma[0, 1, 1] == pytest.approx(-np.sin(theta) * np.cos(theta), abs=1e-7)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / np.tan(theta), abs=1e-7)
    assert gamma[1, 1, 0] == pytest.approx(1.0 / np.tan(theta), abs=1e-7)
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-7)


def test_christoffel_cylinder_flat():
    cyl = surface_of_revolution(lambda z: 1.0, lambda z: 0.0)
    gamma = christoffel(cyl.manifold, np.array([0.7, 2.0]))
    assert np.abs(gamma).max() < 1e-10


def test_christoffel_boundary_margin():
    sphere = round_sphere(margin=0.5)
    with pytest.raises(ChartBoundaryError):
        christoffel(sphere, np.array([0.5 + 1e-6, 0.0]))


# ---------------------------------------------------------------------------
# Covariant derivative


def test_covariant_derivative_constant_field_flat():
    X = VectorField(lambda x: np.array([1.0, 2.0]))
    assert np.abs(covariant_derivative(PLANE, X, X, np.array([0.2, 0.5]))).max() < 1e-12


def test_covariant_derivative_directional():
    X = VectorField(lambda x: np.array([1.0, 0.0]))
    Y = VectorField(lambda x: np.array([x[0], 0.0]))
    out = covariant_derivative(PLANE, X, Y, np.array([0.4, -0.3]))
    assert out == pytest.approx([1.0, 0.0], abs=1e-9)


def test_covariant_derivative_sphere_azimuthal():
    sphere = round_sphere(1.0)
    theta = 0.9
    phi_field = VectorField(lambda x: np.array([0.0, 1.0]))
    out = covariant_derivative(sphere, phi_field, phi_field, np.array([theta, 0.3]))
    assert out[0] == pytest.approx(-np.sin(theta) * np.cos(theta), abs=1e-7)
    assert out[1] == pytest.approx(0.0, abs=1e-7)


# ---------------------------------------------------------------------------
# Lie derivatives


def test_lie_metric_rotation_is_killing():
    out = lie_derivative_metric(PLANE, ROTATION, np.array([0.6, -0.1]))
    assert np.abs(out).max() < 1e-10


def test_lie_metric_dilation():
    out = lie_derivative_metric(PLANE, DILATION, np.array([0.6, -0.1]))
    assert np.abs(out - 2.0 * np.eye(2)).max() < 1e-9


def test_lie_metric_surface_of_revolution_azimuthal():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    out = lie_derivative_metric(surf.manifold, surf.killing_field, np.array([0.4, 1.0]))
    assert np.abs(out).max() < 1e-9


def test_lie_oneform_killing_velocity_form():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    X = surf.killing_field
    out = lie_derivative_oneform(surf.manifold, X, flat_form(surf.manifold, X), np.array([0.4, 1.0]))
    assert np.abs(out).max() < 1e-9


def test_lie_oneform_zero_field():
    zero = VectorField(lambda x: np.zeros(2))
    alpha = OneForm(lambda x: np.array([x[0], 0.0]))
    assert np.abs(lie_derivative_oneform(PLANE, zero, alpha, np.array([1.0, 2.0]))).max() < 1e-12


def test_lie_oneform_hand_computed():
    # X = d/dx, alpha = x dx: L_X alpha = dx
    X = VectorField(lambda x: np.array([1.0, 0.0]))
    alpha = OneForm(lambda x: np.array([x[0], 0.0]))
    out = lie_derivative_oneform(PLANE, X, alpha, np.array([0.7, -0.2]))
    assert out == pytest.approx([1.0, 0.0], abs=1e-9)


def test_lie_oneform_dilation_control_is_large():
    out = lie_derivative_oneform(PLANE, DILATION, flat_form(PLANE, DILATION), np.array([0.8, 0.5]))
    assert np.abs(out).max() > 1e-2


# ---------------------------------------------------------------------------
# Musical isomorphisms, exterior derivative, divergence


def test_flat_sharp_identity_metric():
    X = VectorField(lambda x: np.array([0.3, -0.8]))
    x = np.array([0.1, 0.2])
    assert flat(PLANE, X, x) == pytest.approx([0.3, -0.8])
    assert sharp(PLANE, OneForm(lambda y: np.array([0.3, -0.8])), x) == pytest.approx([0.3, -0.8])


def test_flat_sphere_azimuthal():
    R = 1.3
    sphere = round_sphere(R)
    theta = 0.8
    out = flat(sphere, VectorField(lambda x: np.array([0.0, 1.0])), np.array([theta, 0.0]))
    assert out == pytest.approx([0.0, R**2 * np.sin(theta) ** 2], abs=1e-12)


def test_sharp_inverts_flat_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        M = random_polynomial_metric(rng)
        comps = rng.normal(size=2)
        X = VectorField(lambda x, c=comps: c)
        x = rng.uniform(-1.0, 1.0, size=2)
        back = sharp(M, OneForm(lambda y, M=M, X=X: M.metric_at(y) @ X(y)), x)
        assert np.abs(back - comps).max() < 1e-10


def test_exterior_derivative_of_exact_form_vanishes():
    alpha = OneForm(lambda x: np.array([2 * x[0] * x[1], x[0] ** 2 + np.cos(x[1])]))  # d(x^2 y + sin y)
    out = exterior_derivative_oneform(PLANE, alpha, np.array([0.4, 0.9]))
    assert np.abs(out).max() < 1e-8


def test_exterior_derivative_hand_computed():
    alpha = OneForm(lambda x: np.array([0.0, x[0]]))  # x dy
    out = exterior_derivative_oneform(PLANE, alpha, np.array([0.4, 0.9]))
    assert out[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert out[1, 0] == pytest.approx(-1.0, abs=1e-9)


def test_divergence_examples():
    x = np.array([0.3, 0.8])
    assert divergence(PLANE, ROTATION, x) == pytest.approx(0.0, abs=1e-9)
    assert divergence(PLANE, DILATION, x) == pytest.approx(2.0, abs=1e-9)


def test_divergence_killing_fields_vanish():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=2)
        assert abs(divergence(surf.manifold, surf.killing_field, x)) < 1e-6
        assert abs(divergence(PLANE, ROTATION, x)) < 1e-6


# ---------------------------------------------------------------------------
# Euler equation and the self-advection identity


def test_euler_residual_rigid_rotation():
    p = ScalarField(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2))
    out = euler_residual(PLANE, ROTATION, p, np.array([0.7, -0.4]))
    assert np.abs(out).max() < 1e-9


def test_euler_residual_zero_field_constant_pressure():
    zero = VectorField(lambda x: np.zeros(2))
    out = euler_residual(PLANE, zero, ScalarField(lambda x: 3.0), np.array([0.1, 0.2]))
    assert np.abs(out).max() < 1e-12


def test_euler_residual_killing_with_kinetic_pressure():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    M, X = surf.manifold, surf.killing_field
    p = kinetic_energy_field(M, X)
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=2)
        assert covector_norm(M, euler_residual(M, X, p, x), x) < 1e-8
    # the exposed pressure is the same object
    assert surf.pressure(np.array([0.4, 0.0])) == pytest.approx(p(np.array([0.4, 0.0])))


def test_euler_residual_insensitive_to_pressure_constant():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    M, X = surf.manifold, surf.killing_field
    p = kinetic_energy_field(M, X)
    shifted = ScalarField(lambda x: p(x) + 7.0)
    x = np.array([0.3, 0.9])
    assert np.abs(euler_residual(M, X, p, x) - euler_residual(M, X, shifted, x)).max() < 1e-10


def test_self_advection_identity_random_fields_and_metrics():
    rng = np.random.default_rng(24)
    for _ in range(3):
        M = random_polynomial_metric(rng)
        for _ in range(7):
            Y = random_polynomial_field(rng)
            x = rng.uniform(-1.0, 1.0, size=2)
            assert np.abs(self_advection_identity_residual(M, Y, x)).max() < 1e-6


def test_self_advection_identity_zero_field():
    zero = VectorField(lambda x: np.zeros(2))
    assert np.abs(self_advection_identity_residual(PLANE, zero, np.array([0.5, 0.5]))).max() < 1e-12


def test_self_advection_identity_sphere_azimuthal():
    sphere = round_sphere(1.0)
    Y = VectorField(lambda x: np.array([0.0, 1.0]))
    out = self_advection_identity_residual(sphere, Y, np.array([1.0, 0.2]))
    assert np.abs(out).max() < 1e-6


# ---------------------------------------------------------------------------
# Vorticity transport (Lie derivative of the vorticity 2-form)


def test_vorticity_two_form_transported_by_killing_flow():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    M, X = surf.manifold, surf.killing_field
    w = TwoForm(lambda y: exterior_derivative_oneform(M, flat_form(M, X), y))
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=2)
        assert np.abs(lie_derivative_twoform(M, X, w, x)).max() < 1e-4


def test_vorticity_two_form_transported_by_schrodinger_flow():
    from qhydro.hilbert import HermitianOperator
    from qhydro.projective import chart_manifold, fundamental_field

    M = chart_manifold(2, 0)
    X = fundamental_field(HermitianOperator.diagonal([0.0, 1.0]), 0)
    w = TwoForm(lambda y: exterior_derivative_oneform(M, flat_form(M, X), y))
    rng = np.random.default_rng(27)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        assert np.abs(lie_derivative_twoform(M, X, w, x)).max() < 1e-4


def test_rotation_vorticity_transport_on_plane():
    w = TwoForm(lambda y: exterior_derivative_oneform(PLANE, flat_form(PLANE, ROTATION), y))
    out = lie_derivative_twoform(PLANE, ROTATION, w, np.array([0.4, -0.7]))
    assert np.abs(out).max() < 1e-6


# ---------------------------------------------------------------------------
# Geodesics


def test_geodesic_flat_plane_straight_line():
    x0, u0 = np.array([0.1, -0.2]), np.array([0.5, 1.0])
    curve = geodesic_integrate(PLANE, x0, u0, 2.0, 100)
    expected = x0[None, :] + curve.times[:, None] * u0[None, :]
    assert np.abs(curve.points - expected).max() < 1e-12
    assert not curve.exited


def test_geodesic_sphere_equator_stays_put():
    sphere = round_sphere(1.0)
    curve = geodesic_integrate(sphere, np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]), 3.0, 300)
    assert np.abs(curve.points[:, 0] - np.pi / 2).max() < 1e-10


def test_geodesic_cylinder_helix():
    cyl = surface_of_revolution(lambda z: 1.0, lambda z: 0.0)
    x0, u0 = np.array([0.0, 0.0]), np.array([0.3, 1.1])
    curve = geodesic_integrate(cyl.manifold, x0, u0, 1.0, 100)
    expected = x0[None, :] + curve.times[:, None] * u0[None, :]
    assert np.abs(curve.points - expected).max() < 1e-10


def test_geodesic_speed_conserved():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    curve = geodesic_integrate(surf.manifold, np.array([0.3, 0.0]), np.array([0.4, 0.5]), 1.0, 500)
    speeds = [
        vector_norm(surf.manifold, u, x) for x, u in zip(curve.points, curve.velocities)
    ]
    assert np.abs(np.asarray(speeds) - speeds[0]).max() < 1e-10


def test_geodesic_exits_chart_with_flag():
    strip = ChartManifold(2, lambda x: np.eye(2), lambda x: abs(x[0]) < 1.0)
    curve = geodesic_integrate(strip, np.array([0.0, 0.0]), np.array([1.0, 0.0]), 5.0, 100)
    assert curve.exited
    assert len(curve) < 101
    assert np.abs(curve.points[:, 0]).max() < 1.0


def test_geodesic_iff_critical_parallel():
    # flow parallels of d/dphi are geodesics exactly where rho' = 0
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    M, X = surf.manifold, surf.killing_field
    p = surf.pressure

    def run(z0):
        x0 = np.array([z0, 0.0])
        flow = flow_integrate(X, x0, 1.0, 400)
        geo = geodesic_integrate(M, x0, X(x0), 1.0, 400)
        gap = np.abs(flow.points - geo.points).max()
        dp = differential(M, p, x0)
        return covector_norm(M, dp, x0), gap

    dp_belt, gap_belt = run(np.pi / 2)  # rho' = 0: maximal parallel
    assert dp_belt < 1e-9
    assert gap_belt < 1e-6
    dp_generic, gap_generic = run(0.4)
    assert dp_generic > 1e-2
    assert gap_generic > 1e-3


# ---------------------------------------------------------------------------
# Clairaut


def test_clairaut_on_surface_of_revolution():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    rng = np.random.default_rng(26)
    x0, u0 = np.empty((5, 2)), np.empty((5, 2))
    for m in range(5):
        x0[m] = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * np.pi)
        u0[m] = rng.normal(size=2)
        u0[m] /= vector_norm(surf.manifold, u0[m], x0[m])
    for curve in geodesic_integrate(surf.manifold, x0, u0, 1.0, 1000):
        assert clairaut_check(surf.manifold, curve, surf.killing_field) < 1e-8


def test_clairaut_zero_field():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    curve = geodesic_integrate(surf.manifold, np.array([0.2, 0.0]), np.array([0.3, 0.4]), 1.0, 100)
    zero = VectorField(lambda x: np.zeros(2))
    assert clairaut_check(surf.manifold, curve, zero) == 0.0


def test_clairaut_broken_by_non_killing_field():
    # geodesic tangent to the theta = pi/3 parallel, paired with the
    # non-Killing meridian field: the product is visibly not conserved
    sphere = round_sphere(1.0)
    curve = geodesic_integrate(sphere, np.array([np.pi / 3, 0.0]), np.array([0.0, 1.0]), 1.0, 200)
    meridian = VectorField(lambda x: np.array([1.0, 0.0]))
    assert clairaut_check(sphere, curve, meridian) > 1e-2


# ---------------------------------------------------------------------------
# Surfaces of revolution


def test_cylinder_metric():
    cyl = surface_of_revolution(lambda z: 1.0, lambda z: 0.0)
    assert np.abs(cyl.manifold.metric_at(np.array([0.5, 1.0])) - np.eye(2)).max() < 1e-14


def test_profile_substitution_into_metric():
    surf = surface_of_revolution(np.sin, np.cos, z_domain=(0.1, np.pi - 0.1))
    z = 0.8
    g = surf.manifold.metric_at(np.array([z, 0.3]))
    assert g[0, 0] == pytest.approx(1.0 + np.cos(z) ** 2, abs=1e-14)
    assert g[1, 1] == pytest.approx(np.sin(z) ** 2, abs=1e-14)


def test_nonpositive_profile_rejected():
    surf = surface_of_revolution(lambda z: z, lambda z: 1.0)
    with pytest.raises(ChartBoundaryError):
        surf.manifold.metric_at(np.array([-0.5, 0.0]))


def test_pressure_extremal_at_critical_parallel():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    dp = differential(surf.manifold, surf.pressure, np.array([np.pi / 2, 0.0]))
    assert np.abs(dp).max() < 1e-9
    dp = differential(surf.manifold, surf.pressure, np.array([0.5, 0.0]))
    assert np.abs(dp).max() > 1e-2


# ---------------------------------------------------------------------------
# Finite-difference order of accuracy


def at_step(monkeypatch, h, operator):
    """operator() with riemann.FD_STEP set to h, the step every public stencil operator reads when called."""
    monkeypatch.setattr(riemann, "FD_STEP", h)
    return operator()


def test_halving_step_contracts_residuals(monkeypatch):
    sphere = round_sphere(1.0)
    Y = VectorField(lambda x: np.array([np.sin(x[1]) + 0.3, np.cos(x[0])]))
    x = np.array([1.1, 0.7])
    residual = lambda: np.abs(self_advection_identity_residual(sphere, Y, x)).max()
    coarse, fine = at_step(monkeypatch, 2e-3, residual), at_step(monkeypatch, 1e-3, residual)
    assert coarse / fine >= 3.0

    # rotation about the x-axis: Killing on the round sphere with
    # coordinate-dependent components, so the residual is pure truncation
    J = VectorField(lambda x: np.array([np.sin(x[1]), np.cos(x[1]) / np.tan(x[0])]))
    residual = lambda: np.abs(lie_derivative_metric(sphere, J, x)).max()
    coarse, fine = at_step(monkeypatch, 2e-3, residual), at_step(monkeypatch, 1e-3, residual)
    assert coarse / fine >= 3.0


# ---------------------------------------------------------------------------
# The stencil engine against a per-point reference
#
# The reference loops below repeat, one stencil point at a time, the
# arithmetic of a per-point central-difference implementation. The engine
# evaluates whole stacks of points but must give the same floating-point
# numbers, bit for bit.


def reference_metric(manifold, y):
    g = np.asarray(manifold.metric(y), dtype=float)
    return (g + g.T) / 2.0


def reference_partials(manifold, fn, x, h):
    outs = []
    for i in range(manifold.dim):
        step = np.zeros(manifold.dim)
        step[i] = h
        outs.append((np.asarray(fn(x + step), dtype=float) - np.asarray(fn(x - step), dtype=float)) / (2.0 * h))
    return np.stack(outs)


def reference_christoffel(manifold, x, h):
    ginv = np.linalg.inv(reference_metric(manifold, x))
    dg = reference_partials(manifold, lambda y: reference_metric(manifold, y), x, h)
    brackets = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, brackets)


def test_christoffel_matches_per_point_reference_on_cp3(monkeypatch):
    from qhydro.projective import chart_manifold

    rng = np.random.default_rng(31)
    for k in range(4):
        M = chart_manifold(4, k)
        for h in (1e-4, 1e-5):
            x = rng.uniform(-0.9, 0.9, size=6)
            assert np.array_equal(at_step(monkeypatch, h, lambda: christoffel(M, x)), reference_christoffel(M, x, h))


def test_christoffel_matches_per_point_reference_on_surface(monkeypatch):
    rng = np.random.default_rng(32)
    for _ in range(5):
        a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
        M = surface_of_revolution(lambda z: a + b * np.sin(c * z), lambda z: b * c * np.cos(c * z)).manifold
        for h in (1e-4, 1e-5):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert np.array_equal(at_step(monkeypatch, h, lambda: christoffel(M, x)), reference_christoffel(M, x, h))


def test_differential_matches_per_point_reference():
    from qhydro.fluid import pressure_scalar_field
    from qhydro.projective import chart_manifold

    from helpers import random_hermitian

    rng = np.random.default_rng(35)
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    H = random_hermitian(rng, 4)
    cases = [(surf.manifold, surf.pressure, 2), (chart_manifold(4, 1), pressure_scalar_field(H, 1), 6)]
    for M, f, dim in cases:
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=dim)
            assert np.array_equal(differential(M, f, x), reference_partials(M, f, x, 1e-4))


# Every stencil point gets every check of metric_at, with its exception
# type and message. The metrics below go bad just right of x0 = 0.5, so the
# base point 0.5 passes and only the stencil point 0.5 + h fails.

STENCIL_X = np.array([0.5, 0.0])
BAD_STENCIL_POINT = STENCIL_X + np.array([1e-4, 0.0])


def bad_right_of_base(bad_matrix):
    return ChartManifold(2, lambda x: bad_matrix if x[0] > 0.50005 else np.eye(2), name="test")


def test_nonfinite_stencil_point_is_rejected(monkeypatch):
    x = np.array([1e308, 0.0])
    message = f"stencil point {np.array([np.inf, 0.0])} outside chart domain"
    for call in (lambda: christoffel(PLANE, x), lambda: differential(PLANE, ScalarField(sum), x)):
        with np.errstate(over="ignore"), pytest.raises(ChartBoundaryError, match=re.escape(message)):
            at_step(monkeypatch, 1e308, call)


def test_out_of_domain_stencil_point_is_rejected():
    strip = ChartManifold(2, lambda x: np.eye(2), lambda x: x[0] < 0.50005)
    message = f"stencil point {BAD_STENCIL_POINT} outside chart domain"
    for call in (
        lambda: christoffel(strip, STENCIL_X),
        lambda: divergence(strip, ROTATION, STENCIL_X),
        lambda: lie_derivative_metric(strip, ROTATION, STENCIL_X),
        lambda: differential(strip, ScalarField(sum), STENCIL_X),
        lambda: lie_derivative_oneform(strip, ROTATION, flat_form(strip, ROTATION), STENCIL_X),
    ):
        with pytest.raises(ChartBoundaryError, match=re.escape(message)):
            call()


def test_asymmetric_metric_at_stencil_point_is_rejected():
    M = bad_right_of_base(np.array([[1.0, 0.1], [0.0, 1.0]]))
    message = f"metric not symmetric at {BAD_STENCIL_POINT}"
    for call in (
        lambda: christoffel(M, STENCIL_X),
        lambda: divergence(M, ROTATION, STENCIL_X),
        lambda: lie_derivative_metric(M, ROTATION, STENCIL_X),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_indefinite_metric_at_stencil_point_is_rejected():
    M = bad_right_of_base(np.diag([1.0, -1.0]))
    message = f"metric not positive-definite at {BAD_STENCIL_POINT}"
    for call in (
        lambda: christoffel(M, STENCIL_X),
        lambda: divergence(M, ROTATION, STENCIL_X),
        lambda: lie_derivative_metric(M, ROTATION, STENCIL_X),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_base_point_errors_come_before_stencil_errors():
    # base point out of domain, and its right stencil point too
    strip = ChartManifold(2, lambda x: np.eye(2), lambda x: x[0] < 0.4, name="strip")
    with pytest.raises(ChartBoundaryError, match=re.escape(f"point {STENCIL_X} outside chart domain of strip")):
        christoffel(strip, STENCIL_X)
    # asymmetric at the base point, and a stencil point out of domain
    skew = ChartManifold(2, lambda x: np.array([[1.0, 0.1], [0.0, 1.0]]), lambda x: x[0] < 0.50005)
    with pytest.raises(ValueError, match=re.escape(f"metric not symmetric at {STENCIL_X}")):
        christoffel(skew, STENCIL_X)


def test_metric_at_checks_shape():
    M = ChartManifold(2, lambda x: np.eye(3))
    with pytest.raises(ValueError, match=re.escape("metric returned shape (3, 3), expected (2, 2)")):
        M.metric_at(np.zeros(2))
    # one row of a stack of the wrong size is named, not numpy's complaint about the ragged stack
    ragged = ChartManifold(2, lambda x: np.eye(3) if x[0] > 0 else np.eye(2))
    with pytest.raises(ValueError, match=re.escape("metric returned shape (3, 3), expected (2, 2)")):
        ragged.metric_at(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_points_of_the_wrong_width_are_bad_input_not_outside_the_chart():
    M, x = ChartManifold(2, lambda x: np.eye(2)), [1.0, 2.0, 3.0]
    X, alpha = VectorField(lambda x: np.zeros(3)), OneForm(lambda x: np.zeros(3))
    curve = DiscreteCurve(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3)), False)
    for call, shape in (
        (lambda: M.metric_at(x), (1, 3)),
        (lambda: christoffel(M, x), (7, 3)),  # the point and its stencil, one stack
        (lambda: divergence(M, X, x), (7, 3)),
        (lambda: sharp(M, alpha, x), (1, 3)),
        (lambda: vector_norm(M, x, x), (1, 3)),
        (lambda: clairaut_check(M, curve, X), (2, 3)),
    ):
        with pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is ValueError
        assert str(refused.value) == f"points of manifold must be 2 wide, got shape {shape}"


# ---------------------------------------------------------------------------
# Fubini-Study geodesics against great circles


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_geodesic_follows_great_circle(dim):
    from qhydro.hilbert import StateVector
    from qhydro.projective import chart_manifold, chart_of, fubini_study_distance, project_tangent, representative

    rng = np.random.default_rng(40 + dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    r = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    w = r - v * np.vdot(v, r)  # horizontal: <v|w> = 0
    w *= 0.6 / np.linalg.norm(w)
    k = int(np.argmax(np.abs(v)))
    curve = geodesic_integrate(
        chart_manifold(dim, k), chart_of(StateVector(v), k)[1], project_tangent(v, w, k), 1.0, 200
    )
    assert not curve.exited and len(curve) == 201
    speed = np.linalg.norm(w)
    worst = max(
        fubini_study_distance(
            StateVector(representative(k, x), normalize=True),
            StateVector(np.cos(speed * s) * v + np.sin(speed * s) * w / speed, normalize=True),
        )
        for s, x in zip(curve.times, curve.points)
    )
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# Stacks of base points: every operator maps a stack row by row, with the
# numbers of the one-point call


def test_operators_on_a_stack_of_base_points_equal_the_one_point_calls():
    from qhydro.fluid import pressure_scalar_field
    from qhydro.projective import chart_manifold, fundamental_field

    from helpers import random_hermitian

    rng = np.random.default_rng(50)
    H = random_hermitian(rng, 4)
    M, X, p = chart_manifold(4, 1), fundamental_field(H, 1), pressure_scalar_field(H, 1)
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    cases = [
        (M, X, p, rng.uniform(-0.9, 0.9, size=(5, 6))),
        (surf.manifold, surf.killing_field, surf.pressure, rng.uniform(-1.0, 1.0, size=(5, 2))),
    ]
    for manifold, field, scalar, xs in cases:
        alpha = flat_form(manifold, field)
        ops = [
            lambda x: christoffel(manifold, x),
            lambda x: covariant_derivative(manifold, field, field, x),
            lambda x: lie_derivative_metric(manifold, field, x),
            lambda x: lie_derivative_oneform(manifold, field, alpha, x),
            lambda x: exterior_derivative_oneform(manifold, alpha, x),
            lambda x: divergence(manifold, field, x),
            lambda x: differential(manifold, scalar, x),
            lambda x: euler_residual(manifold, field, scalar, x),
            lambda x: self_advection_identity_residual(manifold, field, x),
            lambda x: flat(manifold, field, x),
            lambda x: sharp(manifold, alpha, x),
            lambda x: covector_norm(manifold, alpha.stack(np.atleast_2d(x)), x),
            lambda x: vector_norm(manifold, field.stack(np.atleast_2d(x)), x),
        ]
        for op in ops:
            stacked = op(xs)
            assert len(stacked) == len(xs)
            for row, x in zip(stacked, xs):
                assert np.array_equal(row, op(x))


def test_stack_function_is_the_one_row_case_of_its_stack():
    calls = []

    def metric(points):
        calls.append(len(points))
        return np.array([np.diag([1.0 + y[0] ** 2, 2.0]) for y in points])

    from qhydro.riemann import StackFunction

    stacked = ChartManifold(2, StackFunction(metric))
    per_point = ChartManifold(2, lambda y: np.diag([1.0 + y[0] ** 2, 2.0]))
    x = np.array([0.3, -0.2])
    assert np.array_equal(christoffel(stacked, x), christoffel(per_point, x))
    assert calls == [5]  # the base point and its four stencil points, in one call
    assert np.array_equal(stacked.metric(x), per_point.metric(x))


# ---------------------------------------------------------------------------
# The geodesic path against a copy of its uncached form
#
# The copy below builds the stencil offsets afresh on every call, combines
# the stencil values with a weighted sum, and evaluates the surface of
# revolution one point at a time; it integrates with the plain RK4 step.
# The library caches the offsets, differences each stencil pair directly,
# fills the surface metric and domain as stacks and sums RK4 stages in one
# buffer, and must give the same floating-point numbers, bit for bit.
# Surfaces and Fubini-Study metrics are built here without their closed-form
# geodesic spray, so what is held is the default spray of every user metric:
# the Christoffel stencil at GEODESIC_FD_STEP.


def uncached_stencils(dim, xs, h):
    steps = np.array([1, -1])[None, :, None] * (float(h) * np.eye(dim))[:, None, :]
    return (xs[:, None, None, :] + steps).reshape(-1, dim)


def weighted_sum_combine(dim, values, h):
    values = values.reshape(-1, dim, 2, *values.shape[1:])
    return sum(w * values[:, :, j] for j, w in enumerate((1.0, -1.0))) / (2.0 * h)


def uncached_christoffel(manifold, x, h):
    xs = x[None]
    g = manifold._metric_stack(np.concatenate([xs, uncached_stencils(manifold.dim, xs, h)]), 1)
    dg = weighted_sum_combine(manifold.dim, g[1:], h)
    brackets = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("mkl,mijl->mkij", np.linalg.inv(g[:1]), brackets)[0]


def uncached_geodesic(manifold, x0, u0, T, steps, h, rhs=None):
    """RK4 one state at a time, with Python-float constants; rhs defaults to the uncached Christoffel stencil's spray."""
    d = manifold.dim

    def stencil_rhs(y):
        gamma = uncached_christoffel(manifold, y[:d], h)
        return np.concatenate([y[d:], -np.einsum("kij,i,j->k", gamma, y[d:], y[d:])])

    rhs = rhs or stencil_rhs

    y, dt = np.concatenate([x0, u0]), float(T) / int(steps)
    states = [y]
    for _ in range(steps):
        try:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
        except ChartBoundaryError:
            break
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if manifold._first_outside(y[None, :d]) is not None:
            break
        states.append(y)
    states = np.array(states)
    return states[:, :d], states[:, d:], len(states) <= steps


def per_point_surface(rho, drho, z_domain=None):
    def metric(x):
        r = float(rho(x[0]))
        if r <= 0.0:
            raise ValueError(f"profile radius must be positive, got rho({x[0]}) = {r}")
        rp = float(drho(x[0]))
        return np.array([[1.0 + rp * rp, 0.0], [0.0, r * r]])

    def domain(x):
        if z_domain is not None and not (z_domain[0] < x[0] < z_domain[1]):
            return False
        return float(rho(x[0])) > 0.0

    return ChartManifold(2, metric, domain, name="surface_of_revolution")


def closed_form_surface_rhs(rho, drho, z_domain=None):
    """The closed-form spray of surface_of_revolution at one state, written per point on Python floats."""
    low, high = z_domain or (-np.inf, np.inf)
    h = GEODESIC_FD_STEP

    def rhs(y):
        z, _, vz, vphi = y.tolist()
        if not (low < z - h and z + h < high):
            raise ChartBoundaryError("rho'' difference leaves the chart")
        r = float(rho(z))
        if not r > 0.0:
            raise ChartBoundaryError("rho not positive")
        rp = float(drho(z))
        rpp = (float(drho(z + h)) - float(drho(z - h))) / (2.0 * h)
        zpp = -(rp * rpp * vz * vz - r * rp * vphi * vphi) / (1.0 + rp * rp)
        return np.array([vz, vphi, zpp, -2.0 * (rp / r) * vz * vphi])

    return rhs


def stencil_route(surf):
    """The surface's metric and domain without its closed-form geodesic spray: the default, stencil spray."""
    return ChartManifold(2, surf.manifold.metric, surf.manifold.chart_domain, name="surface_of_revolution")


def assert_geodesic_bits(manifold, reference, field, x0, u0, T, steps, rhs=None):
    curve = geodesic_integrate(manifold, x0, u0, T, steps)
    points, velocities, exited = uncached_geodesic(reference, x0, u0, T, steps, GEODESIC_FD_STEP, rhs)
    assert curve.exited == exited
    assert np.array_equal(curve.points, points) and np.array_equal(curve.velocities, velocities)
    # the signs of zeros too: array_equal takes -0.0 == 0.0
    assert np.array_equal(np.signbit(curve.points), np.signbit(points))
    assert np.array_equal(np.signbit(curve.velocities), np.signbit(velocities))
    ref_curve = DiscreteCurve(curve.times, points, velocities, exited)
    assert clairaut_check(manifold, curve, field) == clairaut_check(reference, ref_curve, field)
    return curve


def test_geodesics_on_random_surfaces_equal_the_uncached_path_bit_for_bit():
    rng = np.random.default_rng(60)
    for _ in range(10):
        a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
        rho, drho = (lambda z: a + b * np.sin(c * z)), (lambda z: b * c * np.cos(c * z))
        surf = surface_of_revolution(rho, drho)
        x0 = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * np.pi)])
        u0 = rng.normal(size=2) * 0.5
        M = stencil_route(surf)
        curve = assert_geodesic_bits(M, per_point_surface(rho, drho), surf.killing_field, x0, u0, 1.0, 60)
        assert not curve.exited


def test_closed_form_surface_geodesics_equal_a_per_point_rk4_of_the_formula_bit_for_bit():
    # the library's route: chunks of stacked steps, 0-d array constants and the profile memo; the reference:
    # one state at a time, Python-float constants, rho and drho called at every point
    rng = np.random.default_rng(65)
    exits = []
    for z_domain in (None, (-0.5, 0.5)):
        for _ in range(8):
            a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
            rho, drho = (lambda z: a + b * np.sin(c * z)), (lambda z: b * c * np.cos(c * z))
            surf = surface_of_revolution(rho, drho, z_domain)
            x0 = np.array([rng.uniform(-0.4, 0.4), rng.uniform(0.0, 2.0 * np.pi)])
            u0 = rng.normal(size=2) * 0.5
            reference = per_point_surface(rho, drho, z_domain)
            rhs = closed_form_surface_rhs(rho, drho, z_domain)
            exits.append(assert_geodesic_bits(surf.manifold, reference, surf.killing_field, x0, u0, 1.0, 60, rhs).exited)
    assert not any(exits[:8]) and 0 < sum(exits[8:]) < 8


def test_surface_killing_field_and_pressure_are_stack_functions_with_their_per_point_values():
    rng = np.random.default_rng(61)
    killing = VectorField(lambda x: np.array([0.0, 1.0]))
    for _ in range(20):
        a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
        rho, drho = (lambda z: a + b * np.sin(c * z)), (lambda z: b * c * np.cos(c * z))
        surf = surface_of_revolution(rho, drho)
        assert isinstance(surf.killing_field.components, StackFunction) and isinstance(surf.pressure.value, StackFunction)
        pressure = ScalarField(lambda x: 0.5 * float(rho(x[0])) ** 2)
        points = np.column_stack([rng.uniform(-2.0, 2.0, 7), rng.uniform(0.0, 2.0 * np.pi, 7)])
        for stacked, per_point in ((surf.killing_field, killing), (surf.pressure, pressure)):
            values = stacked.stack(points)
            assert values.shape == per_point.stack(points).shape and values.tobytes() == per_point.stack(points).tobytes()
            assert all(np.array_equal(stacked(y), per_point(y)) for y in points)
        curve = geodesic_integrate(surf.manifold, points[0], rng.normal(size=2) * 0.5, 1.0, 40)
        assert clairaut_check(surf.manifold, curve, surf.killing_field) == clairaut_check(surf.manifold, curve, killing)


def test_geodesics_on_cpn_charts_equal_the_uncached_path_bit_for_bit():
    from qhydro.projective import fubini_study_metric, fundamental_field

    from helpers import random_hermitian

    rng = np.random.default_rng(61)
    for dim in (3, 4, 5):
        k = int(rng.integers(dim))
        # the Fubini-Study metric without chart_manifold's closed-form spray: the default, stencil spray
        M = ChartManifold(2 * (dim - 1), StackFunction(fubini_study_metric), name=f"CP^{dim - 1} chart {k}")
        x0 = rng.uniform(-0.5, 0.5, size=2 * (dim - 1))
        u0 = rng.normal(size=2 * (dim - 1)) * 0.3
        assert_geodesic_bits(M, M, fundamental_field(random_hermitian(rng, dim), k), x0, u0, 1.0, 30)


def test_geodesic_leaving_z_domain_stops_at_the_uncached_step():
    rho, drho = (lambda z: 2.0 + np.sin(z)), np.cos
    surf = surface_of_revolution(rho, drho, z_domain=(-0.5, 0.5))
    reference = per_point_surface(rho, drho, z_domain=(-0.5, 0.5))
    curve = assert_geodesic_bits(
        stencil_route(surf), reference, surf.killing_field, np.array([0.3, 0.0]), np.array([1.0, 0.2]), 1.0, 50
    )
    assert curve.exited and 1 < len(curve) < 51


def test_a_user_metric_replaced_with_dataclasses_replace_integrates_on_its_new_metric():
    # the default spray is resolved by each manifold, not stored in its geodesic_spray field
    old = per_point_surface(lambda z: 2.0 + np.sin(z), np.cos)
    metric = per_point_surface(lambda z: 3.0 + z * z, lambda z: 2.0 * z).metric
    replaced, direct = dataclasses.replace(old, metric=metric), ChartManifold(2, metric, old.chart_domain, old.name)
    x0, u0 = np.array([0.3, 0.0]), np.array([1.0, 0.2])
    curve = geodesic_integrate(replaced, x0, u0, 1.0, 40)
    assert_same_curve(curve, geodesic_integrate(direct, x0, u0, 1.0, 40))
    assert not np.array_equal(curve.points, geodesic_integrate(old, x0, u0, 1.0, 40).points)
    # and manifolds built from the same arguments are equal
    assert replaced == direct == ChartManifold(2, metric, old.chart_domain, old.name)


def test_surface_metric_refuses_nonpositive_radius_with_the_per_point_text():
    rho, drho = (lambda z: z), (lambda z: 1.0)
    point = np.array([-0.5, 0.0])
    message = "profile radius must be positive, got rho(-0.5) = -0.5"
    for metric in (surface_of_revolution(rho, drho).manifold.metric, per_point_surface(rho, drho).metric):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            metric(point)


def test_surface_profile_gets_python_floats():
    seen = []

    def rho(z):
        seen.append(type(z))
        return 2.0 + z * z

    surf = surface_of_revolution(rho, lambda z: 2.0 * z)
    geodesic_integrate(surf.manifold, np.array([0.3, 0.0]), np.array([0.1, 0.2]), 0.1, 3)
    assert seen and set(seen) == {float}
    # Python-float arithmetic raises where an np.float64 would give inf or nan
    with pytest.raises(ZeroDivisionError):
        surface_of_revolution(lambda z: 1.0 / z, lambda z: 1.0).manifold.metric_at(np.array([0.0, 0.0]))
    with pytest.raises(TypeError, match="complex"):
        surface_of_revolution(lambda z: z**0.5, lambda z: 1.0).manifold.metric_at(np.array([-1.0, 0.0]))


def counted_profile(a=2.0, b=0.5, c=1.0):
    """rho = a + b sin(c z) and its drho, each recording the z of every call."""
    calls = {"rho": [], "drho": []}

    def rho(z):
        calls["rho"].append(z)
        return a + b * np.sin(c * z)

    def drho(z):
        calls["drho"].append(z)
        return b * c * np.cos(c * z)

    return rho, drho, calls


def test_surface_christoffel_calls_rho_and_drho_once_per_distinct_z():
    # the 5 stencil points of a base point in (z, phi) hold 3 values of z: the memo computes each once
    rho, drho, calls = counted_profile()
    christoffel(surface_of_revolution(rho, drho).manifold, np.array([0.3, 0.1]))
    assert calls["rho"] == calls["drho"] == [0.3, 0.3 + 1e-4, 0.3 - 1e-4]


def test_surface_calls_rho_only_inside_z_domain():
    rho, drho, calls = counted_profile()
    surf = surface_of_revolution(rho, drho, z_domain=(-0.5, 0.5))
    with pytest.raises(ChartBoundaryError, match="^stencil point"):
        christoffel(surf.manifold, np.array([0.5 - 0.5e-4, 0.0]))
    curve = geodesic_integrate(surf.manifold, np.array([0.3, 0.0]), np.array([1.0, 0.2]), 1.0, 50)
    assert curve.exited
    assert calls["rho"] and all(-0.5 < z < 0.5 for z in calls["rho"] + calls["drho"])


def surface_stencil_operators(surf):
    """Every public stencil operator on a surface, as a function of one base point."""
    M, K, P = surf.manifold, surf.killing_field, surf.pressure
    alpha, w = flat_form(M, K), TwoForm(lambda x: np.array([[0.0, x[0]], [-x[0], 0.0]]))
    return {
        "christoffel": lambda x: christoffel(M, x),
        "covariant_derivative": lambda x: covariant_derivative(M, K, K, x),
        "lie_derivative_metric": lambda x: lie_derivative_metric(M, K, x),
        "lie_derivative_oneform": lambda x: lie_derivative_oneform(M, K, alpha, x),
        "lie_derivative_twoform": lambda x: lie_derivative_twoform(M, K, w, x),
        "exterior_derivative_oneform": lambda x: exterior_derivative_oneform(M, alpha, x),
        "divergence": lambda x: divergence(M, K, x),
        "differential": lambda x: differential(M, P, x),
        "euler_residual": lambda x: euler_residual(M, K, P, x),
        "self_advection_identity_residual": lambda x: self_advection_identity_residual(M, K, x),
    }


@pytest.mark.parametrize("edge", [0.5, -0.5])
def test_every_stencil_operator_names_the_first_stencil_point_that_leaves_z_domain(edge):
    rho, drho, calls = counted_profile()
    surf = surface_of_revolution(rho, drho, z_domain=(-0.5, 0.5))
    x = np.array([edge - np.sign(edge) * 0.5e-4, 0.3])  # inside; its stencil point one step outwards is not
    for name, op in surface_stencil_operators(surf).items():
        bad = x + [np.sign(edge) * 1e-4, 0.0]
        with pytest.raises(ChartBoundaryError) as failed:
            op(x)
        assert type(failed.value) is ChartBoundaryError, name
        assert str(failed.value) == f"stencil point {bad} outside chart domain", name
    assert all(-0.5 < z < 0.5 for z in calls["rho"] + calls["drho"])


def test_every_stencil_operator_names_a_base_point_outside_the_chart_before_its_stencil_points():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos, z_domain=(-0.5, 0.5))
    for x in (np.array([0.6, 0.3]), np.array([np.nan, 0.3])):
        for name, op in surface_stencil_operators(surf).items():
            with pytest.raises(ChartBoundaryError) as failed:
                op(x)
            assert str(failed.value) == f"point {x} outside chart domain of surface_of_revolution", name


def test_surface_metric_never_takes_the_radius_of_another_z():
    # a concurrent caller can evaluate the domain of another stack between one stack's domain and metric;
    # these two stacks differ only in the sign of a zero z, which has no memo entry: rho(0.1) is kept, and
    # rho at either zero is computed again by each metric
    rho, drho, calls = counted_profile()
    M = surface_of_revolution(rho, drho).manifold
    reference = per_point_surface(rho, drho)
    first, second = np.array([[0.1, 0.0], [0.0, 2.0]]), np.array([[0.1, 0.0], [-0.0, 2.0]])
    for domain_of, metric_of, new_rho_calls in ((first, second, 1), (second, second, 1), (second, first, 1)):
        M.chart_domain.stack(domain_of)
        del calls["rho"][:]
        assert np.array_equal(M.metric.stack(metric_of), [reference.metric(y) for y in metric_of])
        assert len(calls["rho"]) == new_rho_calls + 2  # and the reference's own two


def signed_zero_profile():
    """A profile whose rho tells -0.0 from 0.0, and its per-point surface."""
    rho = lambda z: 2.0 + np.sin(z) + math.copysign(0.25, z)
    drho = lambda z: np.cos(z) + math.copysign(0.5, z)
    return rho, drho, per_point_surface(rho, drho)


def assert_surface_values_match(surf, rho, reference, points):
    """The surface's domain, metric and pressure on a stack are the per-point reference's, signed zeros included."""
    M = surf.manifold
    assert M.chart_domain.stack(points) == [reference.chart_domain(y) for y in points]
    g, expected = M.metric.stack(points), np.array([reference.metric(y) for y in points])
    assert g.tobytes() == expected.tobytes()
    assert surf.pressure.stack(points).tolist() == [0.5 * float(rho(z)) ** 2 for z in points[:, 0].tolist()]


def test_surface_memo_keeps_signed_zeros_apart_and_never_hits_a_nan():
    rho, drho, reference = signed_zero_profile()
    surf = surface_of_revolution(rho, drho)
    zs = [0.0, -0.0, 0.3, -0.3, 0.0, -0.0, 0.3]
    for order in (zs, zs[::-1], [-0.0, 0.0] * 3):
        assert_surface_values_match(surf, rho, reference, np.column_stack([order, np.zeros(len(order))]))
    # the spray at either zero: its own radius and slope
    for z in (0.0, -0.0):
        y = np.array([[z, 0.0, 0.4, 0.3]])
        assert surf.manifold.geodesic_spray(y).tobytes() == closed_form_surface_rhs(rho, drho)(y[0])[None].tobytes()
    # a NaN z is computed at every call, never taken from the memo
    rho, drho, calls = counted_profile()
    M = surface_of_revolution(rho, drho).manifold
    for _ in range(3):
        M.metric.stack(np.array([[np.nan, 0.0], [0.1, 0.0]]))
    assert len(calls["rho"]) == 4 and [z for z in calls["rho"] if z == z] == [0.1]


def test_geodesic_and_clairaut_check_call_rho_and_drho_at_most_once_per_nonzero_z():
    for x0 in ([0.3, 0.1], [0.0, 0.1], [-0.0, 0.2]):
        rho, drho, calls = counted_profile()
        surf = surface_of_revolution(rho, drho)
        curve = geodesic_integrate(surf.manifold, np.array(x0), np.array([0.4, 0.3]), 1.0, 100)
        assert not curve.exited
        clairaut_check(surf.manifold, curve, surf.killing_field)
        for name in ("rho", "drho"):
            nonzero = [z for z in calls[name] if z != 0.0]
            assert len(nonzero) == len(set(nonzero)), name
        # rho at the start and at each step's three later stage points and new sample
        assert len([z for z in calls["rho"] if z != 0.0]) == 4 * 100 + (x0[0] != 0.0)


def test_a_surface_memo_emptied_at_every_few_points_gives_the_same_bits(monkeypatch):
    rho, drho = (lambda z: 2.0 + np.sin(z)), np.cos
    x0, u0 = np.array([[0.3, 0.1], [-0.2, 1.0]]), np.array([[0.4, 0.3], [-0.1, 0.5]])
    surf = surface_of_revolution(rho, drho)
    expected = geodesic_integrate(surf.manifold, x0, u0, 1.0, 50)
    monkeypatch.setattr(riemann, "_PROFILE_MEMO", 3)
    surf = surface_of_revolution(rho, drho)
    for curve, other in zip(geodesic_integrate(surf.manifold, x0, u0, 1.0, 50), expected):
        assert_same_curve(curve, other)
        assert clairaut_check(surf.manifold, curve, surf.killing_field) == clairaut_check(
            surf.manifold, other, surf.killing_field
        )


def test_threads_sharing_a_surface_memo_that_empties_get_the_per_point_values(monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(riemann, "_PROFILE_MEMO", 4)
    rho, drho, reference = signed_zero_profile()
    surf = surface_of_revolution(rho, drho)
    rng = np.random.default_rng(66)
    stacks = [np.column_stack([rng.choice([0.0, -0.0, 0.1, -0.1, 0.2, 0.3], 9), np.zeros(9)]) for _ in range(8)]
    failures = []

    def work(points):
        try:
            for _ in range(30):
                assert_surface_values_match(surf, rho, reference, points)
        except AssertionError as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(points,)) for points in stacks]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not failures


def test_metric_at_returns_an_array_the_caller_owns():
    stored = np.array([[[2.0, 0.5], [0.5, 3.0]]])
    M = ChartManifold(2, StackFunction(lambda points: stored))
    g = M.metric_at(np.zeros(2))
    g[0, 0] = -1.0
    assert stored[0, 0, 0] == 2.0 and M.metric_at(np.zeros(2))[0, 0] == 2.0


def test_metric_symmetric_up_to_the_sign_of_zero_is_symmetrized():
    # -0.0 == 0.0, yet (g + g^T) / 2 turns the pair into +0.0, +0.0
    M = ChartManifold(2, StackFunction(lambda points: np.array([[[1.0, -0.0], [0.0, 2.0]]] * len(points))))
    g = M.metric_at(np.zeros(2))
    assert np.array_equal(g, np.diag([1.0, 2.0])) and not np.signbit(g).any()


# ---------------------------------------------------------------------------
# Stacks of starts: one RK4 over an (M, 2) stack, each row the curve of its
# one-start call, bit for bit


def test_stacked_geodesics_on_random_surfaces_equal_their_one_start_calls():
    rng = np.random.default_rng(62)
    for _ in range(10):
        a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
        surf = surface_of_revolution(lambda z: a + b * np.sin(c * z), lambda z: b * c * np.cos(c * z))
        x0 = np.column_stack([rng.uniform(-1.5, 1.5, size=4), rng.uniform(0.0, 2.0 * np.pi, size=4)])
        u0 = rng.normal(size=(4, 2)) * 0.5
        curves = geodesic_integrate(surf.manifold, x0, u0, 1.0, 60)
        assert len(curves) == 4
        for curve, x, u in zip(curves, x0, u0):
            assert_same_curve(curve, geodesic_integrate(surf.manifold, x, u, 1.0, 60))


def test_stacked_geodesics_freeze_the_rows_that_leave_z_domain():
    # row 1 leaves when a stage stencil crosses the boundary first, row 2 when its new
    # sample does while its stages stayed inside; rows 0 and 3 run to the end
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos, z_domain=(-0.5, 0.5))
    x0 = np.array([[0.0, 0.0], [0.3, 0.0], [0.25, 0.0], [-0.1, 1.0]])
    u0 = np.array([[0.05, 0.3], [0.4, 0.2], [-1.1, -1.8], [-0.02, -0.4]])
    curves = geodesic_integrate(surf.manifold, x0, u0, 1.0, 10)
    assert [len(c) for c in curves] == [11, 5, 7, 11]
    assert [c.exited for c in curves] == [False, True, True, False]
    for curve, x, u in zip(curves, x0, u0):
        assert_same_curve(curve, geodesic_integrate(surf.manifold, x, u, 1.0, 10))


# ---------------------------------------------------------------------------
# Surfaces of revolution take their closed-form connection; the default,
# stencil spray of the same metric and the sphere's great circles are its
# oracles


def test_surface_closed_form_acceleration_equals_the_stencil_route(monkeypatch):
    # rho, rho' and rho'' are O(1) on these profiles, so the error is taken relative to |u|^2
    rng = np.random.default_rng(63)
    for _ in range(50):
        a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
        M = surface_of_revolution(lambda z: a + b * np.sin(c * z), lambda z: b * c * np.cos(c * z)).manifold
        x = np.column_stack([rng.uniform(-1.5, 1.5, size=4), rng.uniform(0.0, 2.0 * np.pi, size=4)])
        u = rng.normal(size=(4, 2))
        gamma = at_step(monkeypatch, GEODESIC_FD_STEP, lambda: christoffel(M, x))
        stencil = -np.einsum("mkij,mi,mj->mk", gamma, u, u)
        error = np.linalg.norm(M.geodesic_spray(np.hstack([x, u]))[:, 2:] - stencil, axis=1) / (u * u).sum(axis=1)
        assert error.max() < 1e-8


def test_surface_spray_passes_the_velocity_through_and_a_row_alone_is_its_row_of_a_stack():
    rng = np.random.default_rng(64)
    for _ in range(20):
        a, b, c = rng.uniform(2.0, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5)
        surf = surface_of_revolution(lambda z: a + b * np.sin(c * z), lambda z: b * c * np.cos(c * z))
        x = np.column_stack([rng.uniform(-1.5, 1.5, size=4), rng.uniform(0.0, 2.0 * np.pi, size=4)])
        y = np.hstack([x, rng.normal(size=(4, 2))])
        # the closed form, and the default spray of the same metric
        for spray in (surf.manifold.geodesic_spray, stencil_route(surf)._spray):
            derivative = spray(y)
            assert derivative.shape == y.shape and derivative[:, :2].tobytes() == y[:, 2:].tobytes()
            for row, out in zip(y, derivative):
                assert spray(row[None]).tobytes() == out.tobytes()


def test_geodesic_on_the_unit_sphere_follows_the_great_circle():
    # rho = sqrt(1 - z^2): from (0, phi0) on the equator with chart velocity (w, v), the great circle is
    # cos(s t) p + sin(s t) V / s in R^3, with p = (cos phi0, sin phi0, 0), V = (-v sin phi0, v cos phi0, w)
    surf = surface_of_revolution(lambda z: np.sqrt(1.0 - z * z), lambda z: -z / np.sqrt(1.0 - z * z), (-0.95, 0.95))
    phi0, (w, v) = 0.4, (0.6, 0.8)
    for M in (surf.manifold, stencil_route(surf)):
        curve = geodesic_integrate(M, np.array([0.0, phi0]), np.array([w, v]), 1.0, 200)
        assert not curve.exited and len(curve) == 201
        z, phi = curve.points.T
        embedded = np.column_stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z])
        s, t = np.hypot(w, v), curve.times[:, None]
        p, V = np.array([np.cos(phi0), np.sin(phi0), 0.0]), np.array([-v * np.sin(phi0), v * np.cos(phi0), w])
        exact = np.cos(s * t) * p + np.sin(s * t) * V / s
        assert np.abs(embedded - exact).max() < 1e-10


def test_surface_closed_form_refuses_points_whose_rho_difference_leaves_the_chart():
    rho, drho, calls = counted_profile()
    spray = surface_of_revolution(rho, drho, z_domain=(-0.5, 0.5)).manifold.geodesic_spray
    # z - h or z + h outside z_domain (z itself inside for the first two), or z not finite: refused before
    # rho or drho is called
    for z in (0.5 - 0.5e-5, -0.5 + 0.5e-5, 0.7, np.nan):
        with pytest.raises(ChartBoundaryError):
            spray(np.array([[z, 0.0, 1.0, 0.2]]))
    assert calls == {"rho": [], "drho": []}
    spray(np.array([[0.5 - 2e-5, 0.0, 1.0, 0.2]]))
    assert len(calls["rho"]) == 1 and len(calls["drho"]) == 3
    # rho(z) <= 0 is outside the chart too, and drho is not called there
    rho, drho, calls = counted_profile(a=0.0, b=1.0)
    for z in (-0.5, 0.0):
        with pytest.raises(ChartBoundaryError):
            surface_of_revolution(rho, drho).manifold.geodesic_spray(np.array([[z, 0.0, 1.0, 0.2]]))
    assert calls == {"rho": [-0.5, 0.0], "drho": []}


def test_surface_geodesics_leave_z_domain_at_the_step_of_the_stencil_route():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos, z_domain=(-0.5, 0.5))
    routes = (surf.manifold, stencil_route(surf))
    one = [geodesic_integrate(M, np.array([0.3, 0.0]), np.array([1.0, 0.2]), 1.0, 50) for M in routes]
    x0 = np.array([[0.0, 0.0], [0.3, 0.0], [0.25, 0.0], [-0.1, 1.0]])
    u0 = np.array([[0.05, 0.3], [0.4, 0.2], [-1.1, -1.8], [-0.02, -0.4]])
    stacked = [geodesic_integrate(M, x0, u0, 1.0, 50) for M in routes]
    for closed, stencil in [one, *zip(*stacked)]:
        assert len(closed) == len(stencil) and closed.exited == stencil.exited
        assert np.abs(closed.points - stencil.points).max() < 1e-9
    assert one[0].exited and [c.exited for c in stacked[0]] == [False, True, True, False]


def test_one_row_stack_of_starts_is_the_one_start_call():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    x0, u0 = np.array([0.3, -0.0]), np.array([0.4, 0.5])
    (curve,) = geodesic_integrate(surf.manifold, x0[None], u0[None], 1.0, 80)
    assert_same_curve(curve, geodesic_integrate(surf.manifold, x0, u0, 1.0, 80))
    (flow,) = flow_integrate(ROTATION, x0[None], 1.0, 80)
    assert_same_curve(flow, flow_integrate(ROTATION, x0, 1.0, 80))


@pytest.mark.parametrize(
    "steps, T, message",
    [
        (0, 1.0, "steps must be >= 1, got 0"),
        (-3, 1.0, "steps must be >= 1, got -3"),
        (10, np.nan, "T must be finite, got nan"),
        (10, -np.inf, "T must be finite, got -inf"),
    ],
)
def test_integrators_refuse_fewer_than_one_step_and_a_nonfinite_horizon(steps, T, message):
    x0, u0 = np.array([0.3, 0.1]), np.array([0.4, 0.5])
    start = StateVector(np.array([0.6, 0.8]))
    for call in (
        lambda: geodesic_integrate(PLANE, x0, u0, T, steps),
        lambda: flow_integrate(ROTATION, x0, T, steps),
        lambda: schrodinger_trajectory(HermitianOperator.diagonal([0.0, 1.0]), start, T, steps),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_integrators_refuse_a_non_integer_step_count_and_take_numpy_integers():
    x0, u0 = np.array([0.3, 0.1]), np.array([0.4, 0.5])
    for steps in (2.5, 3.0, np.float64(3.0)):
        message = f"steps must be an integer, got {steps!r}"
        for call in (
            lambda: geodesic_integrate(PLANE, x0, u0, 1.0, steps),
            lambda: flow_integrate(ROTATION, x0, 1.0, steps),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
    with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.5$"):
        flow_integrate(VectorField(lambda x: -x), [1, 0], 1.0, 2.5)
    assert_same_curve(geodesic_integrate(PLANE, x0, u0, 1.0, np.int64(3)), geodesic_integrate(PLANE, x0, u0, 1.0, 3))
    assert_same_curve(flow_integrate(ROTATION, x0, 1.0, np.int32(3)), flow_integrate(ROTATION, x0, 1.0, 3))


def test_integrators_refuse_a_horizon_that_is_not_a_real_number_and_take_numpy_reals():
    # the trajectory's packed RK4 row refuses T as the two integrators do
    x0, u0 = np.array([0.3, 0.1]), np.array([0.4, 0.5])
    H, start = HermitianOperator.diagonal([0.0, 1.0]), StateVector(np.array([0.6, 0.8]))

    def trajectory(T):
        report = schrodinger_trajectory(H, start, T, 4)
        return [report.flow, report.geodesic]

    def integrations(T):
        """The three calls at horizon T, each giving its list of curves."""
        return (
            lambda: [geodesic_integrate(PLANE, x0, u0, T, 4)],
            lambda: [flow_integrate(VectorField(lambda x: -x), [1.0, 0.0], T, 4)],
            lambda: trajectory(T),
        )

    for T, message in [
        *((T, f"T must be a real number, got {T!r}") for T in ("1", None, 1j, [1.0], True, np.bool_(True), np.ones(1))),
        (10**400, f"T must be finite, got {10**400}"),
        (np.array(np.nan), "T must be finite, got nan"),
    ]:
        for call in integrations(T):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
    for T in (1, np.float32(1.0), np.int64(1), np.array(1.0)):
        for call, reference in zip(integrations(T), integrations(1.0)):
            for curve, expected in zip(call(), reference(), strict=True):
                assert_same_curve(curve, expected)


def test_integrators_refuse_starts_of_the_wrong_shape_or_not_finite():
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos, z_domain=(-0.5, 0.5))
    x0, u0 = np.array([0.3, 0.1]), np.array([0.4, 0.5])
    geodesic = lambda M, x, u: lambda: geodesic_integrate(M, x, u, 1.0, 4)
    flow = lambda X, x: lambda: flow_integrate(X, x, 1.0, 4)
    refused = [
        (geodesic(surf.manifold, np.zeros(3), u0), "x0 must have shape (2,) or (M, 2), got (3,)"),
        (geodesic(PLANE, x0, np.zeros((1, 3))), "u0 must have shape (2,) or (M, 2), got (1, 3)"),
        (
            geodesic(PLANE, np.zeros((2, 2)), np.zeros((3, 2))),
            "x0 and u0 must hold as many starts, got shapes (2, 2) and (3, 2)",
        ),
        (geodesic(surf.manifold, [np.nan, 0.2], u0), "x0 must be finite, got [nan"),
        (geodesic(PLANE, np.zeros((2, 2)), [[1.0, 0.0], [np.inf, 0.0]]), "u0 must be finite, got [inf"),
        (flow(VectorField(lambda x: -x), [np.nan, 0.0]), "x0 must be finite, got [nan"),
        (flow(ROTATION, np.zeros((1, 1, 2))), "x0 must have shape (dim,) or (M, dim), got (1, 1, 2)"),
        (flow(ROTATION, 0.5), "x0 must have shape (dim,) or (M, dim), got ()"),
    ]
    for call, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            call()
    # a finite start outside the chart is not refused: its curve exits at once
    curve = geodesic_integrate(surf.manifold, np.array([0.7, 0.0]), u0, 1.0, 4)
    assert len(curve) == 1 and curve.exited


# ---------------------------------------------------------------------------
# Geodesics check a step's four stage points as one stack, whatever their
# spray; a flat plane with zero acceleration puts stages 2 and 3 of each
# step at its midpoint x + dt/2 u, which neither sample of the step touches


def spray_of(acceleration):
    """The geodesic spray (x, u) -> (u, acceleration(x, u)) on (M, 4) stacks of a plane's packed states."""
    return lambda y: np.concatenate([y[:, 2:], acceleration(y[:, :2], y[:, 2:])], axis=1)


def flat_with_zero_acceleration(domain=None, metric=lambda x: np.eye(2)):
    return ChartManifold(2, metric, domain, name="flat", geodesic_spray=spray_of(lambda x, u: np.zeros_like(u)))


def test_closed_form_geodesic_stops_at_a_step_whose_midpoint_alone_leaves_the_chart():
    # steps of 0.1 along x from 0: step 4 has its midpoint in the band |x - 0.35| < 1e-3 while its
    # samples 0.3 and 0.4 stay outside; the second row runs along y at x = 0.5 and never meets the band
    band = lambda x: abs(x[0] - 0.35) >= 1e-3
    x0, u0 = np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    for M in (flat_with_zero_acceleration(band), ChartManifold(2, lambda x: np.eye(2), band)):  # closed form, stencil
        curves = geodesic_integrate(M, x0, u0, 1.0, 10)
        assert [len(c) for c in curves] == [4, 11] and [c.exited for c in curves] == [True, False]
        assert curves[0].points[-1, 0] == pytest.approx(0.3)


def test_closed_form_geodesic_names_the_first_offending_stage_point():
    # right of x = 0.345 the metric is indefinite: step 4 meets it first at its midpoint, then at x = 0.4
    indefinite = lambda x: np.diag([1.0, -1.0]) if x[0] > 0.345 else np.eye(2)
    midpoint = geodesic_integrate(PLANE, np.zeros(2), np.array([1.0, 0.0]), 1.0, 10).points[3] + [0.05, 0.0]
    with pytest.raises(ValueError, match=re.escape(f"metric not positive-definite at {midpoint}")):
        geodesic_integrate(flat_with_zero_acceleration(metric=indefinite), np.zeros(2), np.array([1.0, 0.0]), 1.0, 10)
    # a domain error at any stage of a step comes before a matrix error at any stage: the curve stops there
    curve = geodesic_integrate(
        flat_with_zero_acceleration(lambda x: x[0] < 0.38, indefinite), np.zeros(2), np.array([1.0, 0.0]), 1.0, 10
    )
    assert curve.exited and len(curve) == 4


def test_integration_breakdown_names_the_step_and_its_time():
    blowup = VectorField(lambda x: x * x)  # x' = x^2 from x = 1 reaches infinity at t = 1
    message = "broke down in step 53 of 100, from t = 1.04: overflow encountered in multiply"
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
        flow_integrate(blowup, np.array([1.0, 0.5]), 2.0, 100)


def test_integration_breakdown_names_the_step_of_a_python_float_overflow():
    blowup = VectorField(lambda x: np.array([float(x[0]) ** 2, 0.0]))  # float ** raises OverflowError
    message = "broke down in step 53 of 100, from t = 1.04: (34, 'Numerical result out of range')"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        flow_integrate(blowup, np.array([1.0, 0.5]), 2.0, 100)


# ---------------------------------------------------------------------------
# RK4 steps are taken in chunks of riemann._CHUNK new states (_CHUNK steps of
# one start) and checked together; a chunk that fails its check is replayed
# one step at a time. A chunk of one step is that per-step path, so every
# curve, exit and error is held to the same call with _CHUNK set to 1 (a test
# seam, not an option).

K = riemann._CHUNK
STEPS = 3 * K + 5
DT = 1.0 / STEPS
EXIT_STEPS = (1, K - 1, K, K + 1, 2 * K, STEPS)


def outcome(call):
    """What call() returned, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def assert_chunks_are_the_per_step_path(monkeypatch, call):
    """call() gives the same curves (bytes of points and velocities, exits) or the same error with chunks of one step."""
    chunked = outcome(call)
    with monkeypatch.context() as m:
        m.setattr(riemann, "_CHUNK", 1)
        per_step = outcome(call)
    if isinstance(per_step, tuple):
        assert chunked == per_step
        return chunked
    assert not isinstance(chunked, tuple), chunked
    curves, reference = (c if isinstance(c, list) else [c] for c in (chunked, per_step))
    assert len(curves) == len(reference)
    for curve, ref in zip(curves, reference):
        assert len(curve) == len(ref) and curve.exited == ref.exited
        for name in ("times", "points", "velocities"):
            assert getattr(curve, name).tobytes() == getattr(ref, name).tobytes()
    return chunked


def east(n):
    """A unit-speed start along x whose step n is the first to reach x = 1 (its midpoint stays short of it)."""
    return np.array([1.0 - (n - 0.25) * DT, 0.0]), np.array([1.0, 0.0])


def north(n):
    """A unit-speed start along y, at x = -5, whose step n is the first to reach y = 1."""
    return np.array([-5.0, 1.0 - (n - 0.25) * DT]), np.array([0.0, 1.0])


def stack(*starts):
    """(x0, u0) stacks of (x, u) starts."""
    return tuple(np.array(rows) for rows in zip(*starts))


# flat plane: the chart ends at x = 1, and the metric is indefinite past y = 1
EDGE_DOMAIN = lambda x: x[0] < 1.0
EDGE_METRIC = lambda x: np.diag([1.0, -1.0]) if x[1] > 1.0 else np.eye(2)


def edge_field(x):
    """East, or north left of x = -1: the flow's counterpart, refusing x >= 1 and raising a ValueError past y = 1."""
    if x[0] >= 1.0:
        raise ChartBoundaryError(f"no chart at {x}")
    if x[1] > 1.0:
        raise ValueError(f"no field at {x}")
    return np.array([1.0, 0.0]) if x[0] > -1.0 else np.array([0.0, 1.0])


def integrate(route, x0, u0):
    """STEPS steps of dt = 1/STEPS on the flat plane with edges, by a closed-form spray, the default spray or the flow."""
    if route == "flow":
        return flow_integrate(VectorField(edge_field), x0, 1.0, STEPS)
    if route == "closed form":
        M = flat_with_zero_acceleration(EDGE_DOMAIN, EDGE_METRIC)
    else:
        M = ChartManifold(2, EDGE_METRIC, EDGE_DOMAIN, name="flat")
    return geodesic_integrate(M, x0, u0, 1.0, STEPS)


ROUTES = ("closed form", "stencil", "flow")


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n", EXIT_STEPS)
def test_chunked_steps_exit_and_raise_at_the_step_of_the_per_step_path(monkeypatch, route, n):
    curve = assert_chunks_are_the_per_step_path(monkeypatch, lambda: integrate(route, *east(n)))
    assert len(curve) == n and curve.exited
    error, message = assert_chunks_are_the_per_step_path(monkeypatch, lambda: integrate(route, *north(n)))
    assert error is ValueError
    # the point named is the one of step n: y = 1 + dt/4, or that point's stencil
    assert re.search(r"at \[-5\.\s+1\.00", message)


@pytest.mark.parametrize("route", ROUTES)
def test_chunked_steps_of_a_stack_whose_rows_exit_in_different_chunks(monkeypatch, route):
    ends = (1, K + 1, 2 * K, STEPS)
    curves = assert_chunks_are_the_per_step_path(monkeypatch, lambda: integrate(route, *stack(*map(east, ends))))
    assert [len(c) for c in curves] == list(ends) and all(c.exited for c in curves)
    # rows exit at steps K - 1, K and K + 1; the fourth then raises at step 2K
    starts = stack(east(K - 1), east(K), east(K + 1), north(2 * K))
    error, _ = assert_chunks_are_the_per_step_path(monkeypatch, lambda: integrate(route, *starts))
    assert error is ValueError


@pytest.mark.parametrize("route", ROUTES)
def test_exited_is_a_python_bool_from_one_start_and_from_a_stack(route):
    # so that a curve's exit goes into JSON as it is
    one = integrate(route, *east(K))
    curves = integrate(route, *stack(east(K), east(STEPS + 1)))
    assert [(type(c.exited), c.exited) for c in [one, *curves]] == [(bool, True), (bool, True), (bool, False)]


KICK = 10.0


def kicked_plane(domain=None, metric=lambda x: np.eye(2)):
    """A flat plane whose closed-form acceleration kicks y by KICK at x on the sample grid of DT, and not between it.

    From x = 0 at unit speed along x, the stages of a step meet the kick at the step's first stage only, so
    each new sample lands DT^2 KICK / 6 beyond the step's fourth stage point in y.
    """

    def acceleration(x, u):
        on_grid = np.abs(x[:, 0] / DT - np.round(x[:, 0] / DT)) < 0.25
        return np.column_stack([np.zeros(len(x)), np.where(on_grid, KICK, 0.0)])

    return ChartManifold(2, metric, domain, name="kicked", geodesic_spray=spray_of(acceleration))


def rising(n):
    """A start on the kicked plane whose new sample of step n is the first point to reach y = 1; its stages stay below."""
    free = geodesic_integrate(kicked_plane(), np.zeros(2), np.array([1.0, 1.0]), 1.0, STEPS)
    return np.array([0.0, 1.0 - free.points[n, 1] + DT**2 * KICK / 12.0]), np.array([1.0, 1.0])


@pytest.mark.parametrize("n", EXIT_STEPS)
def test_chunked_steps_whose_new_sample_alone_leaves_the_chart_exit_at_its_step(monkeypatch, n):
    M = kicked_plane(lambda x: x[1] < 1.0)
    curve = assert_chunks_are_the_per_step_path(monkeypatch, lambda: geodesic_integrate(M, *rising(n), 1.0, STEPS))
    assert len(curve) == n and curve.exited
    # stacked with rows leaving in other chunks, and one that never leaves
    others = [rising(m) for m in (1, 2 * K, STEPS) if m != n]
    starts = stack(rising(n), *others, (np.array([0.0, -50.0]), np.array([1.0, 1.0])))
    curves = assert_chunks_are_the_per_step_path(monkeypatch, lambda: geodesic_integrate(M, *starts, 1.0, STEPS))
    assert [len(c) for c in curves][0] == n and len(curves[-1]) == STEPS + 1


def test_chunked_surface_geodesics_leave_z_domain_at_the_steps_of_the_per_step_path(monkeypatch):
    # rows 1 and 2 leave more than a chunk apart, and the chunks of the rows left grow as they leave
    surf = surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos, z_domain=(-0.5, 0.5))
    x0 = np.array([[0.0, 0.0], [0.3, 0.0], [0.25, 0.0], [-0.1, 1.0]])
    u0 = np.array([[0.05, 0.3], [0.4, 0.2], [-1.1, -1.8], [-0.02, -0.4]]) / 20.0
    for M in (surf.manifold, stencil_route(surf)):
        curves = assert_chunks_are_the_per_step_path(monkeypatch, lambda: geodesic_integrate(M, x0, u0, 20.0, 200))
        assert [c.exited for c in curves] == [False, True, True, False]
        assert len(curves[2]) - len(curves[1]) > K


@pytest.mark.parametrize("rows", [1, 3, K, 40])
def test_a_chunk_holds_at_most_chunk_new_states_of_a_stack(rows):
    # the metric check of a chunk sees 4 points per new state (3 stage points and the state), or one step's of a
    # stack of K rows or more; the first chunk also holds the starts
    seen = []

    def metric(points):
        seen.append(len(points))
        return np.tile(np.eye(2), (len(points), 1, 1))

    M = flat_with_zero_acceleration(metric=StackFunction(metric))
    x0 = np.column_stack([np.linspace(0.0, 1.0, rows), np.zeros(rows)])
    geodesic_integrate(M, x0, np.ones((rows, 2)), 1.0, 2 * K)
    assert seen[0] == rows + 4 * max(1, K // rows) * rows <= rows + 4 * max(K, rows)
    assert max(seen[1:]) == 4 * max(1, K // rows) * rows


def test_each_point_of_an_integration_reaches_the_domain_once(monkeypatch):
    # the starts, then each step's three later stage points and its new sample, each checked once; a harmonic
    # spray keeps them distinct, and a run that stays inside replays no chunk
    seen = []

    def domain(points):
        seen.extend(map(bytes, points))
        return points[:, 0] < 10.0

    spray = spray_of(lambda x, u: -x)
    M = ChartManifold(2, lambda x: np.eye(2), StackFunction(domain), name="harmonic", geodesic_spray=spray)
    one = (np.array([0.5, 0.0]), np.array([0.0, 1.0]))
    starts = one, stack(*[(np.array([0.1 * r, 0.2]), np.ones(2)) for r in range(3)])
    for chunk in (K, 1):
        monkeypatch.setattr(riemann, "_CHUNK", chunk)
        for x0, u0 in starts:
            del seen[:]
            curves = geodesic_integrate(M, x0, u0, 1.0, STEPS)
            curves = curves if isinstance(curves, list) else [curves]
            assert len(seen) == len(curves) * (1 + 4 * STEPS) and len(set(seen)) == len(seen)
            samples = {bytes(x) for c in curves for x in c.points}
            assert len(samples) == len(curves) * (STEPS + 1) and samples <= set(seen)


@pytest.mark.parametrize("n", EXIT_STEPS[:-1])
def test_a_sample_with_an_invalid_metric_is_refused_at_the_step_that_produced_it(monkeypatch, n):
    # sample n is the first point past y = 1, where the metric is indefinite; step n + 1 would leave the chart
    # at its first stage point, but the sample is refused first
    M = kicked_plane(lambda x: x[1] < 1.0 + DT / 4.0, EDGE_METRIC)
    call = lambda: geodesic_integrate(M, *rising(n), 1.0, STEPS)
    error, message = assert_chunks_are_the_per_step_path(monkeypatch, call)
    assert error is ValueError and re.fullmatch(r"metric not positive-definite at \[\S+\s+1\.0000\d+\]", message)


def test_a_last_sample_whose_metric_is_indefinite_raises(monkeypatch):
    # every stage point of the last step lies below y = 1, and the last sample above it
    M = kicked_plane(metric=EDGE_METRIC)
    call = lambda: geodesic_integrate(M, *rising(STEPS), 1.0, STEPS)
    error, message = assert_chunks_are_the_per_step_path(monkeypatch, call)
    assert error is ValueError and re.fullmatch(r"metric not positive-definite at \[\S+\s+1\.0000\d+\]", message)


# A user acceleration may be called past the step where the chart ends a curve,
# up to the end of its chunk; what it does there must not show


def zero_division(x, u):
    raise ZeroDivisionError(f"float division by zero at {x.tolist()}")


def overflow(x, u):
    return np.exp(1e3 * x)  # overflows for x > 0.71


def plane_blowing_up_past(limit, blowup, domain):
    """A flat plane whose closed-form acceleration is zero up to x = limit and blowup(x, u) past it; calls past it are logged."""
    past = []

    def acceleration(x, u):
        if (x[:, 0] > limit).any():
            past.append(x)
            return blowup(x, u)
        return np.zeros_like(u)

    return ChartManifold(2, lambda x: np.eye(2), domain, name="flat", geodesic_spray=spray_of(acceleration)), past


@pytest.mark.parametrize("blowup", [zero_division, overflow])
def test_an_acceleration_that_blows_up_past_the_exit_leaves_the_per_step_curve(monkeypatch, blowup):
    # the chart ends the curve at x = 1 in step 5; its first chunk (of 32 steps alone, of 16 stacked with a
    # row that runs to the end) goes on past x = 1.05. Warnings are recorded, not raised: raised, they
    # would end the chunk as any exception does.
    M, past = plane_blowing_up_past(1.05, blowup, EDGE_DOMAIN)
    for starts, lengths in ((east(5), [5]), (stack(east(5), north(STEPS + 50)), [5, STEPS + 1])):
        del past[:]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call = lambda: geodesic_integrate(M, *starts, 1.0, STEPS)
            curves = assert_chunks_are_the_per_step_path(monkeypatch, call)
        assert caught == []
        curves = curves if isinstance(curves, list) else [curves]
        assert [len(c) for c in curves] == lengths and curves[0].exited
        assert past  # the chunk did step past the exit, and nothing of it shows


def test_an_acceleration_that_blows_up_inside_the_chart_raises_from_its_step(monkeypatch):
    M, _ = plane_blowing_up_past(1.2, zero_division, lambda x: x[0] < 2.0)
    error, message = assert_chunks_are_the_per_step_path(monkeypatch, lambda: geodesic_integrate(M, *east(5), 1.0, STEPS))
    assert error is ZeroDivisionError and message.startswith("float division by zero at [[1.2")
    M, _ = plane_blowing_up_past(1.2, overflow, lambda x: x[0] < 2.0)
    with np.errstate(over="raise"):
        error, message = assert_chunks_are_the_per_step_path(
            monkeypatch, lambda: geodesic_integrate(M, *east(5), 1.0, STEPS)
        )
    assert error is FloatingPointError
    assert re.fullmatch(rf"broke down in step 2\d of {STEPS}, from t = [0-9.]+: overflow encountered in exp", message)


# The RK4 loop takes a right-hand side of its states' shape only


def test_rk4_refuses_a_right_hand_side_of_another_shape_than_its_states(monkeypatch):
    # one component for a 2-d start, once broadcast to both
    call = lambda: flow_integrate(VectorField(lambda x: [1.0]), [0.0, 0.0], 1.0, 4)
    expected = (ValueError, "rhs returned shape (1, 1) for states of shape (1, 2)")
    assert assert_chunks_are_the_per_step_path(monkeypatch, call) == expected
    # a spray that returns the acceleration only
    M = ChartManifold(2, lambda x: np.eye(2), name="flat", geodesic_spray=lambda y: np.zeros((len(y), 2)))
    call = lambda: geodesic_integrate(M, np.zeros((3, 2)), np.ones((3, 2)), 1.0, STEPS)
    expected = (ValueError, "rhs returned shape (3, 2) for states of shape (3, 4)")
    assert assert_chunks_are_the_per_step_path(monkeypatch, call) == expected


def test_errors_that_name_a_point_of_six_or_more_coordinates_stay_on_one_line():
    # numpy's str wraps an array at 75 characters, and a CLI error is one line
    x = [2.97926265e10, 1.2e9, -3.3e10, 3.04116324e10, -1.76133269e10, -4.09086679e10]
    skew = np.eye(6)
    skew[0, 1] = 1.0
    for manifold, kind, needle in (
        (ChartManifold(6, lambda x: -np.eye(6)), ValueError, "metric not positive-definite at ["),
        (ChartManifold(6, lambda x: skew), ValueError, "metric not symmetric at ["),
        (ChartManifold(6, lambda x: np.eye(6), chart_domain=lambda x: x[0] < 0, name="half"), ChartBoundaryError, "point ["),
    ):
        with pytest.raises(kind) as refused:
            manifold.metric_at(x)
        assert needle in str(refused.value) and "\n" not in str(refused.value)
        assert "-4.09086679e+10]" in str(refused.value)
