"""Pressure, critical set, vorticity, Zeno law, and trajectory comparisons."""

import dataclasses
import json
import re

import numpy as np
import pytest

from helpers import field_with_pressure_gradient, random_hermitian, random_state, same_bits
from qhydro import fluid
from qhydro.cli import main
from qhydro.fluid import (
    NODE_BLOCK,
    CriticalPoint,
    GradientCheckError,
    SphereProfile,
    critical_points,
    pressure,
    pressure_gradient,
    pressure_on_sphere,
    schrodinger_trajectory,
    scalar_vorticity,
    vorticity_on_sphere,
    vorticity_transport_residual,
    write_profile_csv,
    zeno_decay,
)
from qhydro.hilbert import (
    DegenerateSpectrumError,
    HermitianOperator,
    StateVector,
    dispersion_squared,
    expectation,
    hermitian_from_json,
    normalized_rows,
)
from qhydro.projective import (
    GeodesicSphere,
    chart_manifold,
    chart_of,
    dispersion_via_metric,
    fubini_study_distance,
    fundamental_field,
    representative,
)
from qhydro.riemann import DiscreteCurve, StackFunction, flow_integrate, geodesic_integrate
from qhydro.spin import NumericalBreakdownError

H01 = HermitianOperator.diagonal([0.0, 1.0])
H123 = HermitianOperator.diagonal([1.0, 2.0, 3.0])
EQUAL = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
SIGMA_X = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# Pressure


def test_pressure_examples():
    assert pressure(H01, StateVector.basis(2, 0)) == pytest.approx(0.0, abs=1e-15)
    assert pressure(H01, EQUAL) == pytest.approx(0.125, abs=1e-14)
    v = StateVector(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    assert pressure(H123, v) == pytest.approx(0.5, abs=1e-13)


def test_pressure_positive_away_from_eigenstates():
    rng = np.random.default_rng(51)
    H = random_hermitian(rng, 3)
    values = [pressure(H, random_state(rng, 3)) for _ in range(10_000)]
    assert min(values) > 0.0
    for k in range(3):
        ek = StateVector(H.eigenvectors[:, k], normalize=True)
        assert pressure(H, ek) < 1e-15


# ---------------------------------------------------------------------------
# Pressure gradient


def test_gradient_vanishes_at_critical_states():
    assert pressure_gradient(H01, StateVector.basis(2, 0)).norm < 1e-10
    assert pressure_gradient(H01, EQUAL).norm < 1e-10
    pair = StateVector(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    assert pressure_gradient(H123, pair).norm < 1e-9


def test_gradient_nonzero_and_orthogonal_to_flow():
    from qhydro.projective import horizontal_lift

    v = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
    grad = pressure_gradient(H01, v)
    assert grad.norm > 1e-3
    k, xy = chart_of(v)
    _, x_lift = horizontal_lift(k, xy, fundamental_field(H01, k)(xy))
    overlap = np.vdot(grad.horizontal, x_lift).real
    assert abs(overlap) < 1e-6


def test_gradient_cross_check_guards_consistency():
    rng = np.random.default_rng(52)
    H = random_hermitian(rng, 4, spectral_range=2.0)
    for _ in range(10):
        pressure_gradient(H, random_state(rng, 4))  # must not raise


# ---------------------------------------------------------------------------
# Critical set


def test_critical_points_two_level():
    cps = critical_points(H01)
    kinds = [cp.kind for cp in cps]
    assert kinds == ["eigenstate", "eigenstate", "pair_superposition"]
    assert cps[2].pressure == pytest.approx(1.0 / 8.0)
    assert cps[2].indices == (1, 0)
    assert cps[2].phase_orbit
    # the pair sits on the equal-probability equator
    amps = np.abs(cps[2].state.amplitudes) ** 2
    assert np.abs(amps - 0.5).max() < 1e-12


def test_critical_points_three_level_pressures():
    cps = critical_points(H123)
    assert len(cps) == 6
    pressures = sorted(cp.pressure for cp in cps)
    assert pressures == pytest.approx([0.0, 0.0, 0.0, 1.0 / 8.0, 1.0 / 8.0, 1.0 / 2.0])
    for cp in cps:
        assert cp.gradient_norm < 1e-8


def test_critical_points_nondiagonal_hamiltonian():
    rng = np.random.default_rng(53)
    H = random_hermitian(rng, 3, spectral_range=2.0)
    cps = critical_points(H)
    lam = H.eigenvalues
    expect = sorted(
        [0.0] * 3 + [(lam[i] - lam[j]) ** 2 / 8.0 for i in range(3) for j in range(i)]
    )
    assert sorted(cp.pressure for cp in cps) == pytest.approx(expect)


def test_critical_points_reject_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        critical_points(HermitianOperator.diagonal([0.0, 1.0, 1.0]))


def test_critical_point_record_shape():
    cp = critical_points(H01)[0]
    assert isinstance(cp, CriticalPoint)
    assert cp.pressure == 0.0 and not cp.phase_orbit and cp.indices == (0,)


# ---------------------------------------------------------------------------
# Vorticity on the pair sphere


def test_scalar_vorticity_closed_form_value():
    assert scalar_vorticity(H01, 1, 0, np.pi / 3, 0.7) == pytest.approx(1.0, abs=1e-6)


def test_vorticity_profile_two_level():
    profile = vorticity_on_sphere(H01, 1, 0, grid=(17, 8))
    assert profile.omega == pytest.approx(1.0)
    assert profile.max_rel_err < 1e-4
    # equator row (theta = pi/2 is the middle of 17 samples)
    assert np.abs(profile.numeric[8]).max() < 1e-6
    # poles carry +/- 2 omega with opposite signs
    assert np.abs(profile.numeric[0] - 2.0).max() < 1e-6
    assert np.abs(profile.numeric[-1] + 2.0).max() < 1e-6


def test_vorticity_scales_with_level_spacing():
    prof_a = vorticity_on_sphere(H123, 2, 0, grid=(5, 4))
    assert prof_a.omega == pytest.approx(2.0)
    assert prof_a.numeric[1, 0] == pytest.approx(2.0 * 2.0 * np.cos(np.pi / 4), abs=1e-5)


def test_transport_residual_vanishes_for_schrodinger_flow():
    th, ph = np.meshgrid(np.linspace(0.0, np.pi, 12), np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False), indexing="ij")
    for H in (H01, random_hermitian(np.random.default_rng(3), 3), random_hermitian(np.random.default_rng(5), 5)):
        for i, j in {(1, 0), (H.dim - 1, 0), (H.dim - 1, H.dim - 2)}:
            assert vorticity_transport_residual(H, i, j, th, ph).max() < 1e-12


def test_transport_residual_degenerate_pair_is_zero():
    H = HermitianOperator.diagonal([0.0, 0.0, 1.0])
    assert vorticity_transport_residual(H, 1, 0, 0.9, 0.1) == 0.0


@pytest.mark.parametrize("dim, i, j", [(2, 1, 0), (4, 3, 1)])
def test_transport_residual_is_the_meridian_slope_of_a_flow_with_a_pressure_gradient(monkeypatch, dim, i, j):
    from qhydro import fluid

    # X + eps grad p: along the unit meridian, dp = omega^2 sin(theta) cos(theta) / 2 (p = omega^2 sin^2(theta) / 8
    # on a sphere of radius 1/2), so the residual is eps omega^2 sin cos / 2 * 4 |omega| sin = 2 eps |omega|^3 sin^2 |cos|
    eps = 1e-3
    H = H01 if dim == 2 else random_hermitian(np.random.default_rng(4), dim)
    omega = GeodesicSphere(H, i, j).omega
    th, ph = np.meshgrid(np.linspace(0.0, np.pi, 13), np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False), indexing="ij")
    monkeypatch.setattr(fluid, "fundamental_field", field_with_pressure_gradient(eps))
    residuals = vorticity_transport_residual(H, i, j, th, ph)
    expected = 2.0 * eps * abs(omega) ** 3 * np.sin(th) ** 2 * np.abs(np.cos(th))
    assert np.abs(residuals - expected).max() < 1e-9 * expected.max()


def test_transport_residual_on_arrays_is_its_scalar_calls_bit_for_bit():
    H = random_hermitian(np.random.default_rng(4), 4)
    th, ph = np.meshgrid(np.linspace(0.0, np.pi, 9), np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False), indexing="ij")
    residuals = vorticity_transport_residual(H, 3, 1, th, ph)
    scalars = [vorticity_transport_residual(H, 3, 1, a, b) for a, b in zip(th.flat, ph.flat)]
    assert all(type(value) is float for value in scalars)
    assert residuals.shape == th.shape
    assert residuals.tobytes() == np.array(scalars).reshape(th.shape).tobytes()


# ---------------------------------------------------------------------------
# Zeno decay


def test_zeno_eigenstate_never_decays():
    e0 = StateVector.basis(2, 0)
    for n in (1, 3, 10):
        assert zeno_decay(H01, e0, 0.3, n) == pytest.approx(1.0, abs=1e-14)


def test_zeno_single_shot_deficit():
    deficit = 1.0 - zeno_decay(H01, EQUAL, 0.1, 1)
    assert deficit == pytest.approx(0.25 * 0.01, rel=0.01)


def test_zeno_split_measurement_deficit():
    deficit = 1.0 - zeno_decay(H01, EQUAL, 0.1, 10)
    assert deficit == pytest.approx(0.25 * 0.01 / 10.0, rel=0.02)


def test_zeno_deficit_scales_inversely_with_n():
    products = []
    for n in (1, 2, 5, 10, 50):
        products.append((1.0 - zeno_decay(H01, EQUAL, 0.1, n)) * n)
    spread = (max(products) - min(products)) / min(products)
    assert spread < 0.03


def test_zeno_input_validation():
    with pytest.raises(ValueError, match=">= 1"):
        zeno_decay(H01, EQUAL, 0.1, 0)
    with pytest.warns(UserWarning, match="quadratic"):
        zeno_decay(H01, EQUAL, 2.0, 1)


def test_zeno_measurement_count_must_be_an_integer():
    # truncated, 2.5 would run the two measurements of N = 2 with no error
    for n in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^measurement count must be an integer, got {re.escape(repr(n))}$"):
            zeno_decay(H01, EQUAL, 0.1, n)
    assert zeno_decay(H01, EQUAL, 0.1, np.int64(3)) == zeno_decay(H01, EQUAL, 0.1, 3)  # numpy integers count


@pytest.mark.filterwarnings("error")
def test_zeno_refuses_a_regime_product_that_overflows():
    H = hermitian_from_json({"dim": 2, "re": [[0, 3], [3, 0]]})
    e0 = StateVector(np.array([1.0, 0.0]))
    with pytest.raises(OverflowError, match=r"^\(Delta H\)\^2 t\^2 overflows a double at t = 1e\+154$"):
        zeno_decay(H, e0, 1e154, 10)


# ---------------------------------------------------------------------------
# Trajectories


def test_trajectory_geodesic_at_pair_point():
    report = schrodinger_trajectory(H01, EQUAL, T=1.0, steps=1000)
    assert report.max_deviation < 1e-6


def test_trajectory_fixed_at_eigenstate():
    report = schrodinger_trajectory(H01, StateVector.basis(2, 0), T=1.0, steps=50)
    assert report.max_deviation < 1e-12
    assert np.abs(report.flow.points - report.flow.points[0]).max() < 1e-12


def test_trajectory_deviates_on_latitude_circle():
    start = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
    report = schrodinger_trajectory(H01, start, T=1.0, steps=1000)
    assert report.max_deviation > 1e-3


# ---------------------------------------------------------------------------
# Symmetries of the outputs


def test_phase_invariance_of_observables():
    v = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
    w = StateVector(np.exp(0.9j) * v.amplitudes)
    assert abs(pressure(H01, v) - pressure(H01, w)) < 1e-10
    assert abs(pressure_gradient(H01, v).norm - pressure_gradient(H01, w).norm) < 1e-10


def test_spectral_shift_and_scale_covariance():
    v = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
    shifted = HermitianOperator(H01.matrix + 4.2 * np.eye(2))
    assert pressure(shifted, v) == pytest.approx(pressure(H01, v), abs=1e-12)
    assert scalar_vorticity(shifted, 1, 0, 1.0, 0.2) == pytest.approx(
        scalar_vorticity(H01, 1, 0, 1.0, 0.2), abs=1e-7
    )
    s = 3.0
    scaled = HermitianOperator(s * H01.matrix)
    assert pressure(scaled, v) == pytest.approx(s**2 * pressure(H01, v), abs=1e-12)
    assert scalar_vorticity(scaled, 1, 0, 1.0, 0.2) == pytest.approx(
        s * scalar_vorticity(H01, 1, 0, 1.0, 0.2), abs=1e-5
    )


# ---------------------------------------------------------------------------
# Euler equation sweep (module-level; the full sweep runs in acceptance)


def test_euler_residual_with_half_variance_pressure():
    from qhydro import fluid, projective, riemann

    rng = np.random.default_rng(55)
    H = random_hermitian(rng, 3)
    for _ in range(10):
        k, xy = chart_of(random_state(rng, 3))
        M = projective.chart_manifold(3, k)
        X = projective.fundamental_field(H, k)
        p = fluid.pressure_scalar_field(H, k)
        res = riemann.euler_residual(M, X, p, xy)
        assert riemann.covector_norm(M, res, xy) < 1e-5


# ---------------------------------------------------------------------------
# Exports


def test_pressure_landscape_matches_closed_form():
    profile = pressure_on_sphere(H123, 2, 0, grid=(9, 6))
    assert profile.numeric.shape == profile.analytic.shape == (9, 6)
    closed_form = np.broadcast_to(4.0 * np.sin(profile.thetas[:, None]) ** 2 / 8.0, (9, 6))
    assert profile.analytic == pytest.approx(closed_form, abs=1e-13)
    assert profile.max_abs_err < 1e-12


def test_sphere_profiles_refuse_a_resolution_that_is_not_an_integer_of_at_least_2():
    # int() took (17.5, 8.9) as a 17 x 8 grid
    for grid, message in (
        ((17.5, 8), "theta resolution must be an integer, got 17.5"),
        ((17, 8.9), "phi resolution must be an integer, got 8.9"),
        ((1, 8), "theta resolution must be >= 2, got 1"),
    ):
        for sample in (pressure_on_sphere, vorticity_on_sphere):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample(H123, 2, 0, grid=grid)


def _per_value_csv_lines(profile):
    """The CSV lines as written one repr per value, theta-major: the oracle of write_profile_csv's bytes."""
    nodes = [f"{theta!r},{phi!r}," for theta in profile.thetas.tolist() for phi in profile.phis.tolist()]
    values = [a.ravel().tolist() for a in (profile.numeric, profile.analytic, profile.abs_err)]
    return ["theta,phi,numeric,analytic,abs_err", *map("{}{!r},{!r},{!r}".format, nodes, *values), ""]


@pytest.mark.parametrize("grid", [(16, 16), (64, 64), (3, 2)])  # (3, 2) is not square: theta-major shows
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_profile_csv_text_is_one_repr_per_value(tmp_path, dim, grid):
    H = random_hermitian(np.random.default_rng(dim), dim)
    path = tmp_path / "profile.csv"
    for profile in (pressure_on_sphere(H, dim - 1, 0, grid=grid), vorticity_on_sphere(H, dim - 1, 1, grid=grid)):
        write_profile_csv(path, profile)
        assert path.read_bytes().decode("utf-8").split("\n") == _per_value_csv_lines(profile)


def test_profile_csv_text_keeps_the_sign_of_zero_and_every_special_double(tmp_path):
    # 0.0 and -0.0 compare equal: formatting each distinct value once must key them by bits
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -0.0, 0.1, 0.0]
    numeric = np.array(specials).reshape(2, 5)
    analytic = np.array(specials[::-1]).reshape(2, 5)
    profile = SphereProfile(1, 0, 1.0, np.array([0.0, np.pi]), np.linspace(0.0, 2.0, 5), numeric, analytic)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, profile)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines == _per_value_csv_lines(profile)
    assert lines[2] == "0.0,0.5,-0.0,0.1,0.1" and lines[9] == f"{np.pi!r},1.5,0.1,-0.0,0.1"


@pytest.mark.parametrize("grid", [(9, 6), (16, 7)])  # odd and even n_theta; both hold both poles
def test_profile_csv_parses_back_to_the_profile_theta_major(tmp_path, grid):
    H = random_hermitian(np.random.default_rng(69), 3)
    n_theta, n_phi = grid
    for profile in (pressure_on_sphere(H, 2, 0, grid=grid), vorticity_on_sphere(H, 2, 0, grid=grid)):
        assert profile.thetas[0] == 0.0 and profile.thetas[-1] == np.pi
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "theta,phi,numeric,analytic,abs_err" and lines[-1] == ""
        table = np.array([[float(token) for token in line.split(",")] for line in lines[1:-1]])
        columns = (
            np.repeat(profile.thetas, n_phi),
            np.tile(profile.phis, n_theta),
            *(a.ravel() for a in (profile.numeric, profile.analytic, profile.abs_err)),
        )
        assert table.shape == (n_theta * n_phi, 5)
        for column, expected in zip(table.T, columns):
            assert (column == expected).all()  # each value written as its repr parses back to itself


# ---------------------------------------------------------------------------
# Closed-form oracles for the stacked paths: the pressure gradient, the
# critical set, the sphere profiles, the dispersion identity and the
# trajectory deviations. A stack also equals its one-row calls.


def variance_gradient_lift(H, v):
    """grad p lifted to the unit vector v, one state at a time: (H - <H>)^2 v - (Delta H)^2 v."""
    mean = expectation(H, v)
    centred = H.apply(v) - mean * v.amplitudes
    return H.matrix @ centred - mean * centred - dispersion_squared(H, v) * v.amplitudes


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_pressure_gradient_lifts_to_the_variance_formula(dim):
    rng = np.random.default_rng(80 + dim)
    H = random_hermitian(rng, dim, spectral_range=2.0)
    for _ in range(5):
        grad = pressure_gradient(H, random_state(rng, dim))
        lift = variance_gradient_lift(H, grad.base)
        assert np.abs(grad.horizontal - lift).max() < 1e-14 * np.linalg.norm(lift)
        assert np.linalg.norm(lift) > 1e-3


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_critical_points_raise_for_the_first_candidate_above_a_threshold(monkeypatch, dim):
    from qhydro import fluid

    rng = np.random.default_rng(68 + dim)
    H = random_hermitian(rng, dim)
    cps = critical_points(H)
    assert [cp.indices for cp in cps] == [(i,) for i in range(dim)] + [(i, j) for i in range(dim) for j in range(i)]
    norms = [cp.gradient_norm for cp in cps]
    assert norms == [pressure_gradient(H, cp.state).norm for cp in cps]  # the stack equals its one-row calls
    mismatches = []
    with monkeypatch.context() as patch:
        patch.setattr(fluid, "CROSS_TOL", 0.0)
        for cp in cps:
            with pytest.raises(GradientCheckError) as failed:
                pressure_gradient(H, cp.state)
            mismatches.append(float(re.search(r"disagree by (\S+) \(", str(failed.value)).group(1)))
    # a threshold between the candidates' own values: the first candidate above it, in enumeration order, raises
    for values, tol, message in (
        (mismatches, "CROSS_TOL", "pressure gradient routes disagree by {value!r} "),
        (norms, "GRAD_TOL", "enumerated {kind} {indices} fails the gradient check: |grad p| = {value!r}"),
    ):
        threshold = float(np.median(values))
        first = next(n for n, value in enumerate(values) if value > threshold)
        with monkeypatch.context() as patch, pytest.raises(GradientCheckError) as failed:
            patch.setattr(fluid, tol, threshold)
            critical_points(H)
        expected = message.format(value=values[first], kind=cps[first].kind, indices=cps[first].indices)
        assert str(failed.value).startswith(expected)


# The pressure gradient's two routes: the closed form P_perp (H - <H>)^2 v,
# and -nabla_X X from one order-2 stencil stack per chart, whose metric
# measures their disagreement.


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_pressure_gradient_is_the_closed_form_and_its_cross_check_equals_the_public_operators(dim):
    from helpers import same_bits
    from qhydro import fluid
    from qhydro.projective import chart_manifold, horizontal_lift
    from qhydro.riemann import _bilinear, covariant_derivative

    rng = np.random.default_rng(70 + dim)
    H = random_hermitian(rng, dim)
    ks = np.repeat(np.arange(dim), 20)
    xs = rng.uniform(-1.0, 1.0, size=(len(ks), 2 * (dim - 1)))
    grads, mismatches = fluid._pressure_gradients(H, ks, xs)
    for k in range(dim):
        x, M, X = xs[ks == k], chart_manifold(dim, k), fundamental_field(H, k)
        for y, grad in zip(x, grads[ks == k]):
            base, lift = horizontal_lift(k, y, grad)
            assert np.abs(lift - variance_gradient_lift(H, StateVector(base))).max() < 1e-14 * np.linalg.norm(lift)
        g = M.metric_at(x)
        mismatch = grads[ks == k] + covariant_derivative(M, X, X, x)
        assert same_bits(mismatches[ks == k], np.sqrt(_bilinear(mismatch, g, mismatch)))


def test_pressure_gradient_with_an_unsquared_centred_operator_fails_its_cross_check(monkeypatch):
    # (H - <H>) v in place of its square lifts i X, orthogonal to grad p at a generic state
    from qhydro import fluid

    def unsquared(H, v):
        Hv = H.apply_stack(v)
        return Hv - (v.conj() * Hv).sum(axis=1, keepdims=True).real * v

    rng = np.random.default_rng(78)
    cases = [(random_hermitian(rng, dim), random_state(rng, dim)) for dim in (2, 3, 4, 5)]
    assert all(pressure_gradient(H, state).norm > 1e-3 for H, state in cases)
    monkeypatch.setattr(fluid, "_variance_gradient_lifts", unsquared)
    for H, state in cases:
        with pytest.raises(GradientCheckError, match="^pressure gradient routes disagree"):
            pressure_gradient(H, state)


@pytest.mark.parametrize(
    "scale, gradient, critical",
    [  # at 1e100 the pressures fit in a double and the routes' disagreement does not
        (1e100, "routes at", "the pressure gradient routes at enumerated eigenstate (0,) disagree by inf"),
        (1e300, "at", "the pressure of the pair superposition (1, 0) overflows: gap "),
    ],
)
def test_a_gradient_or_pair_pressure_that_overflows_is_named(scale, gradient, critical):
    rng = np.random.default_rng(79)
    H, state = HermitianOperator(random_hermitian(rng, 3).matrix * scale), random_state(rng, 3)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalBreakdownError, match=f"^the pressure gradient {gradient} {re.escape(repr(state))} "):
            pressure_gradient(H, state)
        with pytest.raises(NumericalBreakdownError, match=f"^{re.escape(critical)}"):
            critical_points(H)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_critical_points_evaluate_one_metric_stack_and_one_order_2_field_stack_per_chart(monkeypatch, dim):
    from helpers import count_field_stacks, count_metric_stacks
    from qhydro import fluid

    calls = []
    count_metric_stacks(monkeypatch, calls)
    count_field_stacks(monkeypatch, calls, fluid, "fundamental_field", "X")
    H = random_hermitian(np.random.default_rng(75 + dim), dim)
    cps = critical_points(H)
    per_chart = np.bincount([chart_of(cp.state)[0] for cp in cps], minlength=dim)
    stacks = sorted(n * (1 + 4 * (dim - 1)) for n in per_chart if n)  # the candidates of a chart and their stencils
    assert len(stacks) >= 2
    assert sorted(rows for kind, rows in calls if kind == "metric") == stacks
    assert sorted(rows for kind, rows in calls if kind == "X") == stacks


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_sphere_profiles_match_their_closed_forms_across_charts(dim):
    rng = np.random.default_rng(62 + dim)
    H = random_hermitian(rng, dim)
    i = int(rng.integers(1, dim))
    j = int(rng.integers(0, i))
    sphere = GeodesicSphere(H, i, j)
    grid = (17, 8)
    profile = vorticity_on_sphere(H, i, j, grid=grid)
    th, ph = np.meshgrid(profile.thetas, profile.phis, indexing="ij")
    counts = np.bincount(sphere.oriented_frames(th.ravel(), ph.ravel())[0])
    assert np.count_nonzero(counts) >= 2 and counts.max() > NODE_BLOCK  # two charts, and blocks within one
    assert np.array_equal(profile.analytic, 2.0 * sphere.omega * np.cos(th))
    assert profile.max_rel_err < 1e-4  # both poles included, each with its sign
    assert profile.max_rel_err == profile.max_abs_err / (2.0 * abs(sphere.omega))
    for a, b in ((0, 3), (1, 2), (8, 5), (16, 7)):  # both poles and nodes between them: one node equals its grid entry
        assert scalar_vorticity(H, i, j, profile.thetas[a], profile.phis[b]) == profile.numeric[a, b]
    assert pressure_on_sphere(H, i, j, grid=grid).max_abs_err < 1e-12


def test_dispersion_via_metric_equals_the_variance_on_stacks_and_in_verify(tmp_path):
    rng = np.random.default_rng(72)
    for dim in (2, 3, 4, 5):
        H = random_hermitian(rng, dim)
        amps = np.array([random_state(rng, dim).amplitudes for _ in range(40)])
        via = dispersion_via_metric(H, amps)
        assert np.abs(via - dispersion_squared(H, amps)).max() < 1e-13
        assert [dispersion_via_metric(H, StateVector(a)) for a in amps[:5]] == via[:5].tolist()
    H = random_hermitian(rng, 4)
    path = tmp_path / "H.json"
    path.write_text(json.dumps({"dim": 4, "re": H.matrix.real.tolist(), "im": H.matrix.imag.tolist()}))
    out = tmp_path / "verify.json"
    assert main(["verify", "--input", str(path), "--seed", "5", "--output", str(out)]) == 0
    check = next(c for c in json.loads(out.read_text())["checks"] if c["check"] == "dispersion_identity")
    assert check["passed"] and check["max_residual"] < 1e-13


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_trajectory_deviations_follow_the_flow_and_the_great_circle(dim):
    # the flow is exp(-iHt) v; the geodesic from v with the flow's velocity w is cos(|w| t) v + sin(|w| t) w / |w|;
    # rays a, b at distance d below pi/2 have |b - a <a|b>| = sin d
    rng = np.random.default_rng(75 + dim)
    H = random_hermitian(rng, dim)
    report = schrodinger_trajectory(H, random_state(rng, dim), T=1.0, steps=200)
    k, m = report.chart_index, min(len(report.flow), len(report.geodesic))
    t = report.flow.times[:m, None]
    v = StateVector(representative(k, report.flow.points[0]), normalize=True)
    w = -1j * (H.apply(v) - expectation(H, v) * v.amplitudes)
    speed = np.linalg.norm(w)
    vals, vecs = H.eigenvalues, H.eigenvectors
    flow = (np.exp(-1j * vals * t) * (vecs.conj().T @ v.amplitudes)) @ vecs.T
    geodesic = np.cos(speed * t) * v.amplitudes + np.sin(speed * t) * w / speed
    normal = geodesic - flow * (flow.conj() * geodesic).sum(axis=1, keepdims=True)
    expected = np.arcsin(np.linalg.norm(normal, axis=1))
    assert np.abs(report.deviations - expected).max() < 1e-11
    assert report.max_deviation == report.deviations.max() > 1e-2


# ---------------------------------------------------------------------------
# The trajectory's packed RK4 row: one run, the bits of the two integrators, and one breakdown rule


def two_integrators(H, state, T, steps, manifold=None):
    """flow_integrate and geodesic_integrate from the trajectory's start, called directly, and the report's deviations."""
    k, x = chart_of(state)
    X = fundamental_field(H, k)
    flow = flow_integrate(X, x, T, steps)
    geo = geodesic_integrate(chart_manifold(H.dim, k) if manifold is None else manifold, x, X(x), T, steps)
    m = min(len(flow), len(geo))
    chart_points = (normalized_rows(representative(k, c.points[:m])) for c in (flow, geo))
    return flow, geo, fubini_study_distance(*chart_points)


def assert_report_is(report, flow, geo, deviations):
    """The report's curves and deviations have the bytes of the given ones (NaNs included)."""
    for curve, reference in ((report.flow, flow), (report.geodesic, geo)):
        assert curve.exited is reference.exited
        for name in ("times", "points", "velocities"):
            assert same_bits(getattr(curve, name), getattr(reference, name))
    assert same_bits(report.deviations, deviations)
    assert repr(report.max_deviation) == repr(float(deviations.max()))


def count_rk4_runs(monkeypatch):
    """A list that gets one entry at each _rk4 call of fluid from now on."""
    runs, rk4 = [], fluid._rk4
    monkeypatch.setattr(fluid, "_rk4", lambda *args: (runs.append(args[3]), rk4(*args))[1])
    return runs


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_trajectory_is_one_packed_rk4_row_with_the_bits_of_the_two_integrators(monkeypatch, dim):
    # steps of 31, 32 and 33 end a one-row run's chunks of _rk4's 32 steps just before, at and just after a step
    rng = np.random.default_rng(90 + dim)
    H = random_hermitian(rng, dim)
    starts = [random_state(rng, dim), random_state(rng, dim), StateVector(H.eigenvectors[:, dim - 1], normalize=True)]
    for state in starts:
        for steps in (1, 31, 32, 33, 100):
            T = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
            with monkeypatch.context() as patch:
                runs = count_rk4_runs(patch)
                report = schrodinger_trajectory(H, state, T, steps)
            assert runs == [steps]
            assert_report_is(report, *two_integrators(H, state, T, steps))


# H = sigma_x - sigma_y from +x on the Bloch sphere: the flow circles 45 degrees from its axis inside chart 0, while
# the geodesic is the great circle through e_1, chart 0's point at infinity; sigma_x carries e_0 there at t = pi/2
SIGMA_X_MINUS_Y = HermitianOperator(np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]]))
PLUS_X = StateVector(np.array([1.0, 1.0]), normalize=True)
BREAKDOWNS = [
    (SIGMA_X, StateVector.basis(2, 0), 2.0, "316 of 400, from t = 1.575", "[ 0.00000000e+00 -3.92607695e+09]"),
    (SIGMA_X_MINUS_Y, PLUS_X, 3.0, "316 of 400, from t = 2.3625", "[-2.61759905e+09  0.00000000e+00]"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("H, state, T, step, point", BREAKDOWNS)
@pytest.mark.parametrize("errstate", [{}, {"all": "ignore"}, {"over": "raise", "invalid": "raise"}])
def test_a_geodesic_through_the_point_at_infinity_breaks_down_in_one_run(monkeypatch, H, state, T, step, point, errstate):
    # the Fubini-Study metric is positive-definite in exact arithmetic: its check fails only by round-off, a
    # breakdown named by the step, whatever the caller's errstate
    runs = count_rk4_runs(monkeypatch)
    message = f"the trajectory on chart 0 broke down in step {step}: the geodesic's metric not positive-definite at {point}"
    with np.errstate(**errstate), pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
        schrodinger_trajectory(H, state, T, 400)
    assert runs == [400]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "T, steps, step", [(1e308, 10, "1 of 10, from t = 0"), (1e200, 7, "1 of 7, from t = 0"), (50.0, 3, "3 of 3, from t = 33.3333")]
)
def test_an_overflowing_trajectory_raises_naming_the_step_under_the_default_errstate(T, steps, step):
    # no RuntimeWarning and no curve of NaNs: the row runs under over and invalid raise whatever the caller's errstate
    rng = np.random.default_rng(0)
    H, state = random_hermitian(rng, 3), random_state(rng, 3)
    message = f"the trajectory on chart 0 broke down in step {step}: overflow encountered in multiply"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        schrodinger_trajectory(H, state, T, steps)


def test_a_row_exit_ends_both_curves_at_one_step(monkeypatch):
    # a bounded chart makes the geodesic's point check raise ChartBoundaryError mid-run, in its second chunk of
    # steps: an exit, not a breakdown, and the flow ends with the geodesic
    rng = np.random.default_rng(7)
    H, state = random_hermitian(rng, 3), random_state(rng, 3)
    bound = np.abs(chart_of(state)[1]).max() + 0.05

    def bounded(dim, k):
        domain = StackFunction(lambda points: np.abs(points).max(axis=1) < bound)
        return dataclasses.replace(chart_manifold(dim, k), chart_domain=domain)

    monkeypatch.setattr(fluid, "chart_manifold", bounded)
    report = schrodinger_trajectory(H, state, 2.0, 100)
    flow, geo, deviations = two_integrators(H, state, 2.0, 100, bounded(3, report.chart_index))
    assert geo.exited and 32 < len(geo) < 101 and not flow.exited
    m = len(geo)
    assert report.flow.exited and report.geodesic.exited and len(report.flow) == m
    assert_report_is(report, DiscreteCurve(flow.times[:m], flow.points[:m], flow.velocities[:m], True), geo, deviations)
