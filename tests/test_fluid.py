"""Pressure, critical set, vorticity, Zeno law, and trajectory comparisons."""

import json

import numpy as np
import pytest

from helpers import random_hermitian, random_state
from qhydro.cli import main
from qhydro.fluid import (
    NODE_BLOCK,
    CriticalPoint,
    critical_points,
    pressure,
    pressure_gradient,
    pressure_on_sphere,
    pressure_scalar_field,
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
    hermitian_from_json,
)
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
from qhydro.riemann import FD_STEP, covariant_derivative, differential, exterior_derivative_oneform, flat_form

H01 = HermitianOperator.diagonal([0.0, 1.0])
H123 = HermitianOperator.diagonal([1.0, 2.0, 3.0])
EQUAL = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


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
    rng = np.random.default_rng(54)
    for _ in range(20):
        theta, phi = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.0, 2 * np.pi)
        assert vorticity_transport_residual(H01, 1, 0, theta, phi) < 1e-8


def test_transport_residual_degenerate_pair_is_zero():
    H = HermitianOperator.diagonal([0.0, 0.0, 1.0])
    assert vorticity_transport_residual(H, 1, 0, 0.9, 0.1) == 0.0


def test_transport_residual_detects_meridian_perturbation():
    eps, theta = 1e-3, 1.1
    omega = 1.0
    res = vorticity_transport_residual(H01, 1, 0, theta, 0.0, field=(eps, omega))
    assert res == pytest.approx(eps * 2.0 * omega * np.sin(theta), rel=1e-6)


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


def test_profile_csv_round_trip(tmp_path):
    path = tmp_path / "profile.csv"
    profile = vorticity_on_sphere(H01, 1, 0, grid=(3, 2))
    write_profile_csv(path, profile)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "theta,phi,numeric,analytic,abs_err"
    assert len(lines) == 1 + 3 * 2
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[3] == pytest.approx(2.0)  # analytic 2 omega cos(0)


def row_csv(rows):
    """The per-row CSV writer that write_profile_csv replaced: repr(float) of every value."""
    return "theta,phi,numeric,analytic,abs_err\n" + "".join(
        ",".join(repr(float(entry)) for entry in row) + "\n" for row in rows
    )


def row_pressure(H, i, j, grid):
    """Pressure rows as the tuple-list sampler built them, on the flat theta-major node arrays."""
    sphere = GeodesicSphere(H, i, j)
    thetas = np.repeat(np.linspace(0.0, np.pi, grid[0]), grid[1])
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, grid[1], endpoint=False), grid[0])
    z = sphere.representative(thetas[:, None], phis[:, None])
    numeric = 0.5 * dispersion_squared(H, z / np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=1))[:, None])
    analytic = sphere.omega**2 * np.sin(thetas) ** 2 / 8.0
    return [
        (float(th), float(ph), float(num), float(ana), abs(float(num) - float(ana)))
        for th, ph, num, ana in zip(thetas, phis, numeric, analytic)
    ]


def row_vorticity(profile):
    """Vorticity rows as the per-node generator gave them, with one analytic value 2 omega cos(theta) per theta."""
    analytic = 2.0 * profile.omega * np.cos(profile.thetas)
    for a, th in enumerate(profile.thetas):
        for b, ph in enumerate(profile.phis):
            num, ana = float(profile.numeric[a, b]), float(analytic[a])
            yield th, ph, num, ana, abs(num - ana)


@pytest.mark.parametrize("grid", [(9, 6), (16, 7)])  # odd and even n_theta; both hold both poles
def test_profile_csv_equals_per_row_writer_byte_for_byte(tmp_path, grid):
    H = random_hermitian(np.random.default_rng(69), 3)
    i, j = 2, 0
    sphere = GeodesicSphere(H, i, j)
    thetas = np.linspace(0.0, np.pi, grid[0])
    phis = np.linspace(0.0, 2.0 * np.pi, grid[1], endpoint=False)
    v = sphere.representative(np.repeat(thetas, grid[1])[:, None], np.tile(phis, grid[0])[:, None])
    assert len(set(np.abs(v).argmax(axis=1).tolist())) >= 2  # the sphere spans two charts or more
    pressure_profile = pressure_on_sphere(H, i, j, grid=grid)
    vorticity_profile = vorticity_on_sphere(H, i, j, grid=grid)
    for profile, rows in (
        (pressure_profile, row_pressure(H, i, j, grid)),
        (vorticity_profile, row_vorticity(vorticity_profile)),
    ):
        assert profile.thetas[0] == 0.0 and profile.thetas[-1] == np.pi
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile)
        assert path.read_bytes() == row_csv(rows).encode()
    peak = 2.0 * abs(vorticity_profile.omega)
    assert vorticity_profile.max_rel_err == vorticity_profile.max_abs_err / peak


def column_csv(path, profile):
    """The column writer that write_profile_csv replaced: one repr per value, theta and phi included."""
    n_theta, n_phi = profile.numeric.shape
    columns = [
        np.repeat(profile.thetas, n_phi).tolist(),
        np.tile(profile.phis, n_theta).tolist(),
        *(a.ravel().tolist() for a in (profile.numeric, profile.analytic, profile.abs_err)),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,phi,numeric,analytic,abs_err\n")
        fh.writelines(f"{a!r},{b!r},{c!r},{d!r},{e!r}\n" for a, b, c, d, e in zip(*columns))


def test_profile_csv_equals_the_column_writer_byte_for_byte(tmp_path):
    H = random_hermitian(np.random.default_rng(71), 4)
    for profile in (
        pressure_on_sphere(H, 3, 1, grid=(16, 16)),
        pressure_on_sphere(H, 2, 0, grid=(64, 64)),
        vorticity_on_sphere(H, 1, 0, grid=(12, 12)),
    ):
        assert profile.thetas[0] == 0.0 and profile.thetas[-1] == np.pi
        write_profile_csv(tmp_path / "new.csv", profile)
        column_csv(tmp_path / "old.csv", profile)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# The stacked paths against copies of the per-item loops they replaced
#
# The copies below take sphere nodes, critical-point candidates, states and
# trajectory samples one at a time, through StateVector and single-point
# arithmetic, and build the chart metric, representative and field with
# fresh slot lists and a fresh identity matrix. The library takes each set
# as stacks, and must give the same floating-point numbers, bit for bit.


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        a, b = a.astype(complex).view(float), b.astype(complex).view(float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def loop_slots(dim, k):
    return [a for a in range(dim) if a != k]


def loop_interleave(zeta):
    out = np.empty(2 * zeta.size)
    out[0::2] = zeta.real
    out[1::2] = zeta.imag
    return out


def loop_chart(state, k):
    amp = state.amplitudes
    return k, loop_interleave(amp[loop_slots(amp.size, k)] / amp[k])


def loop_representative(k, xy):
    z = np.zeros(xy.size // 2 + 1, dtype=complex)
    z[k] = 1.0
    z[loop_slots(z.size, k)] = xy[0::2] + 1j * xy[1::2]
    return z


def loop_metric(xy):
    xy = xy[None]
    nz2 = 1.0 + (xy * xy).sum(axis=1)
    r = xy / np.sqrt(nz2)[:, None]
    s = np.empty_like(r)
    s[:, 0::2] = r[:, 1::2]
    s[:, 1::2] = -r[:, 0::2]
    outer = r[:, :, None] * r[:, None, :] + s[:, :, None] * s[:, None, :]
    return ((np.eye(xy.shape[1]) - outer) / nz2[:, None, None])[0]


def loop_field(H, k, xy):
    z = loop_representative(k, xy)[None]
    Az = H.apply_stack(z)
    slots = loop_slots(H.dim, k)
    return loop_interleave((-1j * (Az[:, slots] - z[:, slots] * Az[:, k, None]))[0])


def loop_project_tangent(v, w, k):
    pivot = v[k]
    slots = loop_slots(v.size, k)
    return loop_interleave((w[slots] * pivot - v[slots] * w[k]) / pivot**2)


def loop_oriented_frame(sphere, theta, phi, pole_tol=1e-8):
    v = sphere.representative(theta, phi)
    k = int(np.argmax(np.abs(v)))
    chart = loop_chart(StateVector(v, normalize=True), k)
    g = loop_metric(chart[1])
    if abs(np.sin(theta)) > pole_tol:
        d_th, d_ph = sphere.embedding_velocities(theta, phi)
        t1 = loop_project_tangent(v, d_th, k)
        t2 = loop_project_tangent(v, d_ph, k)
    else:
        d_th1, _ = sphere.embedding_velocities(theta, phi)
        v2 = sphere.representative(theta, phi + np.pi / 2.0)
        d_th2, _ = sphere.embedding_velocities(theta, phi + np.pi / 2.0)
        t1 = loop_project_tangent(v, d_th1, k)
        t2 = loop_project_tangent(v2, d_th2, k)
        if theta > np.pi / 2.0:
            t2 = -t2
    return chart, t1 / np.sqrt(t1 @ g @ t1), t2 / np.sqrt(t2 @ g @ t2)


def loop_scalar_vorticities(H, frames, h=FD_STEP):
    out = np.empty(len(frames))
    for k in sorted({chart[0] for chart, _, _ in frames}):
        rows = [n for n, (chart, _, _) in enumerate(frames) if chart[0] == k]
        manifold = chart_manifold(H.dim, k)
        X = fundamental_field(H, k)
        x = np.array([frames[n][0][1] for n in rows])
        w = exterior_derivative_oneform(manifold, flat_form(manifold, X), x, h)
        u1 = np.array([frames[n][1] for n in rows])
        u2 = np.array([frames[n][2] for n in rows])
        out[rows] = (u1 * (w * u2[:, None, :]).sum(axis=2)).sum(axis=1)
    return out


def loop_vorticity_grid(H, sphere, thetas, phis):
    nodes = [(th, ph) for th in thetas for ph in phis]
    blocks = [
        loop_scalar_vorticities(H, [loop_oriented_frame(sphere, *node) for node in nodes[start : start + NODE_BLOCK]])
        for start in range(0, len(nodes), NODE_BLOCK)
    ]
    return np.concatenate(blocks).reshape(len(thetas), len(phis))


def loop_gradient_routes(H, state, h=FD_STEP):
    k, xy = loop_chart(state, int(np.argmax(np.abs(state.amplitudes))))
    manifold = chart_manifold(H.dim, k)
    p = pressure_scalar_field(H, k)
    dp = differential(manifold, p, xy, h, order=4)
    grad = np.linalg.solve(manifold.metric_at(xy), dp)
    X = fundamental_field(H, k)
    advection = covariant_derivative(manifold, X, X, xy, h)
    mismatch = grad + advection
    return (k, xy), grad, float(np.sqrt(mismatch @ manifold.metric_at(xy) @ mismatch))


def loop_pressure_gradient(H, state, cross_tol=1e-5):
    chart, grad, mismatch_norm = loop_gradient_routes(H, state)
    if mismatch_norm > cross_tol:
        raise ValueError(
            f"pressure gradient routes disagree by {mismatch_norm!r} (> {cross_tol}); "
            "metric normalization or field generator is inconsistent"
        )
    base_v, w = horizontal_lift(*chart, grad)
    return TangentAtPoint(StateVector(base_v), w)


def loop_candidates(H):
    vals, vecs = H.eigenvalues, H.eigenvectors
    out = [(StateVector(vecs[:, i], normalize=True), "eigenstate", (i,), 0.0, False) for i in range(H.dim)]
    for i in range(H.dim):
        for j in range(i):
            state = StateVector((vecs[:, j] + vecs[:, i]) / np.sqrt(2.0), normalize=True)
            out.append((state, "pair_superposition", (i, j), float(vals[i] - vals[j]) ** 2 / 8.0, True))
    return out


def loop_critical_points(H, grad_tol=1e-8, cross_tol=1e-5):
    out = []
    for state, kind, indices, press, phase_orbit in loop_candidates(H):
        norm = loop_pressure_gradient(H, state, cross_tol=cross_tol).norm
        if norm > grad_tol:
            raise ValueError(f"enumerated {kind} {indices} fails the gradient check: |grad p| = {norm!r}")
        out.append(CriticalPoint(kind, indices, state, press, phase_orbit, norm))
    return out


def loop_dispersion_via_metric(H, state):
    k, xy = loop_chart(state, int(np.argmax(np.abs(state.amplitudes))))
    X = loop_field(H, k, xy)
    return float(X @ loop_metric(xy) @ X)


def loop_fubini_study_distance(u, v):
    overlap = u.inner(v)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    chord = float(np.linalg.norm(v.amplitudes - phase * u.amplitudes))
    return 2.0 * float(np.arcsin(min(chord / 2.0, 1.0)))


def test_chart_metric_representative_and_field_equal_loop_copies_bit_for_bit():
    rng = np.random.default_rng(61)
    for dim in (2, 3, 4, 5):
        H = random_hermitian(rng, dim)
        for k in range(dim):
            xy = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=(7, 2 * (dim - 1)))
            X = fundamental_field(H, k)
            assert same_bits(fubini_study_metric(xy), [loop_metric(x) for x in xy])
            assert same_bits(representative(k, xy), [loop_representative(k, x) for x in xy])
            assert same_bits(X.stack(xy), [loop_field(H, k, x) for x in xy])
            for x in xy:
                assert same_bits(fubini_study_metric(x), loop_metric(x))
                assert same_bits(X(x), loop_field(H, k, x))
            state = random_state(rng, dim)
            assert same_bits(chart_of(state, k)[1], loop_chart(state, k)[1])
            v, w = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
            assert same_bits(project_tangent(v, w, k), loop_project_tangent(v, w, k))


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_vorticity_grid_equals_per_node_loop_bit_for_bit(dim):
    rng = np.random.default_rng(62 + dim)
    H = random_hermitian(rng, dim)
    for grid in ((9, 6), (17, 8)):  # 17 x 8 puts more than NODE_BLOCK nodes in a chart
        i = int(rng.integers(1, dim))
        j = int(rng.integers(0, i))
        sphere = GeodesicSphere(H, i, j)
        thetas = np.linspace(0.0, np.pi, grid[0])
        phis = np.linspace(0.0, 2.0 * np.pi, grid[1], endpoint=False)
        ks, coords, u1, u2 = sphere.oriented_frames(np.repeat(thetas, grid[1]), np.tile(phis, grid[0]))
        frames = [loop_oriented_frame(sphere, th, ph) for th in thetas for ph in phis]
        assert len(set(ks.tolist())) >= 2  # the grid spans two charts or more
        assert ks.tolist() == [chart[0] for chart, _, _ in frames]
        assert same_bits(coords, [chart[1] for chart, _, _ in frames])
        assert same_bits(u1, [f[1] for f in frames]) and same_bits(u2, [f[2] for f in frames])
        for n in (0, len(frames) - 1, len(frames) // 2):  # both poles and a node between them
            node = np.repeat(thetas, grid[1])[n], np.tile(phis, grid[0])[n]
            k, x, e1, e2 = sphere.oriented_frames([node[0]], [node[1]])
            assert k[0] == frames[n][0][0] and same_bits(x[0], frames[n][0][1])
            assert same_bits(e1[0], frames[n][1]) and same_bits(e2[0], frames[n][2])
        profile = vorticity_on_sphere(H, i, j, grid=grid)
        assert same_bits(profile.numeric, loop_vorticity_grid(H, sphere, thetas, phis))
        one = loop_scalar_vorticities(H, [frames[grid[1] + 2]])[0]
        assert scalar_vorticity(H, i, j, thetas[1], phis[2]) == float(one)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_critical_points_and_gradients_equal_per_point_loop_bit_for_bit(dim):
    rng = np.random.default_rng(65 + dim)
    H = random_hermitian(rng, dim)
    cps, ref = critical_points(H), loop_critical_points(H)
    assert len(cps) == len(ref) == dim + dim * (dim - 1) // 2
    for cp, expect in zip(cps, ref):
        assert (cp.kind, cp.indices, cp.pressure, cp.phase_orbit) == (
            expect.kind, expect.indices, expect.pressure, expect.phase_orbit
        )
        assert same_bits(cp.state.amplitudes, expect.state.amplitudes)
        assert cp.gradient_norm == expect.gradient_norm
    for _ in range(5):
        state = random_state(rng, dim)
        grad, expect = pressure_gradient(H, state), loop_pressure_gradient(H, state)
        assert same_bits(grad.horizontal, expect.horizontal)
        assert same_bits(grad.base.amplitudes, expect.base.amplitudes)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_critical_point_failures_raise_the_loop_message_in_enumeration_order(dim):
    rng = np.random.default_rng(68 + dim)
    H = random_hermitian(rng, dim)
    states = [state for state, *_ in loop_candidates(H)]
    mismatches = [loop_gradient_routes(H, state)[2] for state in states]
    norms = [cp.gradient_norm for cp in loop_critical_points(H)]
    # a threshold between the candidates' values: the first candidate above it, in enumeration order, raises
    for grad_tol, cross_tol, message in (
        (1e-8, float(np.median(mismatches)), "routes disagree"),
        (float(np.median(norms)), 1e-5, "fails the gradient check"),
    ):
        with pytest.raises(ValueError, match=message) as stacked:
            critical_points(H, grad_tol=grad_tol, cross_tol=cross_tol)
        with pytest.raises(ValueError) as loop:
            loop_critical_points(H, grad_tol=grad_tol, cross_tol=cross_tol)
        assert str(stacked.value) == str(loop.value)
    with pytest.raises(ValueError, match="routes disagree") as stacked:
        critical_points(H, cross_tol=0.0)
    with pytest.raises(ValueError) as loop:
        loop_critical_points(H, cross_tol=0.0)
    assert str(stacked.value) == str(loop.value)


def test_dispersion_identity_equals_per_state_loop_bit_for_bit(tmp_path):
    rng = np.random.default_rng(72)
    for dim in (2, 3, 4, 5):
        H = random_hermitian(rng, dim)
        states = [random_state(rng, dim) for _ in range(40)]
        amps = np.array([state.amplitudes for state in states])
        expect = [loop_dispersion_via_metric(H, state) for state in states]
        assert same_bits(dispersion_via_metric(H, amps), expect)
        assert [dispersion_via_metric(H, state) for state in states[:5]] == expect[:5]
    # the verify command's dispersion_identity check, against its per-state loop on the same states
    H = random_hermitian(rng, 4)
    path = tmp_path / "H.json"
    path.write_text(json.dumps({"dim": 4, "re": H.matrix.real.tolist(), "im": H.matrix.imag.tolist()}))
    out = tmp_path / "verify.json"
    assert main(["verify", "--input", str(path), "--seed", "5", "--output", str(out)]) == 0
    check = next(c for c in json.loads(out.read_text())["checks"] if c["check"] == "dispersion_identity")
    H = hermitian_from_json(str(path))
    states_rng = np.random.default_rng(5 + 1)
    raw = states_rng.normal(size=(50, 4)) + 1j * states_rng.normal(size=(50, 4))
    gap = 0.0
    for state in (StateVector(row, normalize=True) for row in raw):
        gap = max(gap, abs(loop_dispersion_via_metric(H, state) - dispersion_squared(H, state)))
    assert check["max_residual"] == gap


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_trajectory_deviations_equal_per_sample_loop_bit_for_bit(dim):
    rng = np.random.default_rng(75 + dim)
    H = random_hermitian(rng, dim)
    report = schrodinger_trajectory(H, random_state(rng, dim), T=1.0, steps=60)
    k, m = report.chart_index, min(len(report.flow), len(report.geodesic))
    expect = [
        loop_fubini_study_distance(
            StateVector(representative(k, report.flow.points[s]), normalize=True),
            StateVector(representative(k, report.geodesic.points[s]), normalize=True),
        )
        for s in range(m)
    ]
    assert same_bits(report.deviations, expect) and report.max_deviation == max(expect)
    u, v = random_state(rng, dim), random_state(rng, dim)
    assert fubini_study_distance(u, v) == loop_fubini_study_distance(u, v)
    assert fubini_study_distance(u, u) == loop_fubini_study_distance(u, u)
