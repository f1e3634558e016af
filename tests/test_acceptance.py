"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, not in the library.
"""

import time

import numpy as np

from helpers import random_hermitian, random_state
from qhydro import fluid, projective, riemann, spin
from qhydro.hilbert import HermitianOperator, StateVector, dispersion_squared
from qhydro.projective import chart_of, dispersion_via_metric
from qhydro.riemann import ScalarField, VectorField

H01 = HermitianOperator.diagonal([0.0, 1.0])
H123 = HermitianOperator.diagonal([1.0, 2.0, 3.0])


def report(criterion, description, detail, passed):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion:2d}] {status}: {description} ({detail})")
    assert passed, f"criterion {criterion}: {description} ({detail})"


def sweep_hamiltonians(seed=2024, count=10):
    """10 random nondegenerate Hamiltonians with n cycling through 1..4."""
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        dim = 2 + idx % 4
        out.append((random_hermitian(rng, dim, spectral_range=1.0), rng))
    return out, rng


def test_criterion_01_total_spin_circulation():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for two_s in range(1, 7):
        for _ in range(10):
            coeffs = rng.normal(size=two_s + 1) + 1j * rng.normal(size=two_s + 1)
            while abs(coeffs[-1]) < 0.1:
                coeffs[-1] = rng.normal() + 1j * rng.normal()
            chi = spin.SpinWaveFunction(two_s, coeffs)
            worst = max(worst, abs(spin.total_spin_circulation(chi) - two_s))
    elapsed = time.perf_counter() - start
    report(
        1,
        "total circulation equals 2s for full-degree wave functions",
        f"max |circ - 2s| = {worst:.2e} < 1e-8, runtime {elapsed:.2f}s < 1s",
        worst < 1e-8 and elapsed < 1.0,
    )


def test_criterion_02_partial_circulation():
    rng = np.random.default_rng(102)
    worst = 0.0
    cases = 0
    while cases < 20:
        n_roots = int(rng.integers(2, 5))
        pairs = [
            (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), int(rng.integers(1, 3)))
            for _ in range(n_roots)
        ]
        chi = spin.SpinWaveFunction.from_roots(pairs)
        center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        radius = float(rng.uniform(0.3, 2.5))
        ring = spin.CircleContour(center, radius, nodes=256)
        if min(abs(abs(a - center) - radius) for a, _ in pairs) < 0.25 * radius:
            continue
        expected = sum(mu for a, mu in pairs if abs(a - center) < radius)
        worst = max(worst, abs(spin.circulation(chi, ring) - expected))
        cases += 1
    report(
        2,
        "circulation counts enclosed multiplicities",
        f"max deviation {worst:.2e} < 1e-8 over 20 cases",
        worst < 1e-8,
    )


def _state_sweep(H, rng, count=100):
    for _ in range(count):
        k, xy = chart_of(random_state(rng, H.dim))
        manifold = projective.chart_manifold(H.dim, k)
        X = projective.fundamental_field(H, k)
        yield k, xy, manifold, X


def test_criterion_03_killing_residual():
    hams, _ = sweep_hamiltonians()
    start = time.perf_counter()
    worst = 0.0
    for H, rng in hams:
        for _, xy, manifold, X in _state_sweep(H, rng):
            residual = riemann.lie_derivative_metric(manifold, X, xy)
            worst = max(worst, float(np.abs(residual).max()))
    elapsed = time.perf_counter() - start
    report(
        3,
        "Schrodinger field is Killing for the state-space metric",
        f"max |L_X g| = {worst:.2e} < 1e-5 over 10 H x 100 points, runtime {elapsed:.1f}s < 30s",
        worst < 1e-5 and elapsed < 30.0,
    )


def test_criterion_04_stationary_euler_with_control():
    hams, _ = sweep_hamiltonians(seed=2025)
    worst = 0.0
    control_hits = 0
    total = 0
    for H, rng in hams:
        for k, xy, manifold, X in _state_sweep(H, rng):
            p = fluid.pressure_scalar_field(H, k)
            res = riemann.euler_residual(manifold, X, p, xy)
            worst = max(worst, riemann.covector_norm(manifold, res, xy))
            doubled = ScalarField(lambda y, p=p: 2.0 * p(y))
            wrong = riemann.euler_residual(manifold, X, doubled, xy)
            if riemann.covector_norm(manifold, wrong, xy) > 1e-3:
                control_hits += 1
            total += 1
    fraction = control_hits / total
    report(
        4,
        "stationary Euler equation with pressure = variance / 2",
        f"max residual {worst:.2e} < 1e-5; dropped factor 2 trips {100*fraction:.0f}% >= 90%",
        worst < 1e-5 and fraction >= 0.9,
    )


def test_criterion_05_dispersion_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for idx in range(500):
        dim = 2 + idx % 4
        H = random_hermitian(rng, dim, spectral_range=float(rng.uniform(0.5, 3.0)))
        v = random_state(rng, dim)
        worst = max(worst, abs(dispersion_via_metric(H, v) - dispersion_squared(H, v)))
    report(
        5,
        "metric length of the flow generator equals the algebraic variance",
        f"max gap {worst:.2e} < 1e-8 over 500 pairs",
        worst < 1e-8,
    )


def test_criterion_06_critical_set():
    points = fluid.critical_points(H123)
    pressures = sorted(cp.pressure for cp in points)
    exact = pressures == [0.0, 0.0, 0.0, 0.125, 0.125, 0.5]
    grads_ok = all(cp.gradient_norm < 1e-8 for cp in points)

    # dense search over the probability simplex (phases fixed at 0: pressure
    # and its gradient norm are exactly invariant under the torus of phases)
    targets = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5),
    ]
    step = 0.01
    extras = 0
    checked = 0
    for i in range(101):
        for j in range(101 - i):
            r1, r2 = i * step, j * step
            r0 = max(1.0 - r1 - r2, 0.0)
            state = StateVector(np.sqrt([r0, r1, r2]), normalize=True)
            k, xy = chart_of(state)
            manifold = projective.chart_manifold(3, k)
            p = fluid.pressure_scalar_field(H123, k)
            dp = riemann.differential(manifold, p, xy)
            norm = riemann.covector_norm(manifold, dp, xy)
            near = any(
                max(abs(r0 - c0), abs(r1 - c1), abs(r2 - c2)) <= 0.02
                for c0, c1, c2 in targets
            )
            if norm < 1e-6 and not near:
                extras += 1
            checked += 1
    report(
        6,
        "critical set is the eigenstates plus equal pair superpositions",
        f"pressures {pressures} exact: {exact}; gradients < 1e-8: {grads_ok}; "
        f"grid search ({checked} pts) extra orbits: {extras}",
        exact and grads_ok and extras == 0,
    )


def test_criterion_07_vorticity_profile():
    profile = fluid.vorticity_on_sphere(H01, 1, 0, grid=(64, 64))
    rel_ok = profile.max_rel_err < 1e-4
    equator = max(
        abs(fluid.scalar_vorticity(H01, 1, 0, np.pi / 2, phi)) for phi in (0.0, 1.0, 2.5)
    )
    pole_north = np.abs(profile.numeric[0] - 2.0 * profile.omega).max()
    pole_south = np.abs(profile.numeric[-1] + 2.0 * profile.omega).max()
    nodes = np.meshgrid(profile.thetas, profile.phis, indexing="ij")
    transport = np.max(fluid.vorticity_transport_residual(H01, 1, 0, *nodes))
    report(
        7,
        "sphere vorticity matches 2 omega cos(theta) with stationary transport",
        f"rel err {profile.max_rel_err:.2e} < 1e-4; equator {equator:.1e}, "
        f"poles {max(pole_north, pole_south):.1e} < 1e-6; transport {transport:.1e} < 1e-8",
        rel_ok
        and equator < 1e-6
        and pole_north < 1e-6
        and pole_south < 1e-6
        and transport < 1e-8,
    )


def test_criterion_08_geodesic_iff_critical():
    equal = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    on_equator = fluid.schrodinger_trajectory(H01, equal, T=1.0, steps=1000)
    tilted = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
    off_equator = fluid.schrodinger_trajectory(H01, tilted, T=1.0, steps=1000)
    report(
        8,
        "flow is geodesic exactly at pressure-critical starts",
        f"equator deviation {on_equator.max_deviation:.2e} < 1e-6; "
        f"generic deviation {off_equator.max_deviation:.2e} > 1e-3",
        on_equator.max_deviation < 1e-6 and off_equator.max_deviation > 1e-3,
    )


def test_criterion_09_clairaut():
    surf = riemann.surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    rng = np.random.default_rng(109)
    x0, u0 = np.empty((20, 2)), np.empty((20, 2))
    for m in range(20):
        x0[m] = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2 * np.pi)
        direction = rng.normal(size=2)
        u0[m] = direction / riemann.vector_norm(surf.manifold, direction, x0[m])
        u0[m] *= rng.uniform(0.5, 1.5)
    # the 20 geodesics as one stack: each row is the curve of its one-start call
    curves = riemann.geodesic_integrate(surf.manifold, x0, u0, 1.0, 1000)
    worst = 0.0
    for curve in curves:
        assert not curve.exited
        worst = max(worst, riemann.clairaut_check(surf.manifold, curve, surf.killing_field))
    report(
        9,
        "geodesics conserve the angular momentum of the rotation field",
        f"max drift {worst:.2e} < 1e-8 over 20 geodesics",
        worst < 1e-8,
    )


def test_criterion_10_velocity_form_identities():
    from test_riemann import random_polynomial_field, random_polynomial_metric

    rng = np.random.default_rng(110)
    worst_identity = 0.0
    for _ in range(3):
        manifold = random_polynomial_metric(rng)
        for _ in range(7):
            Y = random_polynomial_field(rng)
            x = rng.uniform(-1.0, 1.0, size=2)
            res = riemann.self_advection_identity_residual(manifold, Y, x)
            worst_identity = max(worst_identity, float(np.abs(res).max()))

    # Killing fields transport their own velocity form; the dilation does not
    plane = riemann.ChartManifold(2, lambda x: np.eye(2), name="plane")
    rotation = VectorField(lambda x: np.array([-x[1], x[0]]))
    surf = riemann.surface_of_revolution(lambda z: 2.0 + np.sin(z), np.cos)
    k, xy = chart_of(StateVector(np.array([1.0, 1.0j]) / np.sqrt(2.0)))
    cp1 = projective.chart_manifold(2, k)
    schro = projective.fundamental_field(H01, k)
    killing_worst = 0.0
    for manifold, X, x in [
        (plane, rotation, np.array([0.7, -0.2])),
        (surf.manifold, surf.killing_field, np.array([0.4, 1.1])),
        (cp1, schro, xy),
    ]:
        res = riemann.lie_derivative_oneform(manifold, X, riemann.flat_form(manifold, X), x)
        killing_worst = max(killing_worst, riemann.covector_norm(manifold, res, x))
    dilation = VectorField(lambda x: np.array([x[0], x[1]]))
    control = riemann.lie_derivative_oneform(
        plane, dilation, riemann.flat_form(plane, dilation), np.array([0.8, 0.5])
    )
    control_norm = float(np.abs(control).max())
    report(
        10,
        "self-advection identity and velocity-form transport",
        f"identity residual {worst_identity:.2e} < 1e-6; Killing transport "
        f"{killing_worst:.2e} < 1e-5; dilation control {control_norm:.2e} > 1e-2",
        worst_identity < 1e-6 and killing_worst < 1e-5 and control_norm > 1e-2,
    )


def test_criterion_11_zeno_law():
    equal = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    t = 0.1
    single = 1.0 - fluid.zeno_decay(H01, equal, t, 1)
    split = 1.0 - fluid.zeno_decay(H01, equal, t, 10)
    single_ok = abs(single - 2.5e-3) <= 0.01 * 2.5e-3
    split_ok = abs(split - 2.5e-4) <= 0.02 * 2.5e-4
    products = [(1.0 - fluid.zeno_decay(H01, equal, t, n)) * n for n in (1, 2, 5, 10, 50)]
    spread = (max(products) - min(products)) / min(products)
    report(
        11,
        "repeated measurement suppresses decay as variance * t^2 / N",
        f"single-shot deficit {single:.4e} ~ 2.5e-3 (1%); split {split:.4e} ~ 2.5e-4 (2%); "
        f"deficit*N spread {100*spread:.2f}% < 3%",
        single_ok and split_ok and spread < 0.03,
    )


def test_criterion_12_su2_representation():
    import math

    rng = np.random.default_rng(112)
    worst_hom = 0.0
    worst_unitary = 0.0
    pair_count = 0
    while pair_count < 100:
        two_s = 1 + pair_count % 6  # s <= 3
        g1, g2 = spin.SU2Element.random(rng), spin.SU2Element.random(rng)
        R1, R2 = spin.su2_matrix(g1, two_s), spin.su2_matrix(g2, two_s)
        R12 = spin.su2_matrix(g1 @ g2, two_s)
        worst_hom = max(worst_hom, float(np.abs(R12 - R1 @ R2).max()))
        weights = np.diag([1.0 / math.comb(two_s, k) for k in range(two_s + 1)])
        worst_unitary = max(worst_unitary, float(np.abs(R1.conj().T @ weights @ R1 - weights).max()))
        pair_count += 1
    spectrum_exact = True
    for two_s in range(1, 7):
        for k in range(two_s + 1):
            coeffs = np.zeros(two_s + 1)
            coeffs[k] = 1.0
            out = spin.sz_apply(spin.SpinWaveFunction(two_s, coeffs))
            spectrum_exact = spectrum_exact and out.coeffs[k] == (k - two_s / 2.0)
    report(
        12,
        "rotation action is a unitary representation with exact spin-z spectrum",
        f"homomorphism gap {worst_hom:.2e} < 1e-10; unitarity gap {worst_unitary:.2e} < 1e-10; "
        f"spectrum exact: {spectrum_exact}",
        worst_hom < 1e-10 and worst_unitary < 1e-10 and spectrum_exact,
    )
