"""Polynomial spin wave functions: rotation action, velocity form, circulation."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from qhydro import spin
from qhydro.spin import (
    EXCLUSION_TOL,
    SZ_ACTION_SIGN,
    CircleContour,
    ClusterAmbiguityError,
    ContourTooCloseError,
    IntegralityRecord,
    NumericalBreakdownError,
    PolygonContour,
    SpinWaveFunction,
    SU2Element,
    bohr_sommerfeld_check,
    circulation,
    contour_from_json,
    madelung_velocity,
    su2_act,
    su2_matrix,
    sz_apply,
    total_spin_circulation,
    vorticity_divisor,
    wavefunction_from_json,
)


def random_wavefunction(rng, two_s):
    coeffs = rng.normal(size=two_s + 1) + 1j * rng.normal(size=two_s + 1)
    return SpinWaveFunction(two_s, coeffs)


# ---------------------------------------------------------------------------
# S_z and the rotation action


def test_sz_ground_monomial():
    chi = SpinWaveFunction(1, [1.0, 0.0])  # s = 1/2, chi_0
    out = sz_apply(chi)
    assert np.allclose(out.coeffs, -0.5 * chi.coeffs)


def test_sz_middle_monomial_annihilated():
    chi = SpinWaveFunction(2, [0.0, 1.0, 0.0])  # s = 1, chi_1
    assert np.abs(sz_apply(chi).coeffs).max() == 0.0


def test_sz_linearity_on_mixtures():
    chi = SpinWaveFunction(2, [1.0, 0.0, 1.0])  # 1 + zeta^2, s = 1
    out = sz_apply(chi)
    assert np.allclose(out.coeffs, [-1.0, 0.0, 1.0])


def test_sz_spectrum_is_exact():
    for two_s in (1, 2, 3, 6):
        s = two_s / 2.0
        for k in range(two_s + 1):
            coeffs = np.zeros(two_s + 1)
            coeffs[k] = 1.0
            out = sz_apply(SpinWaveFunction(two_s, coeffs))
            assert out.coeffs[k] == (k - s)  # exact half-integer arithmetic


def test_su2_identity_acts_trivially():
    rng = np.random.default_rng(61)
    chi = random_wavefunction(rng, 4)
    out = su2_act(SU2Element.identity(), chi)
    assert np.abs(out.coeffs - chi.coeffs).max() < 1e-15


def test_su2_diagonal_phases_and_sz_generator():
    # the diagonal subgroup acts on zeta^k by exp(SZ_ACTION_SIGN * i (k-s) alpha)
    two_s, alpha = 3, 0.37
    g = SU2Element.diagonal(alpha)
    R = su2_matrix(g, two_s)
    s = two_s / 2.0
    for k in range(two_s + 1):
        expected = np.exp(SZ_ACTION_SIGN * 1j * (k - s) * alpha)
        assert abs(R[k, k] - expected) < 1e-14
    # finite-difference generator at the identity matches i * sign * S_z
    rng = np.random.default_rng(62)
    chi = random_wavefunction(rng, two_s)
    eps = 1e-6
    plus = su2_act(SU2Element.diagonal(eps), chi).coeffs
    minus = su2_act(SU2Element.diagonal(-eps), chi).coeffs
    derivative = (plus - minus) / (2.0 * eps)
    expected = 1j * SZ_ACTION_SIGN * sz_apply(chi).coeffs
    assert np.abs(derivative - expected).max() < 1e-6


def test_su2_representation_property():
    rng = np.random.default_rng(63)
    for two_s in (1, 2, 3, 4, 5, 6):
        for _ in range(17):
            g1, g2 = SU2Element.random(rng), SU2Element.random(rng)
            left = su2_matrix(g1 @ g2, two_s)
            right = su2_matrix(g1, two_s) @ su2_matrix(g2, two_s)
            assert np.abs(left - right).max() < 1e-10


def test_su2_unitary_for_weighted_product():
    rng = np.random.default_rng(64)
    for two_s in (1, 3, 6):
        weights = np.diag([1.0 / math.comb(two_s, k) for k in range(two_s + 1)])
        for _ in range(10):
            R = su2_matrix(SU2Element.random(rng), two_s)
            assert np.abs(R.conj().T @ weights @ R - weights).max() < 1e-10
            chi = random_wavefunction(rng, two_s).normalized()
            assert abs(su2_act(SU2Element.random(rng), chi).weighted_norm() - 1.0) < 1e-10


def test_su2_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        SU2Element(np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Madelung-Bohm velocity


def test_velocity_of_single_vortex_is_angular_form():
    chi = SpinWaveFunction(1, [0.0, 1.0])  # chi = zeta
    for r, angle in [(1.0, 0.3), (2.5, -1.2), (0.5, 2.0)]:
        zeta = r * np.exp(1j * angle)
        x, y = zeta.real, zeta.imag
        out = madelung_velocity(chi, zeta)
        assert out == pytest.approx([-y / r**2, x / r**2], abs=1e-13)


def test_velocity_of_constant_vanishes():
    chi = SpinWaveFunction(0, [2.0 - 1.0j])
    assert madelung_velocity(chi, 0.7 + 0.1j) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_velocity_of_double_vortex():
    chi = SpinWaveFunction(2, [0.0, 0.0, 1.0])  # zeta^2
    assert madelung_velocity(chi, 1.0) == pytest.approx([0.0, 2.0], abs=1e-13)


def test_velocity_refuses_points_near_roots():
    chi = SpinWaveFunction(1, [-1.0, 1.0])  # root at 1
    with pytest.raises(ValueError, match="root"):
        madelung_velocity(chi, 1.0 + 1e-9)


def test_velocity_form_closed_and_divergence_free():
    # fourth-order stencils at points >= 0.25 away from every root
    chi = SpinWaveFunction.from_roots([(0.3 + 0.2j, 1), (-0.8, 1), (0.1 - 0.9j, 2)])
    h = 1e-3
    rng = np.random.default_rng(65)
    locs = chi.roots()
    checked = 0
    while checked < 12:
        zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if np.abs(locs - zeta).min() < 0.25:
            continue
        checked += 1

        def vel(dx, dy):
            return madelung_velocity(chi, zeta + dx + 1j * dy)

        def d4(fn):
            return (-fn(2 * h) + 8 * fn(h) - 8 * fn(-h) + fn(-2 * h)) / (12 * h)

        curl = d4(lambda t: vel(t, 0.0)[1]) - d4(lambda t: vel(0.0, t)[0])
        div = d4(lambda t: vel(t, 0.0)[0]) + d4(lambda t: vel(0.0, t)[1])
        assert abs(curl) < 1e-6
        assert abs(div) < 1e-6


# ---------------------------------------------------------------------------
# Circulation


def test_circulation_counts_all_cube_roots():
    chi = SpinWaveFunction(3, [-1.0, 0.0, 0.0, 1.0])  # zeta^3 - 1, s = 3/2
    value = circulation(chi, CircleContour(0.0, 2.0))
    assert value == pytest.approx(3.0, abs=1e-10)


def test_circulation_counts_enclosed_multiplicities():
    chi = SpinWaveFunction.from_roots([(1.0, 2), (-1.0, 1)])
    value = circulation(chi, CircleContour(1.0, 0.5))
    assert value == pytest.approx(2.0, abs=1e-10)


def test_circulation_of_constant_vanishes():
    chi = SpinWaveFunction(0, [3.0])
    assert circulation(chi, CircleContour(0.5, 2.0)) == pytest.approx(0.0, abs=1e-14)


def test_circulation_orientation_flag():
    chi = SpinWaveFunction(1, [0.0, 1.0])
    cw = CircleContour(0.0, 1.0, ccw=False)
    assert circulation(chi, cw) == pytest.approx(-1.0, abs=1e-10)


def test_circulation_rejects_contour_through_root():
    chi = SpinWaveFunction(1, [-1.0, 1.0])  # root at 1
    with pytest.raises(ContourTooCloseError):
        circulation(chi, CircleContour(0.0, 1.0))


def test_circulation_polygon_square():
    chi = SpinWaveFunction.from_roots([(0.1 + 0.1j, 1), (3.0, 1)])
    ccw_square = PolygonContour((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j))
    assert circulation(chi, ccw_square) == pytest.approx(1.0, abs=1e-10)
    cw_square = PolygonContour((1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j))
    assert circulation(chi, cw_square) == pytest.approx(-1.0, abs=1e-10)


def test_circulation_additivity():
    chi = SpinWaveFunction.from_roots([(1.0, 1), (-1.0, 2), (0.0, 1)])
    gamma1 = CircleContour(1.0, 0.4)
    gamma2 = CircleContour(-1.0, 0.4)
    union = CircleContour(0.0, 2.0)
    total = circulation(chi, union)
    # the union circle also encloses the origin root: subtract its count
    assert total - circulation(chi, CircleContour(0.0, 0.4)) == pytest.approx(
        circulation(chi, gamma1) + circulation(chi, gamma2), abs=1e-9
    )


def test_total_spin_circulation_examples():
    chi = SpinWaveFunction.from_roots([(2.0, 1), (-3.0j, 1)])  # s = 1
    assert total_spin_circulation(chi) == pytest.approx(2.0, abs=1e-10)
    chi4 = SpinWaveFunction(4, [0.0, 0.0, 0.0, 0.0, 1.0])  # zeta^4, s = 2
    assert total_spin_circulation(chi4) == pytest.approx(4.0, abs=1e-10)


def test_total_spin_circulation_warns_on_degree_deficit():
    chi = SpinWaveFunction(2, [0.0, 1.0, 0.0])  # degree 1 < 2s = 2
    with pytest.warns(UserWarning, match="infinity"):
        value = total_spin_circulation(chi)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_quadrature_is_spectrally_convergent():
    # root at 0.65 inside the unit circle: slow-ish decay, visible convergence
    chi = SpinWaveFunction.from_roots([(0.65, 1), (0.3j, 1)])
    ring = lambda m: CircleContour(0.0, 1.0, nodes=m)
    prev = abs(circulation(chi, ring(16)) - 2.0)
    for m in (32, 64, 128):
        cur = abs(circulation(chi, ring(m)) - 2.0)
        if prev <= 1e-12:
            break
        assert cur <= prev / 10.0 or cur < 1e-12
        prev = cur
    assert abs(circulation(chi, ring(256)) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# Rotation covariance of the circulation


def test_circulation_invariant_under_rotations():
    rng = np.random.default_rng(66)
    done = 0
    while done < 10:
        chi = random_wavefunction(rng, 4)
        locs = chi.roots()
        center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        radius = rng.uniform(0.5, 2.0)
        ring = CircleContour(center, radius)
        if ring.distances_to(locs).min() < 0.05:
            continue
        g = SU2Element.random(rng)
        moved = su2_act(g, chi)
        # transport the contour through the root-location map of the action
        pull = g.inverse()
        if abs(pull.b) > 1e-12:
            pole = np.conj(pull.a) / pull.b
            if abs(pole - center) < radius + 0.3:
                continue  # disk would map to an exterior region, not a disk
        nodes, _ = ring.quadrature()
        image = [pull.mobius(z) for z in nodes]
        transported = PolygonContour(tuple(image), nodes_per_edge=4)
        if moved.roots().size and transported.distances_to(moved.roots()).min() < 0.05:
            continue
        before = circulation(chi, ring)
        after = circulation(moved, transported)
        assert abs(after - before) < 1e-6
        done += 1


# ---------------------------------------------------------------------------
# Vorticity divisor


def test_divisor_recovers_multiplicities():
    chi = SpinWaveFunction.from_roots([(1.0, 2), (-1.0, 1)])
    entries = vorticity_divisor(chi).entries
    assert len(entries) == 2
    by_mult = {mu: a for a, mu in entries}
    assert abs(by_mult[2] - 1.0) < 1e-7
    assert abs(by_mult[1] + 1.0) < 1e-10


def test_divisor_of_pure_power():
    for two_s in (2, 4, 6):
        coeffs = np.zeros(two_s + 1)
        coeffs[-1] = 1.0
        entries = vorticity_divisor(SpinWaveFunction(two_s, coeffs)).entries
        assert len(entries) == 1
        a, mu = entries[0]
        assert mu == two_s and abs(a) < 1e-8


def test_divisor_of_quadratic_with_imaginary_roots():
    chi = SpinWaveFunction(2, [1.0, 0.0, 1.0])  # zeta^2 + 1
    entries = vorticity_divisor(chi).entries
    locs = sorted((round(a.real, 9), round(a.imag, 9)) for a, _ in entries)
    assert locs == [(0.0, -1.0), (0.0, 1.0)]
    assert all(mu == 1 for _, mu in entries)


def test_divisor_total_matches_effective_degree():
    rng = np.random.default_rng(67)
    for two_s in (1, 3, 5):
        chi = random_wavefunction(rng, two_s)
        assert vorticity_divisor(chi).total == chi.effective_degree


def test_divisor_ambiguity_error_on_borderline_cluster():
    # two roots separated by about the clustering radius
    gap = 2e-6
    chi = SpinWaveFunction.from_roots([(0.0, 1), (gap, 1)])
    with pytest.raises(ClusterAmbiguityError):
        vorticity_divisor(chi)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "coeffs, stage",
    [
        ([1.0, 0.0, 1e308], "derivative coefficients"),  # 2 * 1e308 overflows in the derivative
        ([8.4e307 - 1.1e308j, -4.9e302 + 2.3e302j, -1.1e297 - 1.2e297j], "companion matrix"),
        ([4e300 + 5.5e300j, -1.2e308 - 7.6e307j, -6.9e306 - 1.95e307j], "Newton polish"),
    ],
)
def test_divisor_breakdown_on_finite_input_is_named_and_silent(coeffs, stage):
    chi = SpinWaveFunction(2, coeffs)
    with pytest.raises(NumericalBreakdownError, match=stage) as info:
        vorticity_divisor(chi)
    assert not isinstance(info.value, ValueError)  # well-formed input: not a bad-input error
    with pytest.raises(NumericalBreakdownError):
        total_spin_circulation(chi)


# The divisor of each is fine; chi'/chi overflows on the contour, to nan and to inf
NON_FINITE_CIRCULATION = [[4e304, 6e301, -1e306, 5e302], [-1e300, 7e303, -4e303, 5e307]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", NON_FINITE_CIRCULATION)
def test_non_finite_circulation_is_a_named_breakdown(coeffs):
    chi = SpinWaveFunction(3, coeffs)
    assert vorticity_divisor(chi).total == 3
    with pytest.raises(NumericalBreakdownError, match="circulation integral is (nan|inf)") as info:
        total_spin_circulation(chi)
    assert not isinstance(info.value, ValueError)
    ring = CircleContour(0.0, 2.0 * float(np.abs(chi.roots()).max()) + 1.0)
    with pytest.raises(NumericalBreakdownError):
        circulation(chi, ring)


# ---------------------------------------------------------------------------
# Quantization checks


def test_integrality_for_random_contours():
    rng = np.random.default_rng(68)
    chi = random_wavefunction(rng, 4)  # s = 2
    locs = chi.roots()
    contours = []
    while len(contours) < 20:
        ring = CircleContour(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.2, 3.0)
        )
        if ring.distances_to(locs).min() > 0.2 * ring.radius:
            contours.append(ring)
    records = bohr_sommerfeld_check(chi, contours)
    assert all(isinstance(r, IntegralityRecord) for r in records)
    assert all(r.ok for r in records)
    assert all(r.deviation < 1e-8 for r in records)


def test_empty_contour_has_zero_circulation():
    chi = SpinWaveFunction.from_roots([(5.0, 1)])
    (record,) = bohr_sommerfeld_check(chi, [CircleContour(0.0, 1.0)])
    assert record.nearest == 0 and record.ok


def test_two_loops_add_like_a_figure_eight():
    chi = SpinWaveFunction.from_roots([(1.5, 1), (-1.5, 2)])
    left = circulation(chi, CircleContour(-1.5, 0.7))
    right = circulation(chi, CircleContour(1.5, 0.7))
    assert left + right == pytest.approx(3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Wave function plumbing


def test_weighted_norm_convention():
    # normalized basis element sqrt(C(2s, k)) zeta^k has unit weighted norm
    two_s, k = 4, 1
    coeffs = np.zeros(two_s + 1)
    coeffs[k] = np.sqrt(math.comb(two_s, k))
    chi = SpinWaveFunction(two_s, coeffs)
    assert chi.is_normalized


def test_rejects_zero_polynomial():
    with pytest.raises(ValueError, match="identically zero"):
        SpinWaveFunction(2, [0.0, 0.0, 0.0])


def test_wavefunction_json_coefficient_form():
    chi = wavefunction_from_json(
        {"two_s": 3, "coeffs_re": [-1.0, 0.0, 0.0, 1.0], "coeffs_im": [0.0, 0.0, 0.0, 0.0]}
    )
    assert chi.two_s == 3
    assert np.allclose(chi.coeffs, [-1.0, 0.0, 0.0, 1.0])


def test_wavefunction_json_factored_form():
    chi = wavefunction_from_json({"roots": [[1.0, 0.0, 2], [-1.0, 0.0, 1]]})
    assert chi.two_s == 3
    assert np.allclose(chi.coeffs, [1.0, -1.0, -1.0, 1.0])  # (z-1)^2 (z+1)


def test_wavefunction_json_reports_offending_entry():
    with pytest.raises(ValueError, match="coeffs_re\\[1\\]"):
        wavefunction_from_json({"two_s": 1, "coeffs_re": [0.0, "bad"]})
    with pytest.raises(ValueError, match="roots\\[0\\]\\[2\\]"):
        wavefunction_from_json({"roots": [[0.0, 0.0, 0.5]]})


def test_contour_json_forms():
    ring = contour_from_json({"circle": {"center": [0.0, 1.0], "radius": 2.0, "nodes": 64}})
    assert isinstance(ring, CircleContour)
    assert ring.center == 1.0j and ring.nodes == 64
    poly = contour_from_json(
        {"polygon": {"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "nodes_per_edge": 8}}
    )
    assert isinstance(poly, PolygonContour)
    with pytest.raises(ValueError, match="radius"):
        contour_from_json({"circle": {"center": [0, 0], "radius": -1.0}})
    with pytest.raises(ValueError, match="circle.*polygon|polygon.*circle"):
        contour_from_json({"square": {}})


# ---------------------------------------------------------------------------
# Reference equality: the divisor and circulation path against a copy of the
# plain algorithm (scalar polyval Newton, O(n^2) union-find clustering,
# per-root distance minimum), bit for bit


def _reference_cluster(points, radius):
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _reference_divisor(chi):
    """Divisor entries, or the ClusterAmbiguityError message as a string."""
    deg = chi.effective_degree
    if deg == 0:
        return ()
    c = chi.coeffs[: deg + 1]
    dchi = P.polyder(c)

    def polish(z):
        for _ in range(20):
            deriv = P.polyval(z, dchi)
            if deriv == 0:
                return z
            step = P.polyval(z, c) / deriv
            if abs(step) > 0.1 * (1.0 + abs(z)):
                return z
            z -= step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
        return z

    refined = np.array([polish(z) for z in np.roots(c[::-1])])
    radius = 1e-6 * (1.0 + float(np.abs(refined).max()))
    clusters = _reference_cluster(list(refined), radius)
    for factor in (0.25, 4.0):
        if len(_reference_cluster(list(refined), radius * factor)) != len(clusters):
            return (
                f"root clusters unstable near radius {radius!r}; "
                "multiplicities cannot be assigned reliably"
            )
    entries = [(complex(np.mean(refined[group])), len(group)) for group in clusters]
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return tuple(entries)


def _reference_distance(contour, z):
    z = complex(z)
    if isinstance(contour, CircleContour):
        return abs(abs(z - contour.center) - contour.radius)
    best = np.inf
    verts = contour.vertices
    for idx in range(len(verts)):
        a, b = verts[idx], verts[(idx + 1) % len(verts)]
        edge = b - a
        length2 = abs(edge) ** 2
        frac = 0.0 if length2 == 0 else np.clip(((z - a) * np.conj(edge)).real / length2, 0.0, 1.0)
        best = min(best, abs(z - (a + frac * edge)))
    return float(best)


def _reference_circulation(chi, entries, contour):
    """Circulation value, or the exception type and message it raises."""
    if isinstance(entries, str):
        return ClusterAmbiguityError, entries
    locs = [a for a, mu in entries for _ in range(mu)]
    if locs:
        nearest = min(_reference_distance(contour, a) for a in locs)
        if nearest <= EXCLUSION_TOL:
            return ContourTooCloseError, f"contour passes within {nearest!r} of a root (need > {EXCLUSION_TOL})"
    if isinstance(contour, CircleContour):
        points, tangents = contour.quadrature()
    else:
        t, w = np.polynomial.legendre.leggauss(contour.nodes_per_edge)
        verts = contour.vertices
        ends = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
        points = np.concatenate([(a + b) / 2.0 + t * ((b - a) / 2.0) for a, b in ends])
        tangents = np.concatenate([w * ((b - a) / 2.0) for a, b in ends])
    q = P.polyval(points, P.polyder(chi.coeffs)) / P.polyval(points, chi.coeffs)
    return float(np.sum(q * tangents).imag / (2.0 * np.pi))


def _reference_total(chi, entries):
    if isinstance(entries, str):
        return ClusterAmbiguityError, entries
    locs = np.array([a for a, mu in entries for _ in range(mu)])
    maxmod = float(np.abs(locs).max()) if locs.size else 0.0
    return _reference_circulation(chi, entries, CircleContour(0.0, 2.0 * maxmod + 1.0, nodes=256))


def _outcome(fn):
    try:
        return fn()
    except (ClusterAmbiguityError, ContourTooCloseError) as exc:
        return type(exc), str(exc)


def _reference_su2_matrix(g, two_s):
    a, b = g.a, g.b
    out = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    for k in range(two_s + 1):
        col = P.polymul(P.polypow([np.conj(a), -b], two_s - k), P.polypow([np.conj(b), a], k))
        out[: col.size, k] = col
    return out


def _seeded_corpus(rng):
    """Simple, double, triple and rotated-coherent states, with contours, for 2s up to 16."""
    def point(half):
        return complex(rng.uniform(-half, half), rng.uniform(-half, half))

    for _ in range(2):
        for two_s in (1, 2, 3, 4, 6, 8, 12, 16):
            for cap in (1, 2, 3, None):  # None: one 2s-fold root, a rotated coherent state
                roots, left = [], two_s
                while left:
                    mu = left if cap is None else int(rng.integers(1, min(cap, left) + 1))
                    roots.append((point(1.5), mu))
                    left -= mu
                chi = SpinWaveFunction.from_roots(roots)
                chi = SpinWaveFunction(two_s, chi.coeffs * np.exp(2j * np.pi * rng.uniform()) / np.linalg.norm(chi.coeffs))
                contours = [CircleContour(point(2.0), float(rng.uniform(0.3, 2.5))) for _ in range(3)]
                for _ in range(2):
                    k = int(rng.integers(3, 7))
                    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, size=k)) / k
                    contours.append(PolygonContour(tuple(point(2.0) + rng.uniform(0.3, 2.5, size=k) * np.exp(1j * angles))))
                yield chi, SU2Element.random(rng), contours


def test_divisor_and_circulations_equal_reference_bit_for_bit():
    rng = np.random.default_rng(71)
    ambiguous = multiple = 0
    for chi, g, contours in _seeded_corpus(rng):
        matrix = su2_matrix(g, chi.two_s)
        assert np.array_equal(matrix, _reference_su2_matrix(g, chi.two_s))
        for psi in (chi, su2_act(g, chi)):
            expected = _reference_divisor(psi)
            found = _outcome(lambda: psi.divisor().entries)
            if isinstance(expected, str):
                ambiguous += 1
                assert found == (ClusterAmbiguityError, expected)
            else:
                multiple += any(mu > 1 for _, mu in expected)
                assert found == expected
            for contour in contours:
                assert _outcome(lambda: circulation(psi, contour)) == _reference_circulation(psi, expected, contour)
                probes = np.array([a for a, _ in expected]) if not isinstance(expected, str) else np.array([0j])
                assert contour.distances_to(probes).tolist() == [_reference_distance(contour, z) for z in probes]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # deficient degree after rounding
                assert _outcome(lambda: total_spin_circulation(psi)) == _reference_total(psi, expected)
    # the corpus reaches both the ambiguity refusal and multiple roots
    assert ambiguous > 0 and multiple > 0


def test_cluster_ambiguity_is_computed_once_and_raised_every_time(monkeypatch):
    calls = []
    original = spin.vorticity_divisor

    def counting(chi):
        calls.append(chi)
        return original(chi)

    monkeypatch.setattr(spin, "vorticity_divisor", counting)
    chi = SpinWaveFunction.from_roots([(0.0, 1), (2e-6, 1)])
    message = _reference_divisor(chi)
    assert isinstance(message, str)
    square = PolygonContour((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j))
    for call in (
        chi.divisor,
        chi.roots,
        lambda: circulation(chi, CircleContour(0.0, 1.0)),
        lambda: circulation(chi, square),
        lambda: total_spin_circulation(chi),
        chi.divisor,
    ):
        with pytest.raises(ClusterAmbiguityError) as info:
            call()
        assert str(info.value) == message
    assert len(calls) == 1


@pytest.mark.parametrize(
    "contour, roots",
    [
        (CircleContour(0.0, 1.0), [-1.0 - 6e-7, (1.0 + 2e-7) * 1j, 0.3, 1.0 + 4e-7]),
        (PolygonContour((1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)), [-1.0 - 5e-7 + 0.2j, 0.1 + (1.0 - 3e-7) * 1j, 0.2, 1.0 + 4e-7 - 0.5j]),
    ],
    ids=["circle", "polygon"],
)
def test_contour_too_close_reports_the_per_root_minimum(contour, roots):
    # three roots within EXCLUSION_TOL of the contour; the nearest is not the first entry
    chi = SpinWaveFunction.from_roots([(a, 1) for a in roots])
    entries = _reference_divisor(chi)
    assert chi.divisor().entries == entries
    kind, message = _reference_circulation(chi, entries, contour)
    assert kind is ContourTooCloseError
    with pytest.raises(ContourTooCloseError) as info:
        circulation(chi, contour)
    assert str(info.value) == message
    for a, _ in entries:
        assert float(contour.distances_to(np.array([a]))[0]) == _reference_distance(contour, a)


@pytest.mark.parametrize(
    "loader, data, needle",
    [
        (contour_from_json, {"circle": {"radius": float("nan")}}, "'circle.radius' is not finite"),
        (contour_from_json, {"circle": {"radius": float("-inf")}}, "'circle.radius' is not finite"),
        (contour_from_json, {"circle": {"center": [0.0, float("inf")], "radius": 1.0}}, "'circle.center[1]' is not finite"),
        (contour_from_json, {"circle": {"radius": 1.0, "nodes": 3}}, "'circle.nodes' must be an integer in [4, "),
        (contour_from_json, {"polygon": {"vertices": [[0, 0], [1, 0], [0, float("nan")]]}}, "'polygon.vertices[2][1]' is not finite"),
        (contour_from_json, {"polygon": {"vertices": [[0, 0], [1, 0], [0, 1]], "nodes_per_edge": 2.5}}, "'polygon.nodes_per_edge'"),
        (wavefunction_from_json, {"roots": [[1, 0, 1]], "two_s": "x"}, "'two_s' must be an integer"),
        (wavefunction_from_json, {"roots": [[1, 0, True]]}, "'roots[0][2]' is not a number: True"),
        (wavefunction_from_json, {"roots": [[1, 0, 2]], "two_s": 1}, "total multiplicity 2 exceeds 2s = 1"),
        (wavefunction_from_json, {"two_s": 1, "coeffs_re": [1.0, float("nan")]}, "'coeffs_re[1]' is not finite: nan"),
        (wavefunction_from_json, {"two_s": 1.5, "coeffs_re": [1.0, 0.0]}, "'two_s' must be an integer"),
    ],
)
def test_json_loaders_reject_nonfinite_and_nonintegral_values_by_key(loader, data, needle):
    with pytest.raises(ValueError) as info:
        loader(data)
    assert needle in str(info.value)


def test_json_whole_floats_count_as_integers():
    # a JSON writer may emit 2.0 for 2; the factored form always took it as a multiplicity
    assert np.array_equal(
        wavefunction_from_json({"roots": [[1.0, 0.0, 2.0]], "two_s": 3.0}).coeffs,
        wavefunction_from_json({"roots": [[1.0, 0.0, 2]], "two_s": 3}).coeffs,
    )
    assert contour_from_json({"circle": {"radius": 1.0, "nodes": 64.0}}).nodes == 64
