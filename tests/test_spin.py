"""Polynomial spin wave functions: rotation action, velocity form, circulation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from helpers import spin_amplitudes, spin_matrices
from qhydro import spin
from qhydro.fluid import critical_points, pressure
from qhydro.hilbert import HermitianOperator, evolve
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


def test_circle_radius_must_be_finite_and_positive_and_nodes_an_integer_of_at_least_4():
    for radius in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"^radius must be finite and positive, got {re.escape(repr(radius))}$"):
            CircleContour(0.0, radius)
    # 256.5 nodes would give a circulation of 2.0038, and 4.5 nodes 2.216, for two enclosed simple roots
    for nodes in (256.5, 4.5, 256.0, "256"):
        with pytest.raises(ValueError, match=f"^nodes must be an integer, got {re.escape(repr(nodes))}$"):
            CircleContour(0.0, 1.0, nodes=nodes)
    for nodes in (3, 0, -4):
        with pytest.raises(ValueError, match=f"^nodes must be >= 4, got {nodes}$"):
            CircleContour(0.0, 1.0, nodes=nodes)
    chi = SpinWaveFunction.from_roots([(0.2, 1), (-0.3j, 1)])
    ring = CircleContour(0.0, 1.0, nodes=np.int64(64))  # numpy integers count
    assert type(ring.nodes) is int and circulation(chi, ring) == circulation(chi, CircleContour(0.0, 1.0, nodes=64))


def test_polygon_nodes_per_edge_must_be_an_integer_of_at_least_2():
    square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
    for nodes in (2.5, 32.0):
        with pytest.raises(ValueError, match=f"^nodes_per_edge must be an integer, got {re.escape(repr(nodes))}$"):
            PolygonContour(square, nodes_per_edge=nodes)
    for nodes in (1, 0, -2):
        with pytest.raises(ValueError, match=f"^nodes_per_edge must be >= 2, got {nodes}$"):
            PolygonContour(square, nodes_per_edge=nodes)
    chi = SpinWaveFunction.from_roots([(0.2, 1), (-0.3j, 1)])
    poly = PolygonContour(square, nodes_per_edge=np.int32(8))
    assert type(poly.nodes_per_edge) is int
    assert circulation(chi, poly) == circulation(chi, PolygonContour(square, nodes_per_edge=8))


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
        last = np.inf
        for _ in range(20):
            deriv = P.polyval(z, dchi)
            if deriv == 0:
                return z
            step = P.polyval(z, c) / deriv
            if abs(step) > 0.1 * (1.0 + abs(z)):
                return z
            if abs(step) >= last:
                return z
            z -= step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
            last = abs(step)
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


def _reference_log_derivative(chi, zeta):
    return P.polyval(zeta, P.polyder(chi.coeffs)) / P.polyval(zeta, chi.coeffs)


def _same_bits(x, y):
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("nodes", [4, 7, 64, 256])
@pytest.mark.parametrize("ccw", [True, False])
def test_circle_quadrature_equals_the_ring_formula_and_shares_a_read_only_ring(nodes, ccw):
    contour = CircleContour(0.3 - 0.2j, 1.7, nodes=nodes, ccw=ccw)
    sign = 1.0 if ccw else -1.0
    ring = np.exp(sign * 2j * np.pi * (np.arange(nodes) / nodes))
    points, tangents = contour.quadrature()
    assert points.tobytes() == (contour.center + contour.radius * ring).tobytes()
    assert tangents.tobytes() == (sign * 2j * np.pi * contour.radius * ring / nodes).tobytes()
    cached = spin._unit_ring(nodes, ccw)
    assert cached is spin._unit_ring(nodes, ccw) and cached.tobytes() == ring.tobytes()
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 0.0


def test_rarely_reached_inputs_equal_reference_bit_for_bit():
    # branches the seeded corpus never reaches: clockwise circles, a repeated
    # polygon vertex (a zero-length edge), NaN probes, scalar evaluation
    # points and the constant wave function of spin 0
    square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
    contours = [
        CircleContour(0.1 + 0.2j, 1.3, ccw=False),
        CircleContour(-0.4j, 0.9, nodes=37, ccw=False),
        PolygonContour(square[:2] + square[1:]),
        PolygonContour(square + (square[0],), nodes_per_edge=5),
    ]
    waves = [
        SpinWaveFunction(0, [2.0 - 1.0j]),
        SpinWaveFunction.from_roots([(0.2 + 0.1j, 2), (-0.7j, 1), (1.4, 1)]),
        SpinWaveFunction.from_roots([(-0.0, 1), (0.5 - 0.0j, 1)], two_s=3),
    ]
    probes = np.array([complex(np.nan, 0.0), complex(0.3, np.nan), -1.0 + 0.25j, 0j, complex(-0.0, -0.0)])
    points = np.array([0.37 - 0.91j, -1.2 + 0.4j, complex(0.0, -0.3), complex(-0.0, 0.5), 2.5])
    for chi in waves:
        entries = _reference_divisor(chi)
        assert chi.divisor().entries == entries
        for contour in contours:
            assert _outcome(lambda: circulation(chi, contour)) == _reference_circulation(chi, entries, contour)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the last wave function has degree 2 < 2s = 3
            assert _outcome(lambda: total_spin_circulation(chi)) == _reference_total(chi, entries)
        assert _same_bits(chi.log_derivative(points), _reference_log_derivative(chi, points))
        assert _same_bits(chi.log_derivative(points.tolist()), _reference_log_derivative(chi, points.tolist()))
        for zeta in points.tolist():
            q = _reference_log_derivative(chi, zeta)
            assert _same_bits(chi.log_derivative(zeta), q)
            assert _same_bits(madelung_velocity(chi, zeta), np.array([q.imag, q.real]))
    for contour in contours[2:]:
        # the per-edge loop: a NaN distance never wins the minimum
        expected = [_reference_distance(contour, z) for z in probes]
        assert contour.distances_to(probes).tolist() == expected
        assert expected[0] == expected[1] == np.inf
        assert contour.distances_to(probes[2]).tolist() == expected[2]
        assert contour.distances_to(probes.reshape(5, 1)).tolist() == [[d] for d in expected]
    assert contours[3].distances_to(np.array([], dtype=complex)).shape == (0,)
    assert math.isnan(contours[0].distances_to(probes)[0])


@pytest.mark.parametrize(
    "a, b",
    [(1e-30, 1.0), (1e-30j, -1.0j), (1.0, 1e-30), (-1.0, complex(-1e-30, 1e-31)), (0.0, 1j), (np.exp(0.35j), 0.0)],
)
def test_su2_matrix_equals_polymul_columns_when_powers_underflow(a, b):
    # a^k or b^k underflows to zero for large k, and P.polymul trims such a factor
    g = SU2Element.from_params(a, b)
    for two_s in (0, 1, 2, 7, 16):
        assert su2_matrix(g, two_s).tobytes() == _reference_su2_matrix(g, two_s).tobytes()


@st.composite
def _spin_cases(draw):
    """Roots of total multiplicity <= 16 (each <= 3), a unit phase, an SU(2) element and contours."""
    # coordinates on a 1e-3 grid: exact repeats happen, and no value is so
    # small that a power of it leaves double precision
    coord = st.integers(-1500, 1500).map(lambda k: k / 1000.0)
    point = st.builds(complex, coord, coord)
    roots, total = [], 0
    for a, mu in draw(st.lists(st.tuples(point, st.integers(1, 3)), min_size=1, max_size=16)):
        mu = min(mu, 16 - total)
        if mu:
            roots.append((a, mu))
            total += mu
    phase = draw(st.floats(0.0, 1.0))
    raw = draw(st.tuples(*[st.integers(-1000, 1000).map(lambda k: k / 1000.0)] * 4).filter(lambda r: math.hypot(*r) > 0.1))
    circles = st.builds(CircleContour, point, st.floats(0.3, 2.5), st.sampled_from([16, 64, 256]), st.booleans())
    polygons = st.builds(PolygonContour, st.lists(point, min_size=3, max_size=6).map(tuple), st.integers(2, 32))
    contours = draw(st.lists(st.one_of(circles, polygons), min_size=1, max_size=4))
    return roots, phase, raw, contours


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_spin_cases())
def test_divisor_circulation_and_total_equal_reference_on_random_inputs(case):
    roots, phase, raw, contours = case
    chi = SpinWaveFunction.from_roots(roots)
    chi = SpinWaveFunction(chi.two_s, chi.coeffs * np.exp(2j * np.pi * phase) / np.linalg.norm(chi.coeffs))
    norm = math.hypot(*raw)
    g = SU2Element.from_params(complex(raw[0], raw[1]) / norm, complex(raw[2], raw[3]) / norm)
    for psi in (chi, su2_act(g, chi)):
        expected = _reference_divisor(psi)
        found = _outcome(lambda: psi.divisor().entries)
        assert found == ((ClusterAmbiguityError, expected) if isinstance(expected, str) else expected)
        for contour in contours:
            assert _outcome(lambda: circulation(psi, contour)) == _reference_circulation(psi, expected, contour)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deficient degree after rounding
            assert _outcome(lambda: total_spin_circulation(psi)) == _reference_total(psi, expected)


def _capped_polish(z, c, dchi):
    """Newton's polish that runs to its 20-step cap, with no stop at round-off."""
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


@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-5])
def test_polish_that_stops_at_round_off_lands_a_double_root_closer(d):
    # a simple root at 1 + d and a double root at 0.2: past the step where round-off
    # sets Newton's correction, further steps walk the double root's points off 0.2
    chi = SpinWaveFunction.from_roots([(1.0 + d, 1), (0.2, 2)])
    entries = chi.divisor().entries
    assert [mu for _, mu in entries] == [2, 1]
    c = chi.coeffs
    capped = np.array([_capped_polish(z, c, P.polyder(c)) for z in np.roots(c[::-1])])
    double = capped[np.argsort(np.abs(capped - 0.2))[:2]]
    assert abs(entries[0][0] - 0.2) < abs(np.mean(double) - 0.2)
    assert abs(entries[0][0] - 0.2) < 5e-10


def test_derivative_coefficients_equal_polyder_bit_for_bit():
    rng = np.random.default_rng(72)
    signed = [0.0, -0.0, 1.5, -2.5]
    cases = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in range(1, 18) for _ in range(5)]
    # every sign pattern of +-0 and nonzero real and imaginary parts, two and three coefficients long
    parts = [complex(re, im) for re in signed for im in signed]
    cases += [np.array([a, b]) for a in parts for b in parts]
    cases += [np.array([a, b, e]) for a in parts[::3] for b in parts for e in parts[::5]]
    # coefficients whose derivative overflows
    cases += [np.array([1.0, 1e308, -1e308 + 1e308j, complex(-0.0, 1e308)]), np.full(17, complex(1e307, -1e307))]
    for coeffs in cases:
        chi = SpinWaveFunction(coeffs.size - 1, coeffs, allow_zero=True)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = P.polyder(chi.coeffs)
        assert chi._dcoeffs.tobytes() == expected.tobytes() and chi._dcoeffs.shape == expected.shape


def test_roots_are_one_read_only_array_per_wave_function():
    chi = SpinWaveFunction.from_roots([(0.3 + 0.2j, 1), (-0.8, 2)])
    locs = chi.roots()
    assert locs is chi.roots() and not locs.flags.writeable
    assert locs.tolist() == [a for a, mu in chi.divisor().entries for _ in range(mu)]
    constant = SpinWaveFunction(2, [1.0, 0.0, 0.0])
    assert constant.effective_degree == 0 and constant.roots().shape == (0,) and constant.roots().dtype == float


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


# ---------------------------------------------------------------------------
# Spin states are points of CP^{2s}: a spin polynomial's amplitudes
# a_k = c_k / sqrt(binom(2s, k)) are a state of dimension 2s + 1, on which
# the SU(2) action is the Schrodinger flow of a spin Hamiltonian


@pytest.mark.parametrize("two_s", range(1, 9))
def test_su2_action_is_the_schrodinger_flow_of_a_spin_hamiltonian(two_s):
    # exp(-i t n.sigma / 2) acts as evolution under H = -n_x J_x - n_y J_y + n_z J_z, up to a global phase
    rng = np.random.default_rng(900 + two_s)
    Jx, Jy, Jz = spin_matrices(two_s)
    sigma = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
    for _ in range(25):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = rng.uniform(-3.0, 3.0)
        g = SU2Element(np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * sum(c * m for c, m in zip(n, sigma)))
        chi = random_wavefunction(rng, two_s)
        H = HermitianOperator(-n[0] * Jx - n[1] * Jy + n[2] * Jz)
        evolved = evolve(H, spin_amplitudes(chi), t).amplitudes
        acted = spin_amplitudes(su2_act(g, chi)).amplitudes
        phase = np.vdot(acted, evolved)
        assert np.abs(evolved - phase / abs(phase) * acted).max() < 1e-12


@pytest.mark.parametrize("two_s", range(1, 9))
def test_coherent_state_pressure_under_jz_is_the_closed_form(two_s):
    # the 2s-fold vortex (zeta - a)^{2s} has pressure (s/4) sin^2(theta), sin^2(theta) = 4|a|^2 / (1 + |a|^2)^2
    rng = np.random.default_rng(920 + two_s)
    H = HermitianOperator(spin_matrices(two_s)[2])
    for a in rng.normal(size=(10, 2)) @ [1.0, 1j] * rng.lognormal(size=10):
        state = spin_amplitudes(SpinWaveFunction.from_roots([(a, two_s)]))
        sin2 = 4.0 * abs(a) ** 2 / (1.0 + abs(a) ** 2) ** 2
        assert abs(pressure(H, state) - two_s / 8.0 * sin2) < 1e-12


def assert_divisor(entries, expected, tol):
    """Divisor entries match the expected (location, multiplicity) pairs one to one, locations within tol (1 + |a|)."""
    left = list(entries)
    for a, mu in expected:
        match = min(left, key=lambda entry: abs(entry[0] - a))
        assert match[1] == mu and abs(match[0] - a) <= tol * (1.0 + abs(a)), (entries, expected)
        left.remove(match)
    assert not left, (entries, expected)


@pytest.mark.parametrize("two_s", range(1, 9))
def test_critical_points_of_jz_have_the_divisors_of_monomials_and_their_pairs(two_s):
    # eigenstate k is c_k zeta^k: a k-fold root at 0, and 2s - k at infinity (the degree drop); pair (i, j) is
    # zeta^j (c_j + c_i zeta^(i - j)): a j-fold root at 0 and the i - j simple roots of zeta^(i - j) = -c_j / c_i
    weights = np.sqrt([math.comb(two_s, k) for k in range(two_s + 1)])
    for cp in critical_points(HermitianOperator(spin_matrices(two_s)[2])):
        c = cp.state.amplitudes * weights
        i, j = cp.indices if cp.kind == "pair_superposition" else 2 * cp.indices  # eigenstate k: i = j = k
        w, m = -c[j] / c[i], i - j
        simple = [(abs(w) ** (1.0 / m) * np.exp(1j * (np.angle(w) + 2.0 * np.pi * n) / m), 1) for n in range(m)]
        expected = simple + ([(0j, j)] if j else [])
        assert_divisor(SpinWaveFunction(two_s, c).divisor().entries, expected, 1e-12)


@pytest.mark.parametrize(
    "two_s",
    [1, 2] + [pytest.param(n, marks=pytest.mark.xfail(strict=True, reason="multiple-root divisor, ROADMAP direction 1"))
              for n in range(3, 9)],
)
def test_rotated_coherent_states_have_the_mobius_image_of_their_root(two_s):
    # su2_act(g, (zeta - a)^(2s)) is the coherent state of the rotated point: one 2s-fold root at g^-1(a)
    rng = np.random.default_rng(940 + two_s)
    for _ in range(8):
        a, g = complex(*rng.normal(size=2)), SU2Element.random(rng)
        chi = su2_act(g, SpinWaveFunction.from_roots([(a, two_s)]))
        assert_divisor(chi.divisor().entries, [(g.inverse().mobius(a), two_s)], 1e-7)
