"""Polynomial spin wave functions: rotation action, velocity form, circulation."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from helpers import contour_distance, contour_gap, spin_amplitudes, spin_matrices, winding_about
from qhydro import spin
from qhydro.fluid import critical_points, pressure
from qhydro.hilbert import HermitianOperator, evolve
from qhydro.spin import (
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
    # the zero polynomial (S_z of its middle monomial) vanishes on every contour: a root everywhere
    zero = sz_apply(SpinWaveFunction(2, [0.0, 1.0, 0.0]))
    with pytest.raises(ContourTooCloseError, match=r"\|chi\| = 0.0 <= 0.0"):
        circulation(zero, CircleContour(0.5, 2.0))
    with pytest.warns(UserWarning, match="infinity"), pytest.raises(ContourTooCloseError):
        total_spin_circulation(zero)


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


def test_circulation_is_the_winding_from_any_starting_sample_count():
    # a quadrature of chi'/chi needed many nodes near the root at 0.95; the winding bisects where it must
    chi = SpinWaveFunction.from_roots([(0.95, 1), (0.3j, 2), (-1.05, 1)])
    for nodes in (4, 5, 16, 64, 256):
        assert abs(circulation(chi, CircleContour(0.0, 1.0, nodes=nodes)) - 3.0) < 1e-12
    for nodes in (2, 3, 32):
        assert abs(circulation(chi, PolygonContour((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j), nodes)) - 3.0) < 1e-12


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
        if min(contour_distance(ring, a) for a in locs) < 0.05:
            continue
        g = SU2Element.random(rng)
        moved = su2_act(g, chi)
        # transport the contour through the root-location map of the action
        pull = g.inverse()
        if abs(pull.b) > 1e-12:
            pole = np.conj(pull.a) / pull.b
            if abs(pole - center) < radius + 0.3:
                continue  # disk would map to an exterior region, not a disk
        image = [pull.mobius(z) for z in ring._samples()]
        transported = PolygonContour(tuple(image), nodes_per_edge=4)
        if any(contour_distance(transported, a) < 0.05 for a in moved.roots()):
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
    # the total needs no divisor, and its rescaled ring cannot overflow
    assert abs(total_spin_circulation(chi) - 2.0) <= 1e-12


# The divisor of each is fine; the parent's total overflowed on its ring |zeta| = 2 max |root| + 1
NON_FINITE_CIRCULATION = [[4e304, 6e301, -1e306, 5e302], [-1e300, 7e303, -4e303, 5e307]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs, ring_value", zip(NON_FINITE_CIRCULATION, [None, 3.0]), ids=["coeffs0", "coeffs1"])
def test_non_finite_circulation_is_a_named_breakdown(coeffs, ring_value):
    chi = SpinWaveFunction(3, coeffs)
    assert vorticity_divisor(chi).total == 3
    # the total winds chi rescaled to the unit circle, which cannot overflow
    assert abs(total_spin_circulation(chi) - 3.0) <= 1e-12
    # on the ring |zeta| = 2 max |root| + 1, chi overflows for the first and stays finite for the second
    ring = CircleContour(0.0, 2.0 * float(np.abs(chi.roots()).max()) + 1.0)
    if ring_value is None:
        message = r"^chi is \(-?inf\+nanj\) at zeta = .*: it or its Taylor coefficients overflow double precision on the contour$"
        with pytest.raises(NumericalBreakdownError, match=message) as info:
            circulation(chi, ring)
        assert not isinstance(info.value, ValueError)
    else:
        assert abs(circulation(chi, ring) - ring_value) <= 1e-12


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
        if min(contour_gap(ring, a) for a in locs) > 0.2:
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
# Reference equality: the divisor against a copy of the plain algorithm
# (scalar polyval Newton, O(n^2) union-find clustering), bit for bit; the
# circulations against the roots the wave functions were built from


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


def _outcome(fn):
    try:
        return fn()
    except (ClusterAmbiguityError, ContourTooCloseError) as exc:
        return type(exc), str(exc)


def _image_roots(roots, g):
    """The finite roots of su2_act(g, chi) for the roots of chi: their images under g^-1."""
    pull = g.inverse()
    with np.errstate(divide="ignore", invalid="ignore"):
        images = [(complex(pull.mobius(a)), mu) for a, mu in roots]
    return [(w, mu) for w, mu in images if cmath.isfinite(w)]


def assert_counts_known_roots(psi, contour, roots):
    """circulation(psi, contour) against the roots psi was built from.

    It is their enclosed multiplicity within 1e-12 wherever every root lies
    more than 1e-9 of the contour's scale from it, and an integer within
    1e-12 nearer; it may refuse with ContourTooCloseError only where a root
    lies within 0.25 of the scale.
    """
    gap = min((contour_gap(contour, a) for a, _ in roots), default=math.inf)
    try:
        value = circulation(psi, contour)
    except ContourTooCloseError:
        assert gap < 0.25
        return
    if gap > 1e-9:
        assert abs(value - sum(mu * winding_about(contour, a) for a, mu in roots)) <= 1e-12
    else:
        assert abs(value - round(value)) <= 1e-12


def assert_total_is_the_degree(psi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deficient degree after rounding
        assert abs(total_spin_circulation(psi) - psi.effective_degree) <= 1e-12


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
                yield chi, roots, SU2Element.random(rng), contours


def test_divisor_equals_reference_bit_for_bit_and_circulations_count_the_known_roots():
    rng = np.random.default_rng(71)
    ambiguous = multiple = 0
    for chi, roots, g, contours in _seeded_corpus(rng):
        matrix = su2_matrix(g, chi.two_s)
        assert np.array_equal(matrix, _reference_su2_matrix(g, chi.two_s))
        assert chi.effective_degree == chi.two_s
        for psi, known in ((chi, roots), (su2_act(g, chi), _image_roots(roots, g))):
            expected = _reference_divisor(psi)
            found = _outcome(lambda: psi.divisor().entries)
            if isinstance(expected, str):
                ambiguous += 1
                assert found == (ClusterAmbiguityError, expected)
            else:
                multiple += any(mu > 1 for _, mu in expected)
                assert found == expected
            for contour in contours:
                assert_counts_known_roots(psi, contour, known)
            assert_total_is_the_degree(psi)
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
    for call in (chi.divisor, chi.roots, chi.divisor):
        with pytest.raises(ClusterAmbiguityError) as info:
            call()
        assert str(info.value) == message
    assert len(calls) == 1
    # the circulations wind chi's phase: the two roots are counted, and the divisor is not asked
    square = PolygonContour((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j))
    for value in (circulation(chi, CircleContour(0.0, 1.0)), circulation(chi, square), total_spin_circulation(chi)):
        assert abs(value - 2.0) <= 1e-12
    assert len(calls) == 1


def test_a_root_between_two_samples_is_found_by_cutting_the_arc():
    # a root in the circular segment between two samples turns the phase by more than pi across their
    # arc, and a double root by a polygon edge by nearly 2 pi, leaving a small increment: both arcs are cut
    r = 1.0 - (1.0 - math.cos(math.pi / 64)) / 2.0
    chi = SpinWaveFunction.from_roots([(r * cmath.exp(1j * math.pi / 64), 1)])
    assert abs(circulation(chi, CircleContour(0.0, 1.0, nodes=64)) - 1.0) <= 1e-12
    square, h = PolygonContour((1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)), 2.0 / 32
    for side, count in ((-1, 3), (1, 1)):
        chi = SpinWaveFunction.from_roots([(1.0 + side * 0.05 * h + 0.5j * h, 2), (0.3j, 1)])
        assert abs(circulation(chi, square) - count) <= 1e-12


@pytest.mark.parametrize("side, count", [(1, 6), (-1, 4)], ids=["inside", "outside"])
@pytest.mark.parametrize("depth", [0.1, 0.03, 0.01])
def test_roots_that_cancel_chi_prime_over_chi_at_an_arcs_ends_cannot_hide_a_root_by_it(side, count, depth):
    # double roots: A a small depth (in sample spacings h) off the middle of the arc between samples 15 and 16
    # of the bottom edge, B and C half a spacing beyond its ends; at both ends their terms of chi'/chi nearly
    # cancel, and A turns the phase by nearly 2 pi across the arc, which a rule on the increment and on
    # |chi'/chi| at the ends accepted, counting A once
    square, h = PolygonContour((-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)), 2.0 / 32
    z0 = -1 + 15 * h - 1j
    roots = [(z0 + h / 2 + side * 1j * depth * h, 2), (z0 - h / 2 + 0.05j * h, 2), (z0 + 1.5 * h + 0.05j * h, 2)]
    assert abs(circulation(SpinWaveFunction.from_roots(roots), square) - count) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 0.25, 0.0625], ids=["starting-arc", "cut-once", "cut-twice"])
def test_an_arc_needs_the_certificate_of_both_its_ends(scale):
    # A sits by the far end of an arc of the bottom edge from sample 15, outside the near end's half; with B
    # above, the phase turns by more than pi across the arc, and the near end alone would pass it. Scaled by
    # 1 / 4 and 1 / 16, the arc is one that cutting makes
    square, h = PolygonContour((-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)), 2.0 / 32
    z0 = -1 + 15 * h - 1j
    chi = SpinWaveFunction.from_roots([(z0 + scale * (0.95 + 0.005j) * h, 1), (z0 + scale * (0.5 + 3j) * h, 1)])
    assert abs(circulation(chi, square) - 2.0) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_the_total_of_a_high_degree_or_widely_spread_wave_function_is_its_degree():
    # the ring at twice Cauchy's bound is wide, and chi^n on it overflowed: the winding of chi rescaled to the
    # unit circle cannot
    rng = np.random.default_rng(5)
    chi = SpinWaveFunction(400, rng.normal(size=401) + 1j * rng.normal(size=401))
    assert abs(total_spin_circulation(chi) - 400.0) <= 1e-12
    # (zeta - 1e6)(zeta^54 - 1): the ring has radius about 2e6, whose 55th power overflows
    spread = SpinWaveFunction(55, np.concatenate(([1e6, -1.0], np.zeros(52), [-1e6, 1.0])))
    assert spread.effective_degree == 55 and abs(total_spin_circulation(spread) - 55.0) <= 1e-12
    # (zeta - 2)^40: its coefficients below 1e-12 of the largest leave the effective degree 35
    power = SpinWaveFunction.from_roots([(2.0, 40)])
    with pytest.warns(UserWarning, match="degree 35 < 2s = 40"):
        assert abs(total_spin_circulation(power) - 35.0) <= 1e-12


def test_a_contour_through_the_round_off_of_a_triple_root_is_refused_by_the_bound():
    # within about 1e-5 of the triple root chi is round-off, and its phase noise
    chi = SpinWaveFunction.from_roots([(0.5, 3)])
    message = r"^contour passes within round-off of a root: \|chi\| = (\S+) <= (\S+) at zeta = \(0\.5000001\+0j\)$"
    with pytest.raises(ContourTooCloseError, match=message) as info:
        circulation(chi, CircleContour(0.0, 0.5 + 1e-7))
    size, bound = map(float, re.match(message, str(info.value)).groups())
    assert 0.0 < size <= bound == spin._ROUNDOFF * 3 * P.polyval(0.5000001, np.abs(chi.coeffs))


def test_the_total_ring_is_twice_cauchys_bound():
    # chi = zeta^2 - M zeta - M has a root within 1 / M of Cauchy's bound 1 + M, where chi is round-off
    chi = SpinWaveFunction(2, [-1e8, -1e8, 1.0])
    assert total_spin_circulation(chi) == 2.0
    # turned by 15 degrees, that root lies between two of the total's samples, where a ring at Cauchy's bound
    # would let the phase turn by pi unseen
    turn = cmath.exp(-1j * math.pi / 12)
    assert abs(total_spin_circulation(SpinWaveFunction(2, [-1e8, -1e8 * turn, turn * turn])) - 2.0) <= 1e-12
    with pytest.raises(ContourTooCloseError, match="within round-off of a root"):
        circulation(chi, CircleContour(0.0, 1e8 + 1.0))


def test_circulation_and_total_never_call_the_divisor(monkeypatch):
    def refuse(chi):
        raise AssertionError("vorticity_divisor called")

    monkeypatch.setattr(spin, "vorticity_divisor", refuse)
    chi = SpinWaveFunction.from_roots([(0.3 + 0.2j, 2), (-0.8, 1), (1.5j, 1)])
    assert abs(circulation(chi, CircleContour(0.0, 1.0)) - 3.0) <= 1e-12
    assert abs(circulation(chi, PolygonContour((2 + 2j, -2 + 2j, -2 - 2j, 2 - 2j))) - 4.0) <= 1e-12
    assert abs(total_spin_circulation(chi) - 4.0) <= 1e-12
    assert [r.nearest for r in bohr_sommerfeld_check(chi, [CircleContour(-0.8, 0.1)])] == [1]
    with pytest.raises(AssertionError, match="vorticity_divisor called"):
        chi.divisor()


@pytest.mark.parametrize(
    "contour, roots, count, through",
    [
        (CircleContour(0.0, 1.0), [-1.0 - 6e-7, (1.0 + 2e-7) * 1j, 0.3, 1.0 + 4e-7], 1, 1.0),
        (PolygonContour((1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)), [-1.0 - 5e-7 + 0.2j, 0.1 + (1.0 - 3e-7) * 1j, 0.2, 1.0 + 4e-7 - 0.5j], 2, 1 - 1j),
    ],
    ids=["circle", "polygon"],
)
def test_contour_too_close_is_only_round_off_of_a_root(contour, roots, count, through):
    # roots within 1e-6 of the contour, which the quadrature refused, are counted
    chi = SpinWaveFunction.from_roots([(a, 1) for a in roots])
    assert abs(circulation(chi, contour) - count) <= 1e-12
    # a root on a starting sample is refused, naming the sample
    on = SpinWaveFunction.from_roots([(a, 1) for a in roots] + [(through, 1)])
    with pytest.raises(ContourTooCloseError, match=rf"^contour passes within round-off of a root: \|chi\| = .* <= .* at zeta = {re.escape(str(complex(through)))}$"):
        circulation(on, contour)


def _reference_log_derivative(chi, zeta):
    return P.polyval(zeta, P.polyder(chi.coeffs)) / P.polyval(zeta, chi.coeffs)


def _same_bits(x, y):
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("nodes", [4, 7, 64, 256])
@pytest.mark.parametrize("ccw", [True, False])
def test_circle_samples_are_the_ring_formula_and_share_a_read_only_ring(nodes, ccw):
    contour = CircleContour(0.3 - 0.2j, 1.7, nodes=nodes, ccw=ccw)
    sign = 1.0 if ccw else -1.0
    ring = np.exp(sign * 2j * np.pi * (np.arange(nodes) / nodes))
    assert contour._samples().tobytes() == (contour.center + contour.radius * ring).tobytes()
    assert contour._at(np.arange(float(nodes))).tobytes() == contour._samples().tobytes()
    cached = spin._unit_ring(nodes, ccw)
    assert cached is spin._unit_ring(nodes, ccw) and cached.tobytes() == ring.tobytes()
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 0.0


def test_rarely_reached_inputs_equal_reference_bit_for_bit():
    # branches the seeded corpus never reaches: clockwise circles, a repeated
    # polygon vertex (a zero-length edge), scalar evaluation points and the
    # constant wave function of spin 0
    square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
    contours = [
        CircleContour(0.1 + 0.2j, 1.3, ccw=False),
        CircleContour(-0.4j, 0.9, nodes=37, ccw=False),
        PolygonContour(square[:2] + square[1:]),
        PolygonContour(square + (square[0],), nodes_per_edge=5),
    ]
    waves = [
        (SpinWaveFunction(0, [2.0 - 1.0j]), []),
        (SpinWaveFunction.from_roots([(0.2 + 0.1j, 2), (-0.7j, 1), (1.4, 1)]), [(0.2 + 0.1j, 2), (-0.7j, 1), (1.4, 1)]),
        (SpinWaveFunction.from_roots([(-0.0, 1), (0.5 - 0.0j, 1)], two_s=3), [(0.0, 1), (0.5, 1)]),
    ]
    points = np.array([0.37 - 0.91j, -1.2 + 0.4j, complex(0.0, -0.3), complex(-0.0, 0.5), 2.5])
    for chi, roots in waves:
        entries = _reference_divisor(chi)
        assert chi.divisor().entries == entries
        for contour in contours:
            assert_counts_known_roots(chi, contour, roots)
        assert_total_is_the_degree(chi)
        assert _same_bits(chi.log_derivative(points), _reference_log_derivative(chi, points))
        assert _same_bits(chi.log_derivative(points.tolist()), _reference_log_derivative(chi, points.tolist()))
        for zeta in points.tolist():
            q = _reference_log_derivative(chi, zeta)
            assert _same_bits(chi.log_derivative(zeta), q)
            assert _same_bits(madelung_velocity(chi, zeta), np.array([q.imag, q.real]))


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
def test_divisor_equals_reference_and_circulations_count_the_known_roots_on_random_inputs(case):
    roots, phase, raw, contours = case
    chi = SpinWaveFunction.from_roots(roots)
    chi = SpinWaveFunction(chi.two_s, chi.coeffs * np.exp(2j * np.pi * phase) / np.linalg.norm(chi.coeffs))
    norm = math.hypot(*raw)
    g = SU2Element.from_params(complex(raw[0], raw[1]) / norm, complex(raw[2], raw[3]) / norm)
    for psi, known in ((chi, roots), (su2_act(g, chi), _image_roots(roots, g))):
        expected = _reference_divisor(psi)
        found = _outcome(lambda: psi.divisor().entries)
        assert found == ((ClusterAmbiguityError, expected) if isinstance(expected, str) else expected)
        for contour in contours:
            assert_counts_known_roots(psi, contour, known)
        assert_total_is_the_degree(psi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), st.integers(1, 3)), min_size=1, max_size=6),
    st.one_of(
        st.builds(CircleContour, st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)), st.floats(0.05, 2.5), st.sampled_from([4, 16, 256]), st.booleans()),
        st.builds(PolygonContour, st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), min_size=3, max_size=6).map(tuple), st.integers(2, 32)),
    ),
)
def test_circulation_is_the_enclosed_count_or_a_refusal(roots, contour):
    # never another number: near a root too, down to a contour through it
    chi = SpinWaveFunction.from_roots(roots)
    try:
        value = circulation(chi, contour)
    except ContourTooCloseError:
        return
    if all(contour_gap(contour, a) > 1e-9 for a, _ in roots):
        assert abs(value - sum(mu * winding_about(contour, a) for a, mu in roots)) <= 1e-9
    else:  # a root on the contour: no count is the enclosed one, but it is an integer
        assert abs(value - round(value)) <= 1e-9


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
