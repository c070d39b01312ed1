"""Tests for the weight-k space structure, the matching constructor, and P(j)."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from theta_forms import modforms
from theta_forms.exact_arith import primes_in_range, rat_mod
from theta_forms.fppoly import FpPoly, reduce_poly
from theta_forms.modforms import (
    BasisCoordinates,
    ConfigError,
    RatPoly,
    basis,
    basis_coordinates,
    combination,
    constructor,
    coordinates_mod_p,
    default_order,
    pf_polynomial,
    series_in_t,
    weight_indices,
)
from theta_forms.qseries import (
    QSeries,
    delta,
    eisenstein,
    eisenstein_mod,
    euler_product,
    j_invariant,
    pow_rational,
    theta_H,
    theta_Z,
)

# ---------------------------------------------------------------------------
# RatPoly


def test_ratpoly_basic():
    p = RatPoly([1, 2, Fraction(3, 4), 0])
    assert p.coeffs == [1, 2, Fraction(3, 4)]
    assert p.degree == 2
    assert p.coefficient(2) == Fraction(3, 4)
    assert p.coefficient(5) == 0 and p.coefficient(-1) == 0
    assert p == RatPoly([1, 2, Fraction(3, 4)])
    assert p != RatPoly([1, 2])
    assert RatPoly([1, 0, 0]).degree == 0
    assert RatPoly([]).coeffs == []
    assert RatPoly([0]).degree == -1


# ---------------------------------------------------------------------------
# weight indices


def test_weight_indices_known():
    w = weight_indices(52)
    assert (w.n, w.a, w.b) == (4, 1, 0)
    w = weight_indices(108)
    assert (w.n, w.a, w.b) == (9, 0, 0)
    w = weight_indices(6)
    assert (w.n, w.a, w.b) == (0, 0, 1)


def test_weight_indices_all_even_weights():
    for k in range(4, 400, 2):
        w = weight_indices(k)
        assert k == 12 * w.n + 4 * w.a + 6 * w.b
        assert w.n >= 0 and w.a in (0, 1, 2) and w.b in (0, 1)


def test_weight_indices_uniqueness_oracle():
    # brute force: the triple is the only admissible one
    for k in range(4, 200, 2):
        w = weight_indices(k)
        sols = [
            (n, a, b)
            for n in range(k // 12 + 1)
            for a in range(3)
            for b in range(2)
            if 12 * n + 4 * a + 6 * b == k
        ]
        assert sols == [(w.n, w.a, w.b)]


def test_weight_indices_rejects():
    with pytest.raises(ValueError):
        weight_indices(7)
    with pytest.raises(ValueError):
        weight_indices(2)


# ---------------------------------------------------------------------------
# basis


def test_basis_weight_12():
    b = basis(12, 6)
    assert len(b) == 2
    assert b[0] == delta(6)
    assert b[1] == eisenstein(4, 6) ** 3


def test_basis_leading_structure():
    for k in [12, 16, 18, 52, 108]:
        w = weight_indices(k)
        b = basis(k, w.n + 3)
        assert len(b) == w.n + 1
        for l, elem in enumerate(b):
            assert elem.valuation() == w.n - l
            assert elem.coefficient(w.n - l) == 1


def test_basis_weight_52_size():
    assert len(basis(52, 10)) == 5


def _basis_by_powers(k, order):
    """Delta^(n-l) * E4^(a+3l) * E6^b, each element from its own powers."""
    w = weight_indices(k)
    e4, e6, dl = eisenstein(4, order), eisenstein(6, order), delta(order)
    e6b = e6 if w.b else QSeries.one(order)
    return [(dl ** (w.n - l)) * (e4 ** (w.a + 3 * l)) * e6b for l in range(w.n + 1)]


@pytest.mark.parametrize("k", [12, 14, 16, 18, 22, 52, 108, 500, 998])
def test_basis_matches_powers(k):
    orders = [weight_indices(k).n + 1]
    if k <= 108:
        orders.append(default_order(k))
    for order in orders:
        got, want = basis(k, order), _basis_by_powers(k, order)
        assert [(g.shift, g.coeffs) for g in got] == [(h.shift, h.coeffs) for h in want], (k, order)


# ---------------------------------------------------------------------------
# coordinates and constructor


def test_basis_coordinates_unit_vectors():
    for k in [12, 40, 52]:
        w = weight_indices(k)
        b = basis(k, w.n + 2)
        for l in range(w.n + 1):
            coords = basis_coordinates(b[l], k)
            want = tuple(1 if i == l else 0 for i in range(w.n + 1))
            assert coords.coords == want


def test_basis_coordinates_roundtrip_random():
    rng = random.Random(9)
    for k in [12, 24, 52]:
        w = weight_indices(k)
        for _ in range(5):
            coords = tuple(rng.randrange(-1000, 1000) for _ in range(w.n + 1))
            f = combination(BasisCoordinates(k, coords), w.n + 4)
            assert basis_coordinates(f, k).coords == coords


def _coordinates_by_fractions(f, k):
    """Back-substitution with Fraction residuals, one element at a time."""
    w = weight_indices(k)
    bas = basis(k, w.n + 1)
    residual = [Fraction(f.coefficient(e)) for e in range(w.n + 1)]
    coords = [Fraction(0)] * (w.n + 1)
    for e in range(w.n + 1):
        c = residual[e]
        coords[w.n - e] = c
        for e2 in range(e, w.n + 1):
            residual[e2] -= c * bas[w.n - e].coefficient(e2)
    return tuple(coords)


@pytest.mark.parametrize("k", [100, 598])
def test_basis_coordinates_eisenstein_matches_fraction_solve(k):
    f = eisenstein(k, weight_indices(k).n + 1)
    assert any(isinstance(c, Fraction) for c in f.coeffs)
    got = basis_coordinates(f, k).coords
    assert got == _coordinates_by_fractions(f, k)
    assert all(type(c) is Fraction for c in got)


def test_basis_coordinates_types_follow_input():
    k = 52
    ints = theta_Z(6)
    assert all(type(c) is int for c in basis_coordinates(ints, k).coords)
    # one Fraction among the targets, even an integral one, makes all Fractions
    mixed = QSeries(ints.coeffs[:3] + [Fraction(ints.coeffs[3])] + ints.coeffs[4:])
    coords = basis_coordinates(mixed, k).coords
    assert all(type(c) is Fraction for c in coords)
    assert coords == basis_coordinates(ints, k).coords


def test_basis_coordinates_roundtrip_mixed_denominators():
    rng = random.Random(11)
    for k in [24, 52, 108]:
        w = weight_indices(k)
        for _ in range(5):
            coords = tuple(
                Fraction(rng.randrange(-(10**6), 10**6), rng.choice([1, 2, 3, 7, 12, 691]))
                for _ in range(w.n + 1)
            )
            f = combination(BasisCoordinates(k, coords), w.n + 3)
            assert basis_coordinates(f, k).coords == coords


# ---------------------------------------------------------------------------
# the shared t-table against the chain-built basis


@lru_cache(maxsize=None)
def _chain_basis(k, order):
    """Delta^(n-l) E4^(a+3l) E6^b for l = 0..n from two chains of products.

    The chain E_l = E_(l-1) * E4^3 starts from E_0 = E4^a E6^b; the chain
    Delta^i = Delta^(i-1) * Delta runs alongside, replacing E_(n-i) by
    Delta^i * E_(n-i).
    """
    w = weight_indices(k)
    e4 = eisenstein(4, order)
    head = e4**w.a
    if w.b:
        e6 = eisenstein(6, order)
        head = head * e6 if w.a else e6
    e4_cubed = e4**3
    out = [head]
    for _ in range(w.n):
        out.append(out[-1] * e4_cubed)
    dl = delta(order)
    power = dl
    for l in range(w.n - 1, -1, -1):
        out[l] = power * out[l]
        if l:
            power = power * dl
    return tuple(out)


def _chain_coordinates(f, k):
    """The integer back-substitution against the chain-built basis of M_k itself."""
    w = weight_indices(k)
    m = w.n + 1
    bas = _chain_basis(k, m)
    targets = [f.coefficient(e) for e in range(m)]
    fractional = any(isinstance(c, Fraction) for c in targets)
    den = math.lcm(*(c.denominator for c in targets)) if fractional else 1
    residual = [c.numerator * (den // c.denominator) for c in targets]
    coords = [0] * m
    for e in range(m):
        c = residual[e]
        coords[w.n - e] = c
        if c:
            row = bas[w.n - e].coeffs
            for e2 in range(e + 1, m):
                residual[e2] -= c * row[e2]
    if fractional:
        coords = [Fraction(c, den) for c in coords]
    return tuple(coords)


_CHAIN_WEIGHTS = list(range(4, 42, 2)) + [52, 108, 300, 498, 598, 700, 998]


@pytest.mark.parametrize("k", _CHAIN_WEIGHTS)
def test_coordinates_match_chain_solve(k):
    # every k mod 12 class occurs in 4..40; the rest reach the lanes' weights
    m = weight_indices(k).n + 1
    for f in (theta_Z(m), theta_H(m), eisenstein(k, m), QSeries.one(m)):
        got = basis_coordinates(f, k).coords
        want = _chain_coordinates(f, k)
        assert got == want, k
        assert [type(c) for c in got] == [type(c) for c in want], k


def test_t_table_grows_in_place(fresh_series_caches):
    small, large = 52, 300
    f_small, f_large = theta_Z(10), theta_Z(30)
    first = basis_coordinates(f_small, small).coords
    rows = modforms._T_POWERS
    size = len(rows)
    assert size == weight_indices(small).n + 1
    before = [(row, list(row)) for row in rows]
    assert basis_coordinates(f_large, large).coords == _chain_coordinates(f_large, large)
    assert len(rows) == weight_indices(large).n + 1 > size
    # the earlier rows are the same lists, extended: their prefixes are untouched
    for i, (row, prefix) in enumerate(before):
        assert rows[i] is row and row[:size] == prefix
    assert basis_coordinates(f_small, small).coords == first


def test_t_table_rows_are_powers_of_t():
    order = 20
    rows = modforms._t_powers(order)
    t = delta(order) * eisenstein(4, order) ** -3
    assert t.coeffs[:3] == [0, 1, -744]
    power = QSeries.one(order)
    for i in range(order):
        assert rows[i][:order] == power.coeffs, i
        power = power * t


@pytest.mark.parametrize("order", [25, 64])
@pytest.mark.parametrize("tag", ["U0", "V0", "W0"])
def test_series_in_t_matches_compose_reference_on_1728_over_j(tag, order):
    # F(tag; 1728/j) read off the shared t-table, against Horner's rule on
    # the inverse of j: 1728/j = 1728 t, so sum c_m (1728/j)^m is
    # sum (c_m 1728^m) t^m
    from test_qseries import _compose_reference
    from theta_forms.hyperpoly import f21_coefficients

    inner = j_invariant(order - 1)._invert() * 1728
    assert (inner.shift, inner.order) == (1, order)
    cs = f21_coefficients(tag, order - 1)
    want = _compose_reference(cs, inner)
    got = series_in_t([c * 1728**m for m, c in enumerate(cs)], order)
    assert got.coeffs == want.coeffs
    integral = all(Fraction(c).denominator == 1 for c in want.coeffs)
    assert {type(c) for c in got.coeffs} == {int if integral else Fraction}


def test_series_in_t_reads_only_the_first_order_coefficients():
    assert series_in_t([1, 2, 3, 4, 5], 3) == series_in_t([1, 2, 3], 3)
    assert series_in_t([], 4).coeffs == [0, 0, 0, 0]
    t = delta(6) * eisenstein(4, 6) ** -3
    assert series_in_t([0, 1], 6) == t


def _combination_reference(coords: BasisCoordinates, order: int) -> QSeries:
    """U * sum(c_l * t^(n_k - l)), summed coefficient by coefficient."""
    w = weight_indices(coords.k)
    rows = modforms._t_powers(order)
    s = [0] * order
    for l, c in enumerate(coords.coords):
        if c:
            for e in range(w.n - l, order):
                s[e] += c * rows[w.n - l][e]
    return modforms._unit(w, order, 1) * QSeries(s)


@pytest.mark.parametrize("k", [4, 14, 26, 52, 108])
def test_combination_matches_the_term_by_term_sum(k):
    rng = random.Random(k)
    m = weight_indices(k).n + 1
    order = default_order(k)
    for coords in (
        [rng.randrange(-50, 50) for _ in range(m)],
        [Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(m)],
        [Fraction(rng.randrange(-50, 50)) for _ in range(m)],
    ):
        bc = BasisCoordinates(k, tuple(coords))
        got, want = combination(bc, order), _combination_reference(bc, order)
        assert got.coeffs == want.coeffs, k
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs], k


def test_pf_polynomial_with_warm_table_makes_few_products(monkeypatch):
    k = 998
    f = theta_H(weight_indices(k).n + 1)
    want = pf_polynomial(f, k)  # warms the table to this order
    calls = []
    mul = QSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    assert pf_polynomial(f, k) == want
    # U^-1 = E4^-(a+3n) * E6^-1, then f * U^-1: no basis, no chain
    assert len(calls) <= 3


@pytest.mark.parametrize("p", [5, 7, 13, 101, 601, 691, 997])
def test_background_p_from_q_to_the_n_matches_default_order(p):
    # the solve reads only q^0..q^n of E_(p-1), so the background lane builds no more
    k = p - 1
    n = weight_indices(k).n
    assert pf_polynomial(eisenstein(k, n + 1), k) == pf_polynomial(eisenstein(k, default_order(k)), k)


def test_unit_cache_matches_fresh_build_and_stays_unchanged():
    assert modforms._unit.cache_info().maxsize == 2
    k = 696
    w = weight_indices(k)
    m = w.n + 1
    f = eisenstein(k, m)
    coords = basis_coordinates(f, k)
    cached = modforms._unit(w, m, -1)
    assert cached.coeffs == modforms._unit.__wrapped__(w, m, -1).coeffs
    snapshot = list(cached.coeffs)
    assert basis_coordinates(f, k) == coords
    form = combination(coords, m)  # builds and caches U^+1 at the same order
    assert basis_coordinates(form, k) == coords
    assert modforms._unit(w, m, -1) is cached
    assert cached.coeffs == snapshot
    unit = modforms._unit(w, m, 1)
    assert unit.coeffs == modforms._unit.__wrapped__(w, m, 1).coeffs
    assert (unit * cached).coeffs == QSeries.one(m).coeffs


# ---------------------------------------------------------------------------
# the mod-p solve


def lane_targets(p: int) -> list[tuple[str, int, QSeries, list[int]]]:
    """(name, weight, exact target, residue target) for each form a lane solves at p.

    The residue targets are what the lanes pass to ``coordinates_mod_p``: the
    theta coefficients as they are, E_(p-1) from ``eisenstein_mod``.
    """
    out = []
    if p % 4 == 3:
        k = (p + 1) // 2
        f = theta_Z(weight_indices(k).n + 1)
        out.append(("theta_Z", k, f, f.coeffs))
    if p % 12 in (5, 11):
        k = p + 1
        f = theta_H(weight_indices(k).n + 1)
        out.append(("theta_H", k, f, f.coeffs))
    k = p - 1
    m = weight_indices(k).n + 1
    out.append(("E_(p-1)", k, eisenstein(k, m), eisenstein_mod(k, m, p)))
    out.append(("one", k, QSeries.one(m), QSeries.one(m).coeffs))
    return out


def check_solve_mod_p_matches_exact(p: int) -> None:
    for name, k, exact, residues in lane_targets(p):
        want = reduce_poly(pf_polynomial(exact, k), p)
        assert FpPoly(coordinates_mod_p(residues, k, p), p) == want, (name, k, p)


@pytest.mark.parametrize("p", primes_in_range(5, 200) + [983, 991, 997])
def test_solve_mod_p_matches_reduced_exact_solve(p):
    check_solve_mod_p_matches_exact(p)


@pytest.mark.parametrize(
    "k, p", [(4, 5), (12, 7), (16, 13), (52, 103), (102, 103), (996, 997), (690, 691), (32, 37)]
)
def test_eisenstein_mod_is_the_reduced_series(k, p):
    exact = [Fraction(c) for c in eisenstein(k, 30).coeffs]
    if any(c.denominator % p == 0 for c in exact):  # (32, 37): 37 divides B_32
        with pytest.raises(ValueError, match="divides a denominator"):
            eisenstein_mod(k, 30, p)
    else:
        assert eisenstein_mod(k, 30, p) == [rat_mod(c, p) for c in exact]


def test_eisenstein_mod_rejects_p_in_the_factor_denominator():
    # -2k/B_k = 65520/691 for k = 12
    with pytest.raises(ValueError, match="divides a denominator"):
        eisenstein_mod(12, 5, 691)


def test_solve_mod_p_reads_q_to_the_n_only():
    k, p = 52, 103
    want = coordinates_mod_p(theta_Z(5).coeffs, k, p)
    assert coordinates_mod_p(theta_Z(30).coeffs, k, p) == want
    assert want == [c % p for c in basis_coordinates(theta_Z(5), k).coords]


def test_solve_mod_p_takes_p_integral_fractions():
    k, p = 52, 103
    f = theta_Z(5) * Fraction(1, 3)
    got = coordinates_mod_p(f.coeffs, k, p)
    assert got == [rat_mod(c, p) for c in basis_coordinates(f, k).coords]


def test_solve_mod_p_rejects_short_or_non_integral_targets():
    with pytest.raises(ConfigError, match="below dimension 5"):
        coordinates_mod_p(theta_Z(4).coeffs, 52, 103)
    with pytest.raises(ValueError, match="p = 7 divides a denominator"):
        coordinates_mod_p([1, Fraction(1, 7), 0, 0, 0], 52, 7)


@pytest.mark.parametrize("k, p", [(52, 3), (108, 5), (108, 7), (110, 5)])
def test_solve_mod_p_at_p_not_above_n_is_the_reduced_exact_solve(k, p):
    # nothing in the mod-p solve divides by 1..n_k, so p <= n_k solves as any p does
    n = weight_indices(k).n
    assert p <= n
    f = theta_Z(n + 1)
    want = [rat_mod(c, p) for c in basis_coordinates(f, k).coords]
    assert coordinates_mod_p(f.coeffs, k, p) == want


_ROUND_TRIP_PRIMES = (3, 5, 7, 11, 101, 997, 10007)


@pytest.mark.parametrize("k", [4, 6, 14, 52, 108, 500, 998])
def test_solve_mod_p_round_trips_random_targets(k):
    # random integer targets, not only the lanes' forms, at primes on both
    # sides of n_k: the digit peel is the exact solve reduced mod p
    m = weight_indices(k).n + 1
    rng = random.Random(k)
    for _ in range(2):
        h = [rng.randint(-10**12, 10**12) for _ in range(m)]
        exact = basis_coordinates(QSeries(h), k).coords
        for p in _ROUND_TRIP_PRIMES:
            assert coordinates_mod_p(h, k, p) == [c % p for c in exact], (k, p)


def test_solve_mod_p_refuses_primes_past_the_int64_bound():
    # m p^2 < 2^63 holds for m = 2 at p = 2^31 - 1 and fails for m = 3
    p = 2**31 - 1
    assert [weight_indices(k).n + 1 for k in (16, 24)] == [2, 3]
    f = theta_Z(3)
    assert coordinates_mod_p(f.coeffs, 16, p) == [c % p for c in basis_coordinates(f, 16).coords]
    with pytest.raises(ValueError, match="overflows int64"):
        coordinates_mod_p(f.coeffs, 24, p)


def test_peel_multiplier_is_q_times_j():
    # S = q j = 1 + 744q + 196884q^2 + ..., read off the Laurent series of j
    j = j_invariant(40)
    assert j.shift == -1 and j.coeffs[:3] == [1, 744, 196884]
    for p in (5, 691, 10007):
        assert modforms._q_j_mod(38, p) == [int(c) % p for c in j.coeffs[:38]]


def test_inverse_euler_recurrence_matches_the_rational_power():
    # prod (1 - q^k)^-24 from n F_n = 24 sum sigma(k) F_(n-k), against the
    # binomial-series power of the pentagonal product it replaced, to 256 terms
    want = pow_rational(euler_product(256), -24).coeffs
    assert modforms._inverse_euler_24(256) == want
    assert want[:4] == [1, 24, 324, 3200]  # partitions of n into parts of 24 colours
    for order in (1, 2, 3, 17):
        assert modforms._inverse_euler_24(order) == want[:order]


def test_solve_rejects_order_below_dimension():
    with pytest.raises(ConfigError, match="below dimension 5"):
        basis_coordinates(theta_Z(4), 52)
    with pytest.raises(ConfigError):
        basis(52, 4)
    assert issubclass(ConfigError, ValueError)


def test_constructor_weight_52_theta():
    f = constructor(theta_Z(6), 52)
    coords = basis_coordinates(theta_Z(6), 52)
    assert coords.coords == (27800506386, -776608440, 2887488, -3118, 1)
    assert f.coefficient(5) == 95037348924
    assert f.coefficient(6) == 1017845969208768
    for e in range(5):
        assert f.coefficient(e) == theta_Z(6).coefficient(e)


def test_constructor_weight_108_theta_hex():
    f = constructor(theta_H(12), 108)
    for e, want in [(0, 1), (1, 6), (2, 0), (3, 6), (4, 6), (7, 12), (9, 6)]:
        assert f.coefficient(e) == want
    assert f.coefficient(10) == 1496265431568669020160


def test_constructor_of_one():
    # the unique weight-12 form starting 1 + 0q is E4^3 - 720*Delta:
    # E4^3 = 1 + 720q + ..., so the Delta coordinate must cancel the 720
    f = constructor(QSeries.one(4), 12, 8)
    want = eisenstein(4, 8) ** 3 - delta(8) * 720
    assert f == want
    assert basis_coordinates(QSeries.one(4), 12).coords == (-720, 1)


def test_constructor_is_projection():
    f = constructor(theta_Z(8), 52)
    again = constructor(f, 52)
    assert f == again


def test_constructor_agreement_window():
    for k in [12, 28, 52]:
        w = weight_indices(k)
        f = theta_H(default_order(k))
        g = constructor(f, k)
        diff = g - f
        assert diff.valuation() >= w.n + 1


def test_pf_polynomial_weight_52():
    p = pf_polynomial(theta_Z(6), 52)
    assert p.coeffs == [27800506386, -776608440, 2887488, -3118, 1]
    assert p.degree == 4


def test_pf_polynomial_weight_108_constant():
    p = pf_polynomial(theta_H(11), 108)
    assert p.degree == 9
    assert p.coefficient(0) == -2139590870258478384000
    assert p.coefficient(9) == 1


def test_pf_polynomial_weight_4():
    assert pf_polynomial(eisenstein(4, 3), 4) == RatPoly([1])


def test_pf_polynomial_of_basis_elements():
    for k in [24, 52]:
        w = weight_indices(k)
        for l, elem in enumerate(basis(k, w.n + 2)):
            p = pf_polynomial(elem, k)
            assert p.coeffs == [0] * l + [1]


def test_pf_degree_equals_n_for_theta():
    for k in [12, 24, 36, 52]:
        w = weight_indices(k)
        assert pf_polynomial(theta_Z(w.n + 2), k).degree == w.n


def test_theta_constructor_integrality():
    # observed property: the matched forms for theta inputs stay integral
    for k in [12, 28, 52, 54]:
        f = constructor(theta_Z(weight_indices(k).n + 2), k)
        for c in f.coeffs:
            assert Fraction(c).denominator == 1


# ---------------------------------------------------------------------------
# congruences


def test_initial_vanishing_propagates():
    # a weight-k form whose first n_k+1 coefficients are 0 mod p is 0 mod p:
    # feed the constructor p times random integers, check every coefficient
    for k, p, trials in [(52, 7, 10), (102, 103, 20)]:
        rng = random.Random(0)
        w = weight_indices(k)
        order = default_order(k)
        for _ in range(trials):
            target = QSeries([p * rng.randrange(-(10**6), 10**6) for _ in range(w.n + 1)])
            form = constructor(target, k, order)
            for e in range(order):
                assert rat_mod(form.coefficient(e), p) == 0, (k, p, e)


def test_initial_vanishing_scaled_basis_head():
    # the simplest instance: p times the lead basis element
    p = 11
    k = 24
    w = weight_indices(k)
    head = basis(k, w.n + 1)[0] * p
    form = constructor(head, k)
    for c in form.coeffs:
        assert Fraction(c).numerator % p == 0 or c == 0
