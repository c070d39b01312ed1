"""Tests for truncated q-series arithmetic and the classical expansions.

Oracles here are deliberately independent code paths: naive polynomial
convolution lists, brute-force divisor sums, direct lattice enumeration.
"""

import random
from fractions import Fraction

import pytest

from theta_forms.qseries import (
    QSeries,
    compose,
    delta,
    eisenstein,
    euler_product,
    hauptmodul_mismatch,
    invert_unit,
    j_invariant,
    lambda_eta_quotient,
    pow_rational,
    t3,
    theta_H,
    theta_Z,
)

# ---------------------------------------------------------------------------
# oracle helpers: naive truncated polynomial lists


def _poly_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_pow(a, e, n):
    out = [1] + [0] * (n - 1)
    for _ in range(e):
        out = _poly_mul(out, a, n)
    return out


def _poly_inverse(a, n):
    """1/a to n terms for a[0] != 0, solving a * b = 1 term by term in Fractions."""
    b = [Fraction(1) / a[0]]
    for k in range(1, n):
        b.append(-sum(a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1)) / a[0])
    return b


def _euler_product_naive(n):
    acc = [1] + [0] * (n - 1)
    for m in range(1, n):
        factor = [0] * n
        factor[0] = 1
        factor[m] = -1
        acc = _poly_mul(acc, factor, n)
    return acc


def _sigma(m, k):
    return sum(d**k for d in range(1, m + 1) if m % d == 0)


# ---------------------------------------------------------------------------
# reference transforms: the Fraction recurrences the integer versions replace


def _pow_rational_reference(f, r):
    """f^r by n*g_n = sum_{i=1..n} ((r+1)i - n) f_i g_{n-i} in Fractions."""
    r = Fraction(r)
    n = len(f.coeffs)
    g = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        acc = Fraction(0)
        for i in range(1, k + 1):
            if f.coeffs[i]:
                acc += ((r + 1) * i - k) * f.coeffs[i] * g[k - i]
        g[k] = acc / k
    return QSeries(g)


def _compose_reference(outer, inner):
    """outer(inner) by Horner's rule, one full series product per coefficient."""
    n = inner.order
    result = QSeries.zero(n)
    for c in reversed(list(outer)[:n]):
        result = (result * inner).truncate(n) + c
    return result


# ---------------------------------------------------------------------------
# core arithmetic


def test_window_semantics():
    f = QSeries([1, 2, 3])
    assert f.order == 3
    assert f.coefficient(0) == 1 and f.coefficient(2) == 3
    with pytest.raises(IndexError):
        f.coefficient(3)
    g = QSeries([5, 7], shift=-1)
    assert g.coefficient(-2) == 0
    assert g.coefficient(-1) == 5
    assert g.order == 1


def test_mul_product_of_binomials():
    f = QSeries([1, 1, 0])
    g = QSeries([1, -1, 0])
    assert (f * g).coeffs == [1, 0, -1]


def test_invert_unit_geometric():
    f = QSeries([1, -1] + [0] * 8)
    assert invert_unit(f).coeffs == [1] * 10


def test_invert_unit_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [Fraction(rng.randrange(1, 9))] + [
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(11)
        ]
        f = QSeries(coeffs)
        assert (f * invert_unit(f)).coeffs == [1] + [0] * 11


def test_invert_unit_rejects_nonunit():
    with pytest.raises(ValueError):
        invert_unit(QSeries([0, 1, 1]))


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(40):
        a = QSeries([rng.randrange(-9, 10) for _ in range(20)])
        b = QSeries([rng.randrange(-9, 10) for _ in range(20)])
        c = QSeries([rng.randrange(-9, 10) for _ in range(20)])
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == QSeries.zero(20)


def test_shift_arithmetic():
    j_like = QSeries([1, 744, 196884], shift=-1)
    q = QSeries([0, 1, 0])
    prod = j_like * q
    assert prod.shift == -1
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 744
    total = j_like + QSeries([10, 20])
    assert total.coefficient(-1) == 1
    assert total.coefficient(0) == 754


def test_dilate():
    f = QSeries([1, 2, 3])
    g = f.dilate(2)
    assert g.coeffs == [1, 0, 2, 0, 3]
    assert g.order == 5


def test_pow_rational_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        f = QSeries([1] + [Fraction(rng.randrange(-5, 6)) for _ in range(14)])
        g = pow_rational(f, Fraction(3, 2))
        assert pow_rational(g, Fraction(2, 3)) == f


def test_pow_rational_additivity():
    f = QSeries([1] + [Fraction(k % 5 - 2) for k in range(14)])
    a, b = Fraction(1, 8), Fraction(3, 8)
    lhs = pow_rational(f, a) * pow_rational(f, b)
    rhs = pow_rational(f, a + b)
    assert lhs == rhs


def test_pow_rational_against_binomial_compose():
    # independent path: (1+x)^r expanded by binomial coefficients, composed
    # with f - 1
    f = QSeries([1, 3, -2, 5, 0, 1, -4, 2, 2, -1])
    r = Fraction(-5, 7)
    n = len(f.coeffs)
    binom = []
    term = Fraction(1)
    for i in range(n):
        binom.append(term)
        term = term * (r - i) / (i + 1)
    expected = compose(binom, f - 1)
    assert pow_rational(f, r) == expected


def test_pow_rational_rejects_bad_constant():
    with pytest.raises(ValueError):
        pow_rational(QSeries([2, 1]), Fraction(1, 2))


def test_compose_geometric():
    geom = [1] * 6
    q = QSeries([0, 1, 0, 0, 0, 0])
    assert compose(geom, q).coeffs == [1] * 6
    sq = compose([0, 0, 1], QSeries([0, 1, 1, 0, 0]))
    assert sq.coeffs == [0, 0, 1, 2, 1]


def test_compose_with_a_truncated_outer_stops_where_its_tail_enters():
    # outer known to x^2 only: its unknown x^3 term enters at q^(3v), v the
    # inner's valuation, so the result is known to order min(inner.order, 3v)
    outer = QSeries([1, 1, 1])
    got = compose(outer, QSeries([0, 1, 0, 0, 0, 0]))
    assert got.order == 3 and got.coeffs == [1, 1, 1]
    got = compose(outer, QSeries([0, 0, 1, 0, 0, 0, 0, 0]))
    assert got.order == 6 and got.coeffs == [1, 0, 1, 0, 1, 0]
    got = compose(outer, QSeries([1, 1], shift=1))
    assert got.order == 3 and got.coeffs == [1, 1, 2]
    assert compose(outer, QSeries([0, 0, 0, 1, 1])).order == 5
    # a plain list is an exact polynomial: the inner's order stands
    assert compose([1, 1, 1], QSeries([0, 1, 0, 0, 0, 0])).coeffs == [1, 1, 1, 0, 0, 0]


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        compose([1, 1], QSeries([1, 1]))


def test_compose_rejects_laurent_inner():
    with pytest.raises(ValueError, match="Laurent"):
        compose([1, 1, 1], QSeries([1, 0, 1], -1))


def test_compose_integral_result_has_int_coefficients():
    # Fraction outer coefficients clear to ints over the inner series 2x
    half = [Fraction(1), Fraction(1), Fraction(-1, 2), Fraction(1, 2)]
    got = compose(half, QSeries([0, 2, 0, 0]))
    assert got.coeffs == [1, 2, -2, 4]
    assert all(type(c) is int for c in got.coeffs)
    assert compose([Fraction(1, 2)], QSeries([0, 1])).coeffs == [Fraction(1, 2), 0]


def test_compose_matches_reference_on_1728_over_j():
    from theta_forms.hyperpoly import f21_coefficients

    inner = j_invariant(25)._invert() * 1728
    for tag in ("U0", "V0", "W0"):
        outer = f21_coefficients(tag, inner.order)
        assert compose(outer, inner) == _compose_reference(outer, inner)


def test_compose_matches_reference_on_the_lane_inners_at_order_64():
    # the two inner series the identities lane composes with, built as the
    # lane builds them: the cubic-transform and degenerate-evaluation rational
    # functions; and 1728/j, the shift-1 window from _invert, which the lane
    # now reads off the t-table instead (see test_modforms)
    from theta_forms.hyperpoly import f21_coefficients

    n = 64
    inner_j = j_invariant(n - 1)._invert() * 1728
    assert (inner_j.shift, inner_j.order) == (1, n)
    x = QSeries([0, 1] + [0] * (n - 2))
    poly = QSeries.one(n) - x + x * x
    cubic = (x * x) * ((x - 1) ** 2) * 27 * invert_unit((poly**3) * 4)
    degenerate = x * ((x + 4) ** 3) * invert_unit(((x * 2 - 1) ** 3) * 4)
    for tag, inner in [("U0", inner_j), ("W0", inner_j), ("V0", inner_j),
                       ("W0", cubic), ("V0", degenerate)]:
        outer = f21_coefficients(tag, n)
        got, want = compose(outer, inner), _compose_reference(outer, inner)
        assert got.coeffs == want.coeffs, (tag, inner)
        integral = all(Fraction(c).denominator == 1 for c in want.coeffs)
        assert {type(c) for c in got.coeffs} == {int if integral else Fraction}


def test_mul_of_fraction_windows_with_an_integral_product_gives_ints():
    got = QSeries([Fraction(1, 2), 1, Fraction(1, 2)]) * QSeries([2, Fraction(4), 8])
    assert got.coeffs == [1, 4, 9]
    assert all(type(c) is int for c in got.coeffs)
    half = QSeries([Fraction(1, 2), 0]) * QSeries([1, 1])
    assert half.coeffs == [Fraction(1, 2), Fraction(1, 2)]
    assert all(type(c) is Fraction for c in half.coeffs)


def test_pow_rational_matches_reference_on_e4():
    e4 = eisenstein(4, 30)
    for r in (Fraction(1, 8), Fraction(1, 4), Fraction(-3, 4), Fraction(5, 12)):
        assert pow_rational(e4, r) == _pow_rational_reference(e4, r)


def test_integer_pow_matches_repeated_mul():
    f = QSeries([2, -1, 3, 0, 1, 1, -2, 0, 0, 4])
    acc = QSeries.one(10)
    for e in range(5):
        assert f**e == acc
        acc = acc * f


def test_integer_pow_matches_naive_lists():
    # a negative power is a power of the inverse of the unit part, on the
    # unit part's window, at shift e times the valuation
    windows = [
        QSeries([2, -1, 3, 0, 1, 1, -2, 0]),
        QSeries([Fraction(1, 2), Fraction(-3, 5), 0, Fraction(7, 3), 1, Fraction(-1, 4)]),
        QSeries([-1, 0, 0, 4, 0, -2, 1]),
        QSeries([0, 0, 3, -1, 0, 2, 0, 1], shift=-1),
        j_invariant(6),
    ]
    for f in windows:
        n = len(f.coeffs)
        v = next(i for i, c in enumerate(f.coeffs) if c)
        inverse = _poly_inverse(f.coeffs[v:], n - v)
        for e in range(-12, 41):
            got = f**e
            if e >= 0:
                assert got.shift == e * f.shift, (f, e)
                assert got.coeffs == _poly_pow(f.coeffs, e, n), (f, e)
            else:
                assert got.shift == e * (f.shift + v), (f, e)
                assert got.coeffs == _poly_pow(inverse, -e, n - v), (f, e)
    # zero windows: 0^0 = 1, 0^e stays a zero window, and 0^-e is undefined
    for f in (QSeries([0, 0, 0]), QSeries([0, 0], shift=-1), QSeries([Fraction(0)])):
        n = len(f.coeffs)
        for e in range(41):
            got = f**e
            assert got.shift == (e * f.shift if e > 0 else 0), (f, e)
            assert got.coeffs == _poly_pow(f.coeffs, e, n), (f, e)
        for e in (-1, -24):
            with pytest.raises(ValueError, match="valuation undefined"):
                f**e


@pytest.mark.parametrize("step", [1, 2, 3, 4])
def test_euler_product_powers_take_no_products_or_inversions(monkeypatch, step):
    # prod (1 - q^(step k))^e is one power recurrence on the sparse
    # pentagonal series, for either sign of e
    n = 40
    base = euler_product(n, step)
    want = {}
    for e in (24, 12, 8, 16):
        want[e] = _poly_pow(base.coeffs, e, n)
        want[-e] = invert_unit(QSeries(want[e])).coeffs

    def refuse(*args):
        raise AssertionError("a series product or inversion was taken")

    monkeypatch.setattr(QSeries, "__mul__", refuse)
    monkeypatch.setattr(QSeries, "_invert", refuse)
    for e in (24, -24, 12, -12, 8, 16):
        got = euler_product(n, step) ** e
        assert got.shift == 0 and got.coeffs == want[e], (step, e)
        assert all(type(c) is int for c in got.coeffs)


def test_integer_pow_one_is_a_copy():
    f = QSeries([3, 1, 4], shift=-1)
    g = f**1
    assert g is not f and g.coeffs is not f.coeffs
    assert g == f and g.shift == -1


# ---------------------------------------------------------------------------
# classical expansions


def test_eisenstein_small():
    # oracle: brute-force divisor sums
    assert eisenstein(4, 3).coeffs == [1, 240, 240 * _sigma(2, 3)]
    assert eisenstein(4, 3).coeffs == [1, 240, 2160]
    assert eisenstein(6, 3).coeffs == [1, -504, -504 * _sigma(2, 5)]
    assert eisenstein(6, 3).coeffs == [1, -504, -16632]


def test_eisenstein_constant_term():
    for k in [4, 6, 8, 10, 12, 14, 16]:
        assert eisenstein(k, 5).coeffs[0] == 1


def test_eisenstein_general_weight_oracle():
    from theta_forms.exact_arith import bernoulli

    for k in [8, 12, 26]:
        s = eisenstein(k, 8)
        factor = Fraction(-2 * k) / bernoulli(k)
        for m in range(1, 8):
            assert s.coefficient(m) == factor * _sigma(m, k - 1)


def _eisenstein_fractions(k, n):
    """E_k built one Fraction per coefficient, made ints when all are
    integral: the reference for eisenstein's values and coefficient types."""
    from theta_forms.exact_arith import bernoulli

    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [Fraction(1)] + [factor * _sigma(m, k - 1) for m in range(1, n)]
    if all(c.denominator == 1 for c in coeffs):
        return [int(c) for c in coeffs]
    return coeffs


@pytest.mark.parametrize("k", [*range(4, 61, 2), 600, 696, 998])
def test_eisenstein_matches_fraction_construction(k):
    # n = 10 for every weight, plus the background lane's order n_k + 1 and
    # the degenerate windows; ints exactly when -2k/B_k is an integer
    for n in sorted({1, 2, 10, k // 12 + 1}):
        got, want = eisenstein(k, n).coeffs, _eisenstein_fractions(k, n)
        assert got == want, (k, n)
        assert [type(c) for c in got] == [type(c) for c in want], (k, n)
    assert (type(eisenstein(k, 2).coeffs[1]) is int) == (k in (4, 6, 8, 10, 14))


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein(2, 5)
    with pytest.raises(ValueError):
        eisenstein(5, 5)


def test_euler_product_against_naive():
    n = 40
    assert euler_product(n).coeffs == _euler_product_naive(n)


def test_delta_against_naive_product():
    # oracle: naive (1-q^m)^24 product by plain list convolution
    n = 16
    p24 = _poly_pow(_euler_product_naive(n - 1), 24, n - 1)
    assert delta(n).coeffs == [0] + p24
    assert delta(4).coeffs == [0, 1, -24, 252]


def test_delta_matches_eisenstein_combination():
    n = 50
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert (e4**3 - e6**2) / 1728 == delta(n)


def test_j_invariant_leading_window():
    # oracle: long division of E4^3 by Delta with explicit Fraction lists
    n = 8
    e43 = (eisenstein(4, n + 1) ** 3).coeffs
    d = delta(n + 1).coeffs[1:]  # unit part of Delta
    quot = [Fraction(0)] * n
    rem = [Fraction(c) for c in e43]
    for i in range(n):
        quot[i] = rem[i] / d[0]
        for k in range(len(d)):
            if i + k < len(rem):
                rem[i + k] -= quot[i] * d[k]
    j = j_invariant(n)
    assert j.shift == -1
    for i in range(n):
        assert j.coefficient(i - 1) == quot[i]
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884


def test_j_times_delta_is_e4_cubed():
    n = 30
    prod = j_invariant(n) * delta(n + 1)
    e43 = eisenstein(4, n) ** 3
    assert prod.first_mismatch(e43, upto=n - 2) is None


def test_theta_Z_values():
    s = theta_Z(30)
    assert s.coeffs[:5] == [1, 2, 0, 0, 2]
    assert s.coefficient(9) == 2
    assert s.coefficient(16) == 2
    assert s.coefficient(25) == 2
    assert sum(1 for c in s.coeffs if c) == 6


def test_theta_Z_square_counts_lattice():
    # oracle: direct count of integer points with m^2 = e
    n = 50
    s = theta_Z(n)
    for e in range(n):
        count = sum(1 for m in range(-n, n + 1) if m * m == e)
        assert s.coefficient(e) == count


def test_theta_H_values():
    s = theta_H(12)
    assert s.coeffs[:5] == [1, 6, 0, 6, 6]
    assert s.coefficient(7) == 12


def test_theta_H_counts_lattice():
    # oracle: huge-box enumeration, box width independent of the one used
    # inside theta_H
    n = 40
    s = theta_H(n)
    counts = [0] * n
    for m in range(-n, n + 1):
        for k in range(-n, n + 1):
            e = m * m + m * k + k * k
            if e < n:
                counts[e] += 1
    assert s.coeffs == counts


def test_t3_expansion():
    assert t3(4).coeffs == [0, -108, 1620, -18468]
    assert t3(5).coefficient(4) == 181332
    assert t3(6).coefficient(5) == -1625832


def test_lambda_quotient_leading_terms():
    lam = lambda_eta_quotient(4)
    assert lam.coeffs == [0, 16, -128, 704]


def test_hauptmodul_relations():
    assert hauptmodul_mismatch("t3", 30) is None
    assert hauptmodul_mismatch("lambda", 30) is None
    assert hauptmodul_mismatch("t3", 5) is None
    with pytest.raises(ValueError):
        hauptmodul_mismatch("unknown", 20)
    with pytest.raises(ValueError):
        hauptmodul_mismatch("t3", 1)


def test_hauptmodul_mismatch_reporting():
    assert hauptmodul_mismatch("t3", 25) is None
    assert hauptmodul_mismatch("lambda", 25) is None
