"""Tests for F_p polynomial algebra: gcd, splitting, patterns, power sums."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from theta_forms.exact_arith import least_nonresidue
from theta_forms.fppoly import (
    FpPoly,
    _distinct_degree_counts,
    _pow_mod,
    _reversed_inverse,
    factor_pattern,
    gcd,
    is_reciprocal,
    is_squarefree,
    power_sums,
    reduce_poly,
    roots_brute,
    roots_fp2_brute,
    splits_into_linears,
    splits_over_fp2,
)
from theta_forms.modforms import RatPoly, pf_polynomial
from theta_forms.qseries import theta_H, theta_Z

from field_ref import fp2


def _poly_from_roots(roots, p):
    f = FpPoly([1], p)
    for r in roots:
        f = f * FpPoly([-r, 1], p)
    return f


def _total_degree(pat):
    return sum(d * m * cnt for (d, m), cnt in pat.pairs)


def _random_poly(rng, p, deg):
    coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return FpPoly(coeffs, p)


# ---------------------------------------------------------------------------
# basics


def test_normalization():
    f = FpPoly([1, 2, 0, 0], 5)
    assert f.coeffs == [1, 2]
    assert f.degree == 1
    assert FpPoly([0, 0], 5).is_zero()
    assert FpPoly([5, 10], 5).is_zero()


def test_divmod_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        p = rng.choice([5, 7, 101])
        f = _random_poly(rng, p, rng.randrange(1, 9))
        g = _random_poly(rng, p, rng.randrange(1, 5))
        q, r = divmod(f, g)
        assert q * g == f - r
        assert r.degree < g.degree


def test_mul_matches_long_multiplication():
    rng = random.Random(19)
    p = 97
    a = _random_poly(rng, p, 80)
    b = _random_poly(rng, p, 75)
    naive = [0] * (a.degree + b.degree + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            naive[i + j] = (naive[i + j] + ai * bj) % p
    assert (a * b).coeffs == naive


def test_reduce_poly():
    r = RatPoly([Fraction(1, 2), 3, Fraction(-2, 3)])
    f = reduce_poly(r, 7)
    assert f.coeffs == [4, 3, 4]
    assert reduce_poly(RatPoly([]), 7).is_zero()
    with pytest.raises(ValueError, match="denominator"):
        reduce_poly(RatPoly([Fraction(1, 7)]), 7)


def test_reduce_poly_weight52_roots():
    f = reduce_poly(pf_polynomial(theta_Z(6), 52), 103)
    assert roots_brute(f) == {58, 89, 93, 97}


def test_gcd_basics():
    p = 7
    f = _poly_from_roots([1, 2], p)
    g = _poly_from_roots([2, 3], p)
    assert gcd(f, g) == FpPoly([-2, 1], p)
    assert gcd(f, FpPoly([], p)) == f.monic()
    assert gcd(FpPoly([], p), FpPoly([], p)).is_zero()
    h = f * 3
    assert gcd(h, h) == f.monic()


# ---------------------------------------------------------------------------
# splitting


def test_splits_into_linears():
    p = 103
    f = _poly_from_roots([58, 89, 93, 97], p)
    assert splits_into_linears(f)
    d = [x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1][0]
    g = FpPoly([-d, 0, 1], p)
    assert not splits_into_linears(g)


def test_splitting_tests_reject_nonsquarefree():
    p = 11
    f = _poly_from_roots([3, 3], p)
    with pytest.raises(ValueError, match="squarefree"):
        splits_into_linears(f)
    with pytest.raises(ValueError, match="squarefree"):
        splits_over_fp2(f)
    # a p-th power has zero derivative; the factor pattern still sees it
    g = _poly_from_roots([2] * p + [5], p)
    with pytest.raises(ValueError, match="squarefree"):
        splits_over_fp2(g)


def test_splits_over_fp2():
    p = 11
    d = [x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1][0]
    quad = FpPoly([-d, 0, 1], p)  # irreducible quadratic
    assert splits_over_fp2(quad)
    lin = _poly_from_roots([1, 5], p)
    assert splits_over_fp2(lin)
    # an irreducible cubic cannot split over F_{p^2}
    cubic = None
    for c0 in range(p):
        cand = FpPoly([c0, 1, 0, 1], p)
        if factor_pattern(cand).pairs == (((3, 1), 1),):
            cubic = cand
            break
    assert cubic is not None
    assert not splits_over_fp2(cubic)


def test_x_to_p_minus_x_roots():
    p = 13
    coeffs = [0] * (p + 1)
    coeffs[1] = -1
    coeffs[p] = 1
    f = FpPoly(coeffs, p)
    assert roots_brute(f) == set(range(p))
    assert factor_pattern(f).pairs == (((1, 1), p),)
    assert splits_into_linears(f)


# ---------------------------------------------------------------------------
# factor patterns


def test_factor_pattern_known_shapes():
    p = 11
    f = _poly_from_roots([1, 2, 3], p)
    assert factor_pattern(f).pairs == (((1, 1), 3),)
    d = [x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1][0]
    quad = FpPoly([-d, 0, 1], p)
    assert factor_pattern(quad).pairs == (((2, 1), 1),)
    sq = _poly_from_roots([4, 4, 7], p)
    assert factor_pattern(sq).pairs == (((1, 1), 1), ((1, 2), 1))


def test_factor_pattern_pth_power():
    p = 5
    f = _poly_from_roots([2] * p, p)  # (x-2)^5 has zero derivative
    assert factor_pattern(f).pairs == (((1, p), 1),)
    g = _poly_from_roots([2] * p + [3], p)
    assert factor_pattern(g).pairs == (((1, 1), 1), ((1, p), 1))


def test_factor_pattern_reconstruction_random():
    # oracle: build f from known random factors, check the recovered pattern
    rng = random.Random(31)
    for _ in range(30):
        p = rng.choice([5, 7, 13])
        roots = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
        f = _poly_from_roots(roots, p)
        pat = factor_pattern(f)
        assert _total_degree(pat) == f.degree
        want = Counter(Counter(roots).values())
        got = Counter(m for (d, m), cnt in pat.pairs for _ in range(cnt) if d == 1)
        assert got == Counter({m: c for m, c in want.items()})
        assert pat.degrees() == {1}


def test_factor_pattern_total_degree_random():
    rng = random.Random(37)
    for _ in range(40):
        p = rng.choice([5, 7, 101])
        f = _random_poly(rng, p, rng.randrange(1, 9))
        pat = factor_pattern(f)
        assert _total_degree(pat) == f.degree
        assert len(roots_brute(f)) == sum(
            cnt for (d, _m), cnt in pat.pairs if d == 1
        )


def test_factor_pattern_agrees_with_fp2_split():
    rng = random.Random(41)
    for _ in range(30):
        p = rng.choice([5, 7, 13])
        f = _random_poly(rng, p, rng.randrange(1, 7))
        if not is_squarefree(f):
            continue
        fits = all(d in (1, 2) for d in factor_pattern(f).degrees())
        assert splits_over_fp2(f) == fits


def test_weight_108_pattern_mod_107():
    f = reduce_poly(pf_polynomial(theta_H(11), 108), 107)
    pat = factor_pattern(f)
    assert pat.pairs == (((1, 1), 1), ((2, 1), 4))
    assert splits_over_fp2(f)
    assert not splits_into_linears(f)
    assert roots_brute(f) == {-16 % 107}


def test_factor_pattern_rejects_p_beyond_bound():
    assert factor_pattern(FpPoly([1, 0, 1], 9973)).pairs == (((1, 1), 2),)  # 9973 = 1 mod 4
    with pytest.raises(ValueError, match="10\\^4"):
        factor_pattern(FpPoly([1, 0, 1], 10007))


# ---------------------------------------------------------------------------
# Frobenius powering: the int64 array kernel against schoolbook FpPoly powering


def _pow_poly_mod(base: FpPoly, e: int, f: FpPoly) -> FpPoly:
    """base^e mod f by right-to-left squaring of FpPoly products and divmods."""
    result = FpPoly([1], f.p)
    base = base % f
    while e:
        if e & 1:
            result = (result * base) % f
        base = (base * base) % f
        e >>= 1
    return result


def _random_monic(rng, p, deg):
    return FpPoly([rng.randrange(p) for _ in range(deg)] + [1], p)


@pytest.mark.parametrize("p", [5, 7, 983, 9973])
def test_pow_mod_matches_schoolbook(p):
    rng = random.Random(p)
    for deg in sorted({2, 3, 4, 7, 16, 33, 57, 64, 120, *rng.sample(range(2, 121), 6)}):
        g = _random_monic(rng, p, deg)
        ginv = _reversed_inverse(g)
        for e in (p, 0, 1, 2, rng.randrange(3, p * p)):
            base = _random_poly(rng, p, rng.randrange(deg)) if rng.random() < 0.8 else FpPoly.x(p)
            assert _pow_mod(base, e, g, ginv) == _pow_poly_mod(base, e, g), (p, deg, e)


@pytest.mark.parametrize("p", [5, 7, 983, 9973])
def test_reversed_inverse_is_the_series_inverse(p):
    rng = random.Random(7 * p)
    for deg in (1, 2, 3, 5, 8, 17, 120):
        g = _random_monic(rng, p, deg)
        h = _reversed_inverse(g)
        assert len(h) == deg - 1
        prod = g.reverse() * FpPoly(h.tolist(), p)
        assert [prod.coefficient(i) for i in range(deg - 1)] == [1, *[0] * deg][: deg - 1]


def test_pow_mod_after_the_modulus_shrinks():
    # as in _distinct_degree_counts: x^(p^d) mod g, then g // cand with a fresh inverse
    rng = random.Random(59)
    for p in (5, 7, 983, 9973):
        linear = _poly_from_roots(rng.sample(range(p), 4), p)
        rest = _random_monic(rng, p, 30)
        g = (linear * rest).monic()
        frob = _pow_mod(FpPoly.x(p), p, g, _reversed_inverse(g))
        assert frob == _pow_poly_mod(FpPoly.x(p), p, g)
        cand = gcd(g, frob - FpPoly.x(p))
        assert cand.degree >= 4
        g = g // cand
        want = _pow_poly_mod(frob, p, g)
        assert _pow_mod(frob % g, p, g, _reversed_inverse(g)) == want
        assert want == _pow_poly_mod(FpPoly.x(p), p * p, g)


def test_distinct_degree_counts_of_known_products():
    # irreducible pieces of degrees 1, 1, 2, 3 and 5 mod 7: the modulus shrinks at d = 1, 2, 3
    p = 7
    parts = {1: [FpPoly([1, 1], p), FpPoly([2, 1], p)]}
    rng = random.Random(3)
    for deg in (2, 3, 5):
        while True:
            f = _random_monic(rng, p, deg)
            if factor_pattern(f).pairs == (((deg, 1), 1),):
                parts[deg] = [f]
                break
    s = FpPoly([1], p)
    for fs in parts.values():
        for f in fs:
            s = s * f
    assert _distinct_degree_counts(s) == Counter({1: 2, 2: 1, 3: 1, 5: 1})


# ---------------------------------------------------------------------------
# power sums


def test_power_sums_two_roots():
    p = 13
    a, b = 4, 11
    f = _poly_from_roots([a, b], p)
    s = power_sums(f, 4)
    assert s[0] == 2
    assert s[1] == (a + b) % p
    assert s[2] == (a * a + b * b) % p
    assert s[3] == (a**3 + b**3) % p
    assert s[4] == (a**4 + b**4) % p


def test_power_sums_with_multiplicity():
    p = 7
    f = _poly_from_roots([3, 3, 5], p)
    s = power_sums(f, 3)
    assert s[0] == 3
    assert s[1] == (3 + 3 + 5) % p
    assert s[2] == (9 + 9 + 25) % p
    assert s[3] == (27 + 27 + 125) % p


def test_power_sums_nonmonic_scaling_invariance():
    p = 11
    f = _poly_from_roots([2, 6, 9], p)
    assert power_sums(f, 6) == power_sums(f * 5, 6)


def test_newton_consistency_random():
    rng = random.Random(43)
    checked = 0
    while checked < 12:
        p = rng.choice([5, 7, 13])
        f = _random_poly(rng, p, rng.randrange(1, 5))
        if not is_squarefree(f) or not splits_over_fp2(f):
            continue
        # squarefree and split over F_{p^2}: the scan finds every root once
        roots = [fp2(p, *z) for z in roots_fp2_brute(f)]
        v_max = 2 * f.degree + 3
        sums = power_sums(f, v_max)
        for v in range(v_max + 1):
            acc = fp2(p, 0)
            for r in roots:
                acc = acc + r**v
            assert acc == sums[v], (f, v)
        checked += 1


def test_evaluate_over_fp_and_fp2():
    p = 7
    d = least_nonresidue(p)
    f = FpPoly([-d, 0, 1], p)  # x^2 - d
    assert f.evaluate(3) == (9 - d) % p
    assert f.evaluate(3) == f.evaluate(3 + p)
    assert f.evaluate((0, 1)) == (0, 0)
    assert f.evaluate((1, 1)) == (1, 2)
    assert FpPoly([], p).evaluate((2, 3)) == (0, 0)
    assert FpPoly([], p).evaluate(2) == 0


def test_evaluate_at_fp_points_matches_fp2_embedding():
    # the plain-int Horner path agrees with evaluation at the embedded F_{p^2}
    # point, and the pair path with Horner's rule on El objects
    rng = random.Random(5)
    for p in (5, 11, 103):
        for deg in (0, 1, 4, 9):
            f = _random_poly(rng, p, deg)
            for x in range(-p, p):
                got = f.evaluate(x)
                assert type(got) is int and 0 <= got < p
                assert (got, 0) == f.evaluate((x % p, 0))
            for _ in range(20):
                z = fp2(p, rng.randrange(p), rng.randrange(p))
                acc = fp2(p, 0)
                for c in reversed(f.coeffs):
                    acc = acc * z + c
                assert f.evaluate(z.residue()) == acc.residue()


def test_roots_fp2_brute():
    p = 7
    d = least_nonresidue(p)
    f = FpPoly([-d, 0, 1], p)  # x^2 - d = (x-w)(x+w)
    roots = roots_fp2_brute(f)
    assert roots == {(0, 1), (0, p - 1)}
    with pytest.raises(ValueError):
        roots_fp2_brute(FpPoly([1, 1], 503))
    with pytest.raises(ValueError):
        roots_fp2_brute(FpPoly([0], p))


# ---------------------------------------------------------------------------
# reciprocal test


def test_is_reciprocal():
    p = 7
    assert is_reciprocal(FpPoly([1, 6, 1], p))
    assert is_reciprocal(FpPoly([3, 4, 3], p))  # scalar multiple of palindrome
    assert not is_reciprocal(FpPoly([2, 1, 1], p))
    with pytest.raises(ValueError):
        is_reciprocal(FpPoly([0, 1, 1], p))


def test_is_reciprocal_matches_reversal_identity():
    rng = random.Random(47)
    for _ in range(40):
        p = rng.choice([5, 11])
        f = _random_poly(rng, p, rng.randrange(1, 6))
        if f.coefficient(0) == 0:
            continue
        want = f.monic() == f.reverse().monic()
        assert is_reciprocal(f) == want
