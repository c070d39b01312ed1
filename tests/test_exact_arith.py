"""Tests for exact scalar arithmetic: rationals, Bernoulli, residues, the F_p
and F_{p^2} benchmark hooks and the tests' reference element class."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from theta_forms import curves, exact_arith
from theta_forms.exact_arith import (
    Fp,
    Fp2,
    bernoulli,
    cube_root_of_2,
    eisenstein_factor_mod,
    is_prime,
    least_nonresidue,
    legendre_symbols,
    padic_valuation,
    primes_in_range,
    rat_mod,
)

from field_ref import elements, euler, fp, fp2, nonresidue


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for m in range(i * i, limit + 1, i):
                sieve[m] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n], n


def test_primes_in_range():
    assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(24, 28) == []


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_sympy():
    for k in range(0, 200, 2):
        want = sympy.bernoulli(k)
        got = bernoulli(k)
        assert got.numerator == want.p and got.denominator == want.q, k


def test_bernoulli_rejects_odd():
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(7)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_denominator_von_staudt():
    # denominator of B_{p-1} is divisible by p for prime p
    for p in [5, 7, 11, 13, 17, 19, 23]:
        assert bernoulli(p - 1).denominator % p == 0


def _bernoulli_by_recurrence(limit):
    """B_0..B_limit from sum(C(n+1, j) * B_j, j = 0..n) = 0, in Fractions."""
    table = [Fraction(1)]
    for n in range(1, limit + 1):
        acc = sum(math.comb(n + 1, j) * table[j] for j in range(n))
        table.append(-acc / (n + 1))
    return table


def test_bernoulli_matches_recurrence():
    want = _bernoulli_by_recurrence(200)
    for k in range(0, 201, 2):
        got = bernoulli(k)
        assert type(got) is Fraction and got == want[k], k


def test_bernoulli_von_staudt_clausen_and_sign():
    # the denominator of B_k is the product of the primes p with (p - 1) | k,
    # and B_k has sign (-1)^(k/2 + 1)
    for k in range(2, 1001, 2):
        b = bernoulli(k)
        assert b.denominator == math.prod(p for p in primes_in_range(2, k + 1) if k % (p - 1) == 0), k
        assert (b > 0) == (k % 4 == 2), k


def test_bernoulli_order_independent(monkeypatch):
    tables = []
    for first, second in ((998, 4), (4, 998)):
        monkeypatch.setattr(exact_arith, "_BERNOULLI_CACHE", [])
        monkeypatch.setattr(exact_arith, "_TANGENT_COLUMN", [])
        bernoulli(first)
        bernoulli(second)
        tables.append([bernoulli(k) for k in range(0, 999, 2)])
    assert tables[0] == tables[1]
    # a cache swapped without its tangent column is rebuilt, not extended
    monkeypatch.setattr(exact_arith, "_BERNOULLI_CACHE", [])
    assert [bernoulli(k) for k in range(998, -1, -2)][::-1] == tables[0]


def _exact_factor(k, p):
    """-2k/B_k mod p reduced from the exact Bernoulli number, or "raises"."""
    try:
        return rat_mod(Fraction(-2 * k) / bernoulli(k), p)
    except ValueError:
        return "raises"


def _factor(k, p):
    try:
        return eisenstein_factor_mod(k, p)
    except ValueError as e:
        assert "divides a denominator" in str(e)
        return "raises"


def test_eisenstein_factor_mod_is_the_reduced_exact_factor_below_p():
    # every even k with k - 1 < p, where the factor comes from T_(k/2) mod p^2;
    # p divides the denominator exactly at the irregular pairs (p | B_k)
    raising = []
    for p in primes_in_range(2, 211):
        for k in range(2, p + 1, 2):
            want = _exact_factor(k, p)
            assert _factor(k, p) == want, (k, p)
            if want == "raises":
                raising.append((k, p))
    assert raising == [(32, 37), (44, 59), (58, 67), (68, 101), (24, 103),
                       (22, 131), (130, 149), (62, 157), (110, 157)]


def test_eisenstein_factor_mod_is_0_at_p_minus_1():
    # E_(p-1) = 1 mod p: 2^(p-1) - 1 carries one more p than T_((p-1)/2)
    for p in primes_in_range(3, 1000):
        assert _factor(p - 1, p) == _exact_factor(p - 1, p) == 0, p


def test_eisenstein_factor_mod_falls_back_where_p_squared_cannot_decide(monkeypatch):
    # 1093 is a Wieferich prime: 2^1092 - 1 = 0 mod 1093^2, so both
    # valuations may be 2 or more and the exact B_1092 is reduced instead
    k, p = 1092, 1093
    assert pow(4, k // 2, p * p) == 1
    monkeypatch.setattr(exact_arith, "_BERNOULLI_CACHE", [])
    monkeypatch.setattr(exact_arith, "_TANGENT_COLUMN", [])
    got = eisenstein_factor_mod(k, p)
    assert len(exact_arith._BERNOULLI_CACHE) == k // 2 + 1
    assert got == _exact_factor(k, p) == 0
    # and past k - 1 < p, where (k - 1)! is no unit mod p
    for k, p in ((12, 7), (20, 11), (26, 13)):
        assert eisenstein_factor_mod(k, p) == _exact_factor(k, p), (k, p)


def test_eisenstein_factor_mod_rejects_odd_or_small_weights():
    for k in (0, 3, -2):
        with pytest.raises(ValueError, match="weight"):
            eisenstein_factor_mod(k, 691)


def test_legendre_symbol_oracle():
    # oracle: enumerate squares directly; the tests' Euler criterion agrees
    for p in [5, 7, 11, 13, 101, 103]:
        squares = {x * x % p for x in range(1, p)}
        chi = legendre_symbols(p)
        for a in range(2 * p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert chi[a % p] == euler(a, p) == want, (a, p)


def test_legendre_symbols_table_checks_p_once(monkeypatch):
    for p in [3, 5, 7, 103, 991]:
        assert legendre_symbols(p) == [euler(t, p) for t in range(p)]
    for bad in (1, 2, 9, 91):
        with pytest.raises(ValueError, match="not an odd prime"):
            legendre_symbols(bad)
    checks = []
    check = exact_arith._check_odd_prime
    monkeypatch.setattr(exact_arith, "_check_odd_prime", lambda p: checks.append(p) or check(p))
    legendre_symbols(103)
    assert checks == [103]


def test_legendre_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([7, 11, 13, 103, 199])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        chi = legendre_symbols(p)
        assert chi[a * b % p] == chi[a] * chi[b]


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(Fraction(5, 8), 2) == -3
    assert padic_valuation(Fraction(-49, 3), 7) == 2
    assert padic_valuation(1, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 5)
    with pytest.raises(ValueError):
        padic_valuation(Fraction(0), 3)


def test_least_nonresidue():
    for p in [5, 7, 11, 13, 17, 103, 107, 199]:
        d = least_nonresidue(p)
        squares = {x * x % p for x in range(1, p)}
        assert d not in squares
        for smaller in range(2, d):
            assert smaller in squares
    for p in primes_in_range(3, 1000):
        assert least_nonresidue(p) == nonresidue(p), p
    with pytest.raises(ValueError, match="not an odd prime"):
        least_nonresidue(91)


def test_cube_root_of_2():
    for p in primes_in_range(5, 500):
        if p % 12 in (5, 11):
            r = cube_root_of_2(p)
            assert type(r) is int and pow(r, 3, p) == 2
            # oracle: unique by exhaustive cube search
            all_roots = [x for x in range(p) if pow(x, 3, p) == 2]
            assert all_roots == [r]
        elif p % 12 in (1, 7):
            with pytest.raises(ValueError):
                cube_root_of_2(p)


def test_cube_root_of_2_known():
    assert cube_root_of_2(5) == 3
    assert cube_root_of_2(11) == 7
    assert cube_root_of_2(17) == 8


# ---------------------------------------------------------------------------
# F_p: the reference element class of the tests and the benchmark hooks


def test_fp_basic_ops():
    a, b = fp(13, 7), fp(13, 9)
    assert (a + b).c0 == 3
    assert (a - b).c0 == 11
    assert (a * b).c0 == 63 % 13
    assert (a / b) * b == a
    assert (-a).c0 == 6
    assert a + 6 == 0
    assert 6 + a == 0
    assert 2 - a == fp(13, -5)
    assert (a**0).c0 == 1
    assert a ** (13 - 1) == 1
    assert a**-1 == a.inverse() == 1 / a
    assert a.residue() == 7


def test_fp_eq_hash_with_ints():
    # an int compares by its residue; elements stay out of sets, so no set
    # silently mixes them with ints
    assert fp(11, 8) == 8
    assert fp(11, 8) == 19
    assert fp(11, 4) != fp(11, 5)
    with pytest.raises(TypeError):
        hash(fp(11, 8))


def test_fp_modulus_mismatch():
    with pytest.raises(ValueError):
        fp(7, 1) + fp(11, 1)


def test_fp_zero_division():
    with pytest.raises(ZeroDivisionError):
        fp(7, 3) / fp(7, 0)
    with pytest.raises(ZeroDivisionError):
        fp(7, 0).inverse()


def test_fp_sqrt():
    # the hook's squares() table maps x^2 -> x; the hook's elements() are ints
    F = Fp(103)
    assert list(F.elements()) == list(range(103))
    for v in range(103):
        r = F.squares().get(v)
        if euler(v, 103) == -1:
            assert r is None
        else:
            assert r is not None and r * r % 103 == v
        assert fp(103, v).is_square() == (r is not None)


def test_fp_field_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (fp(101, rng.randrange(101)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if b:
            assert (a / b) * b == a


# ---------------------------------------------------------------------------
# F_{p^2}


def test_fp2_structure():
    K = Fp2(7)
    assert K.d == least_nonresidue(7) == nonresidue(7)
    w = fp2(7, 0, 1)
    assert w * w == K.d
    # the hook's pairs come in the grid order of the curve sweeps
    assert list(K.elements()) == list(zip(*(c.tolist() for c in curves._fp2_grid(7))))
    assert [z.residue() for z in elements(7, 2)] == list(K.elements())


def _frobenius(z):
    """Reference z^p: since w^p = -w, conjugation c0 - c1 w."""
    return fp2(z.p, z.c0, -z.c1)


def test_fp2_frobenius_and_norm():
    for p in [5, 7, 11, 23]:
        for z in elements(p, 2):
            assert _frobenius(z) == z**p
            assert z * _frobenius(z) == z.norm()
            assert z.norm() == (z ** (p + 1)).c0
            assert z.is_square() == (z ** ((p * p - 1) // 2) != -1)
            if z:
                assert z * z.inverse() == 1


def test_fp2_eq_hash_cross_type():
    # an F_p element is its own image in F_{p^2}: equal coefficients, equal
    # elements, and mixed arithmetic lands in F_{p^2}
    p = 11
    assert fp2(p, 4, 0) == fp(p, 4) == 4
    assert fp(p, 4) == fp2(p, 4, 0)
    assert fp2(p, 4, 1) != fp(p, 4)
    assert (fp(p, 3) * fp2(p, 0, 1)).residue() == (0, 3)
    assert (fp(p, 3) + fp2(p, 0)).deg == 2
    assert not fp(p, 2).is_square() and fp2(p, 2).is_square()
    with pytest.raises(TypeError):
        {fp2(p, 3, 0)}


def test_fp2_field_axioms_random():
    rng = random.Random(13)
    es = [fp2(23, rng.randrange(23), rng.randrange(23)) for _ in range(60)]
    for i in range(0, 57, 3):
        a, b, c = es[i], es[i + 1], es[i + 2]
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - b == -(b - a)
        if b:
            assert (a / b) * b == a


def test_fp2_sqrt():
    # the hook's squares() table maps z^2 -> z, as pairs
    K = Fp2(13)
    seen = 0
    for z in K.elements():
        r = K.squares().get(z)
        if r is not None:
            assert fp2(13, *r) * fp2(13, *r) == fp2(13, *z)
            seen += 1
        assert fp2(13, *z).is_square() == (r is not None)
    # squares in F_{p^2}*: exactly (p^2 - 1)/2, plus zero
    assert seen == (13**2 - 1) // 2 + 1


def test_fp2_pow_matches_repeated_mul():
    z = fp2(19, 3, 5)
    acc = fp2(19, 1)
    for e in range(1, 40):
        acc = acc * z
        assert z**e == acc
    assert z**-3 == (z**3).inverse()
