"""Tests for exact scalar arithmetic: rationals, Bernoulli, F_p, F_{p^2}."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from theta_forms import exact_arith
from theta_forms.exact_arith import (
    Fp,
    Fp2,
    bernoulli,
    cube_root_of_2,
    is_prime,
    least_nonresidue,
    legendre_symbol,
    legendre_symbols,
    padic_valuation,
    primes_in_range,
)


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


def test_legendre_symbol_oracle():
    # oracle: enumerate squares directly
    for p in [5, 7, 11, 13, 101, 103]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(2 * p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre_symbol(a, p) == want, (a, p)


def test_legendre_symbols_table_checks_p_once(monkeypatch):
    for p in [3, 5, 7, 103, 991]:
        assert legendre_symbols(p) == [legendre_symbol(t, p) for t in range(p)]
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
        assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


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
# F_p


def test_fp_basic_ops():
    F = Fp(13)
    a, b = F.elem(7), F.elem(9)
    assert (a + b).value == 3
    assert (a - b).value == 11
    assert (a * b).value == 63 % 13
    assert (a / b) * b == a
    assert (-a).value == 6
    assert a + 6 == 0
    assert 6 + a == 0
    assert 2 - a == F.elem(-5)
    assert (a**0).value == 1
    assert a ** (13 - 1) == 1
    assert a**-1 == a.inverse()
    assert int(a) == 7


def test_fp_eq_hash_with_ints():
    F = Fp(11)
    assert F.elem(8) == 8
    assert F.elem(8) == 19
    assert hash(F.elem(8)) == hash(8)
    assert {F.elem(3), 3} == {3}
    assert F.elem(4) != F.elem(5)


def test_fp_modulus_mismatch():
    with pytest.raises(ValueError):
        Fp(7).elem(1) + Fp(11).elem(1)


def test_fp_zero_division():
    F = Fp(7)
    with pytest.raises(ZeroDivisionError):
        F.elem(3) / F.zero
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_fp_sqrt():
    # square roots come from the squares() table: x^2 -> x
    F = Fp(103)
    for v in range(103):
        r = F.squares().get(v)
        if legendre_symbol(v, 103) == -1:
            assert r is None
        else:
            assert r is not None and r * r % 103 == v
    assert F.elem(2).is_square() == (legendre_symbol(2, 103) == 1)


def test_fp_field_axioms_random():
    rng = random.Random(11)
    F = Fp(101)
    for _ in range(200):
        a = F.elem(rng.randrange(101))
        b = F.elem(rng.randrange(101))
        c = F.elem(rng.randrange(101))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if b:
            assert (a / b) * b == a


# ---------------------------------------------------------------------------
# F_{p^2}


def test_fp2_structure():
    K = Fp2(7)
    assert K.d == least_nonresidue(7)
    w = K.elem(0, 1)
    assert w * w == K.d
    assert K.order() == 49


def _frobenius(z):
    """Reference z^p: since w^p = -w, conjugation c0 - c1 w."""
    return z.field.elem(z.c0, -z.c1)


def test_fp2_frobenius_and_norm():
    for p in [5, 7, 11, 23]:
        K = Fp2(p)
        for z in K.elements():
            assert _frobenius(z) == z**p
            assert z * _frobenius(z) == K.elem(int(z.norm()))
            assert z.norm() == (z ** (p + 1)).c0
            if z:
                assert z * z.inverse() == 1


def test_fp2_eq_hash_cross_type():
    p = 11
    K, F = Fp2(p), Fp(p)
    assert K.elem(4, 0) == F.elem(4)
    assert K.elem(4, 0) == 4
    assert F.elem(4) == K.elem(4, 0)
    assert hash(K.elem(4, 0)) == hash(F.elem(4)) == hash(4)
    assert K.elem(4, 1) != F.elem(4)
    assert {K.elem(3, 0), F.elem(3), 3} == {3}


def test_fp2_field_axioms_random():
    rng = random.Random(13)
    K = Fp2(23)
    es = [K.elem(rng.randrange(23), rng.randrange(23)) for _ in range(60)]
    for i in range(0, 57, 3):
        a, b, c = es[i], es[i + 1], es[i + 2]
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - b == -(b - a)
        if b:
            assert (a / b) * b == a


def test_fp2_sqrt():
    # square roots come from the squares() table: z^2 -> z, as pairs
    K = Fp2(13)
    seen = 0
    for z in K.elements():
        r = K.squares().get((z.c0, z.c1))
        if r is not None:
            assert K.elem(*r) * K.elem(*r) == z
            seen += 1
    # squares in F_{p^2}*: exactly (p^2 - 1)/2, plus zero
    assert seen == (13**2 - 1) // 2 + 1


def test_fp2_pow_matches_repeated_mul():
    K = Fp2(19)
    z = K.elem(3, 5)
    acc = K.one
    for e in range(1, 40):
        acc = acc * z
        assert z**e == acc
    assert z**-3 == (z**3).inverse()
