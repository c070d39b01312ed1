"""Exact rational and finite-field scalar arithmetic.

Every computation here is exact: rationals are arbitrary-precision
`fractions.Fraction` values (aliased as `Rat`), and finite-field values are
plain residues: an int for F_p and a pair (c0, c1) for c0 + c1 w in
F_{p^2} = F_p[w]/(w^2 - d), where d is the least quadratic non-residue mod p
(``least_nonresidue``), so the representation is deterministic and
reproducible across runs.  ``fp2_str`` writes a pair as 7, 3w or 2+5w.

Beside primes, Bernoulli numbers and the residue helpers, the module keeps
``FpField``/``Fp2Field`` (built by ``Fp``/``Fp2``) only as the hooks the
benchmark's layer tracer wraps; no module of the package calls them.

Exact Bernoulli numbers come from the integer tangent-number table
(``bernoulli``).  The Eisenstein factor -2k/B_k mod p needs no such table
when k - 1 < p: ``eisenstein_factor_mod`` reads the tangent number T_(k/2)
mod p^2 from a Newton inverse of cos on int64 arrays, and reduces the exact
B_k only past that bound or where p^2 cannot decide.

Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

Rat = Fraction

# ---------------------------------------------------------------------------
# primes


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (desk-scale n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")


# ---------------------------------------------------------------------------
# Bernoulli numbers

# _BERNOULLI_CACHE[i] = B_(2i).  _TANGENT_COLUMN[s - 1] is stage s of the
# tangent-number recurrence at index m = len(_TANGENT_COLUMN), the last column
# the table was extended by; it is all the next column needs.
_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]
_TANGENT_COLUMN: list[int] = []


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, from integer tangent numbers.

    Brent and Harvey (2011) compute the tangent numbers T_1..T_m in place
    from T[j] = (j-1)!: for stages s = 2..m and j = s..m,
    T[j] = (j-s) T[j-1] + (j-s+2) T[j].  Then
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)), one Fraction per entry and
    integers everywhere else.  The table is extended one column j at a time,
    so a miss computes only the missing entries and rising indices never
    recompute it.  Only even k (and k in {0, 1}) are meaningful here; odd
    k > 1 is rejected rather than silently returning 0.
    """
    if k < 0:
        raise ValueError("negative index")
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        raise ValueError(f"odd Bernoulli index {k} rejected (value would be 0)")
    cache, column = _BERNOULLI_CACHE, _TANGENT_COLUMN
    if len(cache) <= k // 2 and len(column) != len(cache) - 1:
        cache[:] = [Fraction(1)]
        column.clear()
    while len(cache) <= k // 2:
        m = len(cache)
        column.append(0)
        t = (m - 1) * column[0] if m > 1 else 1
        column[0] = t
        for s in range(2, m + 1):
            t = (m - s) * column[s - 1] + (m - s + 2) * t
            column[s - 1] = t
        four = 4**m
        b = Fraction(2 * m * t, four * (four - 1))
        cache.append(b if m % 2 else -b)
    return cache[k // 2]


def _tangent_mod(m: int, q: int) -> int:
    """T_m mod q = (2m-1)! [x^(2m-1)] sin x / cos x, for q with (2m-1)! a unit.

    In y = x^2, tan x = x S(y)/C(y) with C = sum (-1)^j y^j/(2j)! and
    S = sum (-1)^j y^j/(2j+1)!, so T_m/(2m-1)! is [y^(m-1)] S/C.  The inverse
    factorials come from one modular inverse.  1/C mod y^m is summed term by
    term to y^15, where that is cheaper than numpy's per-call cost, then
    doubled by Newton steps g <- g (2 - C g) with ``np.convolve`` on int64
    arrays; each convolution sum has at most m products of residues below q,
    so it is exact while m q^2 < 2^63.
    """
    n = 2 * m
    fact = 1
    for j in range(2, n):
        fact = fact * j % q
    inv = [0] * n
    inv[-1] = f = pow(fact, -1, q)
    for j in range(n - 1, 0, -1):
        f = f * j % q
        inv[j - 1] = f
    signed = [q - x if j & 2 else x for j, x in enumerate(inv)]  # x^(2i), x^(2i+1) for odd i
    cos, sin = signed[0::2], signed[1::2]
    g = [1]
    for i in range(1, min(m, 16)):
        g.append(-sum(map(mul, cos[1 : i + 1], reversed(g))) % q)
    if len(g) < m:
        c, g = np.array(cos, dtype=np.int64), np.array(g, dtype=np.int64)
        while len(g) < m:
            size = min(2 * len(g), m)
            e = -np.convolve(c[:size], g)[:size] % q
            e[0] += 2
            g = np.convolve(g, e)[:size] % q
        g = g.tolist()
    return sum(map(mul, sin, reversed(g))) % q * fact % q


def _valuation_below_2(x: int, p: int) -> int:
    """nu_p(x) read from x mod p^2: 0, 1, or 2 for "at least 2"."""
    return 0 if x % p else 1 if x else 2


def eisenstein_factor_mod(k: int, p: int) -> int:
    """-2k/B_k mod p, the coefficient of q in E_k, for even k >= 2 and prime p.

    With m = k/2 and T_m the m-th tangent number,
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)), so
    -2k/B_k = (-1)^m 2 4^m (4^m - 1) / T_m, where 2 4^m is a unit.  For
    k - 1 < p, T_m and 4^m - 1 are read mod p^2 (``_tangent_mod``) and their
    p-adic valuations compared: p divides the denominator of -2k/B_k
    (ValueError, as ``rat_mod`` raises) when T_m has the larger one, the
    residue is 0 when 4^m - 1 has it (k = p - 1: E_(p-1) = 1 mod p), and the
    unit quotient otherwise.  When either valuation reaches 2 (undecidable
    mod p^2; 4^m - 1 at k = p - 1 for a Wieferich prime such as 1093), when
    k - 1 >= p, or when p^4 m reaches 2^63, the exact ``bernoulli`` is
    reduced instead.
    """
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    m = k // 2
    if k - 1 < p and p**4 * m < 2**63 and p % 2 and is_prime(p):
        q = p * p
        t = _tangent_mod(m, q)
        f = pow(4, m, q) - 1
        vt, vf = _valuation_below_2(t, p), _valuation_below_2(f, p)
        if vt < 2 and vf < 2:
            if vt > vf:
                raise ValueError(f"p = {p} divides a denominator (-2k/B_k at k = {k})")
            if vt < vf:
                return 0
            r = 2 * (f + 1) * (f // p**vf) * pow(t // p**vt, -1, p) % p
            return -r % p if m % 2 else r
    return rat_mod(Fraction(-2 * k) / bernoulli(k), p)


# ---------------------------------------------------------------------------
# residue helpers


def legendre_symbols(p: int) -> list[int]:
    """(t/p) for t = 0..p-1, with p checked once rather than per symbol.

    The nonzero squares mod p are x^2 for x = 1..(p-1)/2, since x and -x
    square alike; every other nonzero t is a non-residue.
    """
    _check_odd_prime(p)
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p - 1) // 2 + 1):
        chi[x * x % p] = 1
    return chi


def padic_valuation(x: Fraction | int, p: int) -> int:
    """nu_p(x) for a nonzero rational x: nu_p(num) - nu_p(den)."""
    if x == 0:
        raise ValueError("valuation of 0 is +infinity")
    x = Fraction(x)
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rat_mod(x: Fraction | int, p: int) -> int:
    """Reduce a rational mod p: num * den^{-1} mod p.

    Raises ValueError when p divides the denominator (the value is not
    p-integral, so no residue exists).
    """
    if isinstance(x, int):
        return x % p
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(f"p = {p} divides a denominator ({x})")
    return num * pow(den, -1, p) % p


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod p."""
    return legendre_symbols(p).index(-1)


def cube_root_of_2(p: int) -> int:
    """The unique cube root of 2 in F_p, for p = 5 or 11 mod 12, as a residue.

    In those residue classes gcd(3, p-1) = 1, so cubing is a bijection on F_p
    and the root is 2^(3^{-1} mod (p-1)).
    """
    _check_odd_prime(p)
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} has p = 1 mod 3; cube root of 2 is not unique")
    return pow(2, pow(3, -1, p - 1), p)


# ---------------------------------------------------------------------------
# benchmark hooks


class FpField:
    """F_p as the benchmark's layer tracer sees it: ``p``, the ints 0..p-1 of
    ``elements()`` and the root table of ``squares()``.  No module of the
    package calls these hooks; ROADMAP item 1 removes them with the tracer
    change.  Construct via Fp(p)."""

    __slots__ = ("p", "_sqrt_table")

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"field characteristic must be a prime >= 5, got {p}")
        self.p = p
        self._sqrt_table = None

    def elements(self):
        return iter(range(self.p))

    def squares(self) -> dict[int, int]:
        """Map x^2 -> x over F_p (one representative root per square)."""
        if self._sqrt_table is None:
            p = self.p
            self._sqrt_table = {x * x % p: x for x in range((p + 1) // 2, -1, -1)}
        return self._sqrt_table


class Fp2Field(FpField):
    """F_{p^2} = F_p[w]/(w^2 - d) as the tracer sees it: ``p``, ``d``, the
    pairs (c0, c1) of ``elements()`` in the c0-major grid order of
    ``curves._fp2_grid`` and the root table of ``squares()``.  ROADMAP item 1
    removes these hooks with the tracer change.  Construct via Fp2(p)."""

    __slots__ = ("d",)

    def __init__(self, p: int):
        super().__init__(p)
        self.d = least_nonresidue(p)

    def elements(self):
        return ((c0, c1) for c0 in range(self.p) for c1 in range(self.p))

    def squares(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Map z^2 -> z over all of F_{p^2}, as pairs.  Built once, O(p^2) entries."""
        if self._sqrt_table is None:
            p, d = self.p, self.d
            # descending, so the root kept for each square is the first in grid order
            down = range(p - 1, -1, -1)
            self._sqrt_table = {
                ((a * a + d * b * b) % p, 2 * a * b % p): (a, b) for a in down for b in down
            }
        return self._sqrt_table


Fp = lru_cache(maxsize=None)(FpField)
Fp2 = lru_cache(maxsize=None)(Fp2Field)


def fp2_str(z: tuple[int, int]) -> str:
    """c0 + c1 w given as the pair (c0, c1), written 7, 3w or 2+5w."""
    c0, c1 = z
    return f"{c0}" if c1 == 0 else f"{c1}w" if c0 == 0 else f"{c0}+{c1}w"
