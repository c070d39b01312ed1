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
when k < p: ``eisenstein_factor_mod`` reads p B_k mod p^2 from Faulhaber's
sum of a^k over a = 1..p-1, and reduces the exact B_k only past that bound.

``series_inverse_mod`` and ``series_pow_mod`` are the package's one kernel
for truncated power series mod q on int64 arrays, where its int64 bound is
stated; ``fppoly`` and ``modforms`` use it.

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


# ---------------------------------------------------------------------------
# truncated power series mod q: int64 arrays of residues, lowest degree first


def _fits_int64(m: int, q: int) -> bool:
    """Whether products mod (x^m, q) are exact on int64 arrays: each
    ``np.convolve`` sum has at most m products of residues below q, so
    m q^2 < 2^63 suffices (an FFT convolution would round)."""
    return m * q * q < 2**63


def _series_residues(c, m: int, q: int) -> np.ndarray:
    """c[:m] zero-padded to m terms, once ``_fits_int64`` holds."""
    if not _fits_int64(m, q):
        raise ValueError(f"m q^2 = {m} * {q}^2 overflows int64 convolution sums")
    out = np.zeros(m, dtype=np.int64)
    out[: min(len(c), m)] = c[:m]
    return out


def series_inverse_mod(c, m: int, q: int) -> np.ndarray:
    """1/c mod (x^m, q) for residues c lowest degree first with c[0] = 1.

    Summed term by term to x^15, where that is cheaper than numpy's per-call
    cost, then doubled by Newton steps g <- g (2 - c g) (Brent and Kung, 1978).
    """
    c = _series_residues(c, m, q)
    head, g = c[:16].tolist(), [1]
    for i in range(1, min(m, 16)):
        g.append(-sum(map(mul, head[1 : i + 1], reversed(g))) % q)
    g = np.array(g[:m], dtype=np.int64)
    while len(g) < m:
        size = min(2 * len(g), m)
        e = -np.convolve(c[:size], g)[:size] % q
        e[0] += 2
        g = np.convolve(g, e)[:size] % q
    return g


def series_pow_mod(c, e: int, m: int, q: int) -> np.ndarray:
    """c^e mod (x^m, q) for residues c lowest degree first and e >= 0, by
    left-to-right squaring."""
    b = r = _series_residues(c, m, q)
    for bit in bin(e)[3:]:
        r = np.convolve(r, r)[:m] % q
        if bit == "1":
            r = np.convolve(r, b)[:m] % q
    return r if e else np.eye(1, m, dtype=np.int64)[0]


def eisenstein_factor_mod(k: int, p: int) -> int:
    """-2k/B_k mod p, the coefficient of q in E_k, for even k >= 2 and prime p.

    For an odd prime p, even k <= p - 1 and p^4 < 2^63 (p <= 55,108) it is
    read from Faulhaber's sum s = sum_(a=1..p-1) a^k = p B_k mod p^2, one
    square-and-multiply over the int64 array a = 1..p-1, exact since every
    product of residues stays below p^4.  The p-adic valuation of s decides:
    0 means p B_k is a p-unit, so p sits in B_k's denominator and the residue
    is 0 (k = p - 1: E_(p-1) = 1 mod p, computed rather than assumed, also at
    a Wieferich prime such as 1093); 1 gives -2k (s/p)^-1, since B_k = s/p
    mod p; s = 0 mod p^2 means p divides B_k, so p divides the denominator
    of -2k/B_k (ValueError, as ``rat_mod`` raises; the irregular pairs such
    as (32, 37)).  Otherwise the exact ``bernoulli`` is reduced.
    """
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    q = p * p
    if k < p and _fits_int64(1, q) and p % 2 and is_prime(p):
        a = r = np.arange(1, p, dtype=np.int64)
        for bit in bin(k)[3:]:
            r = r * r % q
            if bit == "1":
                r = r * a % q
        s = int(r.sum()) % q
        if s % p:
            return 0
        if not s:
            raise ValueError(f"p = {p} divides a denominator (-2k/B_k at k = {k})")
        return -2 * k * pow(s // p, -1, p) % p
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
    package calls these hooks; ROADMAP item 6 removes them with the tracer
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
    pairs (c0, c1) of ``elements()`` in c0-major order (c0 + c1 w at flat
    index c0 p + c1) and the root table of ``squares()``.  ROADMAP item 6
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
