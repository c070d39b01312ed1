"""Exact rational and finite-field scalar arithmetic.

Every computation in this package is exact: rationals are arbitrary-precision
`fractions.Fraction` values (aliased as `Rat`), and finite-field elements are
residues carried together with their modulus.  F_{p^2} is realized as
F_p[w]/(w^2 - d) where d is the least quadratic non-residue mod p, so the
representation is deterministic and reproducible across runs.

The verification lanes carry field values as plain residues: an int for
F_p and a pair (c0, c1) for c0 + c1 w in F_{p^2} (``fp2_str`` writes one).
No module of the package builds the element objects ``FpElem`` and
``Fp2Elem``; they remain as the reference arithmetic of the tests.

Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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
# residue helpers


def _euler_criterion(a: int, p: int) -> int:
    """a^((p-1)/2) mod p mapped onto {-1, 0, 1}, for p already known to be an odd prime."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion a^((p-1)/2) mod p, mapped onto {-1, 0, 1}."""
    _check_odd_prime(p)
    return _euler_criterion(a, p)


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
    _check_odd_prime(p)
    for d in range(2, p):
        if _euler_criterion(d, p) == -1:
            return d
    raise ValueError(f"no non-residue found mod {p}")  # unreachable for p >= 3


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
# F_p


class FpField:
    """The prime field F_p.  Construct via Fp(p) to share square-root tables."""

    __slots__ = ("p", "_sqrt_table")

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"field characteristic must be a prime >= 5, got {p}")
        self.p = p
        self._sqrt_table: dict[int, int] | None = None

    def elem(self, v: int | "FpElem") -> "FpElem":
        if isinstance(v, FpElem):
            if v.field.p != self.p:
                raise ValueError("modulus mismatch")
            return v
        return FpElem(int(v) % self.p, self)

    @property
    def zero(self) -> "FpElem":
        return FpElem(0, self)

    @property
    def one(self) -> "FpElem":
        return FpElem(1, self)

    def elements(self):
        for v in range(self.p):
            yield FpElem(v, self)

    def order(self) -> int:
        return self.p

    def squares(self) -> dict[int, int]:
        """Map x^2 -> x over F_p (one representative root per square)."""
        if self._sqrt_table is None:
            t: dict[int, int] = {}
            for x in range((self.p + 1) // 2, -1, -1):
                t[x * x % self.p] = x
            self._sqrt_table = t
        return self._sqrt_table

    def __eq__(self, other):
        return isinstance(other, FpField) and other.p == self.p

    def __hash__(self):
        return hash(("FpField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


@lru_cache(maxsize=None)
def Fp(p: int) -> FpField:
    return FpField(p)


class FpElem:
    """A residue mod p.  Immutable; mixes freely with Python ints."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: FpField):
        self.value = value
        self.field = field

    @property
    def p(self) -> int:
        return self.field.p

    def _coerce(self, other):
        if isinstance(other, FpElem):
            if other.field.p != self.field.p:
                raise ValueError("modulus mismatch")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElem((self.value + v) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElem((self.value - v) % self.field.p, self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElem((v - self.value) % self.field.p, self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElem(self.value * v % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElem(-self.value % self.field.p, self.field)

    def inverse(self) -> "FpElem":
        if self.value == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return FpElem(pow(self.value, -1, self.field.p), self.field)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by 0 in F_p")
        return FpElem(self.value * pow(v, -1, self.field.p) % self.field.p, self.field)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FpElem(pow(self.value, e, self.field.p), self.field)

    def is_square(self) -> bool:
        return self.value in self.field.squares()

    def __eq__(self, other):
        if isinstance(other, FpElem):
            return other.field.p == self.field.p and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        if isinstance(other, Fp2Elem):
            return other == self
        return NotImplemented

    def __hash__(self):
        # hash matches the plain integer so {FpElem(3), 3} collapses;
        # sets in this package never mix moduli.
        return hash(self.value)

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


# ---------------------------------------------------------------------------
# F_{p^2}


class Fp2Field:
    """F_{p^2} = F_p[w]/(w^2 - d), d the least quadratic non-residue mod p."""

    __slots__ = ("p", "d", "_sqrt_table")

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"field characteristic must be a prime >= 5, got {p}")
        self.p = p
        self.d = least_nonresidue(p)
        self._sqrt_table: dict[tuple[int, int], tuple[int, int]] | None = None

    def elem(self, c0: int | FpElem, c1: int | FpElem = 0) -> "Fp2Elem":
        return Fp2Elem(int(c0) % self.p, int(c1) % self.p, self)

    @property
    def zero(self) -> "Fp2Elem":
        return self.elem(0)

    @property
    def one(self) -> "Fp2Elem":
        return self.elem(1)

    def elements(self):
        for c0 in range(self.p):
            for c1 in range(self.p):
                yield Fp2Elem(c0, c1, self)

    def order(self) -> int:
        return self.p * self.p

    def squares(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Map z^2 -> z over all of F_{p^2}.  Built once, O(p^2) entries."""
        if self._sqrt_table is None:
            p, d = self.p, self.d
            t: dict[tuple[int, int], tuple[int, int]] = {}
            for a in range(p):
                aa = a * a % p
                for b in range(p):
                    t.setdefault(((aa + d * b * b) % p, 2 * a * b % p), (a, b))
            self._sqrt_table = t
        return self._sqrt_table

    def __eq__(self, other):
        return isinstance(other, Fp2Field) and other.p == self.p

    def __hash__(self):
        return hash(("Fp2Field", self.p))

    def __repr__(self):
        return f"F_{self.p}^2"


@lru_cache(maxsize=None)
def Fp2(p: int) -> Fp2Field:
    return Fp2Field(p)


class Fp2Elem:
    """c0 + c1*w with w^2 = d, coefficients mod p.

    Equality and hashing agree with FpElem/int when c1 = 0, so mixed sets of
    F_p and F_{p^2} values (single modulus) compare the natural way.
    """

    __slots__ = ("c0", "c1", "field")

    def __init__(self, c0: int, c1: int, field: Fp2Field):
        self.c0 = c0
        self.c1 = c1
        self.field = field

    @property
    def p(self) -> int:
        return self.field.p

    def _coerce(self, other) -> "Fp2Elem | None":
        if isinstance(other, Fp2Elem):
            if other.field.p != self.field.p:
                raise ValueError("modulus mismatch")
            return other
        if isinstance(other, int):
            return Fp2Elem(other % self.field.p, 0, self.field)
        if isinstance(other, FpElem):
            if other.field.p != self.field.p:
                raise ValueError("modulus mismatch")
            return Fp2Elem(other.value, 0, self.field)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Fp2Elem((self.c0 + o.c0) % p, (self.c1 + o.c1) % p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Fp2Elem((self.c0 - o.c0) % p, (self.c1 - o.c1) % p, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, d = self.field.p, self.field.d
        return Fp2Elem(
            (self.c0 * o.c0 + d * self.c1 * o.c1) % p,
            (self.c0 * o.c1 + self.c1 * o.c0) % p,
            self.field,
        )

    __rmul__ = __mul__

    def __neg__(self):
        p = self.field.p
        return Fp2Elem(-self.c0 % p, -self.c1 % p, self.field)

    def norm(self) -> FpElem:
        """c0^2 - d*c1^2 = z * z^p, an element of F_p."""
        p, d = self.field.p, self.field.d
        return FpElem((self.c0 * self.c0 - d * self.c1 * self.c1) % p, Fp(p))

    def inverse(self) -> "Fp2Elem":
        n = self.norm().value
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in F_{p^2}")
        p = self.field.p
        ninv = pow(n, -1, p)
        return Fp2Elem(self.c0 * ninv % p, -self.c1 * ninv % p, self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r = self.field.one
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other):
        if isinstance(other, Fp2Elem):
            return (
                other.field.p == self.field.p
                and other.c0 == self.c0
                and other.c1 == self.c1
            )
        if isinstance(other, FpElem):
            return other.field.p == self.field.p and self.c1 == 0 and self.c0 == other.value
        if isinstance(other, int):
            return self.c1 == 0 and self.c0 == other % self.field.p
        return NotImplemented

    def __hash__(self):
        if self.c1 == 0:
            return hash(self.c0)
        return hash((self.c0, self.c1))

    def __bool__(self):
        return self.c0 != 0 or self.c1 != 0

    def __repr__(self):
        return fp2_str((self.c0, self.c1))


def fp2_str(z: tuple[int, int]) -> str:
    """c0 + c1 w given as the pair (c0, c1), written 7, 3w or 2+5w."""
    c0, c1 = z
    if c1 == 0:
        return f"{c0}"
    if c0 == 0:
        return f"{c1}w"
    return f"{c0}+{c1}w"
