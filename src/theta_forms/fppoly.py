"""Dense univariate polynomial algebra over F_p, evaluated over F_{p^2}.

Coefficients are stored as plain ints in [0, p), lowest degree first, with no
trailing zeros (the zero polynomial is the empty list).  There is one
factoring algorithm, ``factor_pattern`` (distinct-degree splitting alone,
peeling repeated factors off as it goes); the squarefree test
``is_squarefree`` and the splitting tests ``splits_into_linears`` and
``splits_over_fp2`` are queries on its result.  One question needs no
factoring: ``divides_frobenius(f, d)`` says whether f divides x^(p^d) - x,
that is whether f is squarefree with every factor degree dividing d, from
x^(p^d) mod f alone.  The verify lanes' split rows (theta-z over F_p, the
background lane's degrees within {1, 2}) ask it and factor only to word a
failure; theta-hex reads the factor pattern, whose counts its pattern row
needs.  All five share the bound p <= 10^4 and raise the same errors.
Besides that: one Horner ``evaluate`` at an F_p point (an int) or an F_{p^2}
point (a pair (c0, c1) for c0 + c1 w, w^2 the least non-residue), brute-force
root scans, and power sums for the mod-p reductions of the j-polynomials; all
return plain ints.

The distinct-degree splitting raises x^(p^d) to the p-th power mod g on int64
coefficient arrays: each product is one ``np.convolve`` reduced mod p, and
each reduction mod g multiplies by the inverse of the reversed modulus from
``exact_arith.series_inverse_mod``, recomputed whenever g shrinks.  The
convolutions are exact under that kernel's int64 bound, which the guard
p <= 10^4 meets for any degree below 9 * 10^10.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_arith import least_nonresidue, rat_mod, series_inverse_mod


def _normalize(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _mul_lists(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _normalize([c % p for c in out])


class FpPoly:
    """Polynomial over F_p: int coefficients low-to-high, no trailing zeros."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        self.p = p
        self.coeffs = _normalize([int(c) % p for c in coeffs])

    @classmethod
    def x(cls, p: int) -> "FpPoly":
        return cls([0, 1], p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "FpPoly") -> None:
        if other.p != self.p:
            raise ValueError("modulus mismatch")

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FpPoly(
            [(self.coefficient(i) - other.coefficient(i)) % self.p for i in range(n)],
            self.p,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly([c * other % self.p for c in self.coeffs], self.p)
        self._check(other)
        return FpPoly._raw(_mul_lists(self.coeffs, other.coeffs, self.p), self.p)

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, normalized: list[int], p: int) -> "FpPoly":
        out = cls.__new__(cls)
        out.coeffs = normalized
        out.p = p
        return out

    def __divmod__(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        """Long division with lazy reduction.

        The working remainder holds unreduced ints: each leading coefficient is
        reduced when it is read, and the remainder once at the end.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        lower = other.coeffs[:d]  # the leading term cancels rem[i] and is never read back
        lc_inv = pow(other.leading(), -1, p)
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c:
                q = c * lc_inv % p
                quot[i - d] = q
                base = i - d
                for j in range(d):
                    rem[base + j] -= q * lower[j]
        return FpPoly._raw(_normalize(quot), p), FpPoly._raw(_normalize([c % p for c in rem[:d]]), p)

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FpPoly":
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == 1:
            return self
        inv = pow(lc, -1, self.p)
        return FpPoly._raw([c * inv % self.p for c in self.coeffs], self.p)

    def evaluate(self, x: int | tuple[int, int]) -> int | tuple[int, int]:
        """f(x) mod p by Horner's rule: an int for an int x, and the pair
        (c0, c1) of f(x) for x = x0 + x1 w given as (x0, x1), w^2 = d the
        least non-residue mod p."""
        p = self.p
        if isinstance(x, tuple):
            x0, x1 = x
            d = least_nonresidue(p)
            a0 = a1 = 0
            for c in reversed(self.coeffs):
                a0, a1 = (a0 * x0 + d * a1 * x1 + c) % p, (a0 * x1 + a1 * x0) % p
            return a0, a1
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def reverse(self) -> "FpPoly":
        """x^deg * f(1/x): the coefficient list read backwards."""
        return FpPoly(list(reversed(self.coeffs)), self.p)

    def __eq__(self, other):
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, tuple(self.coeffs)))

    def __repr__(self):
        return f"FpPoly({self.coeffs}, {self.p})"


# ---------------------------------------------------------------------------
# construction from rational polynomials


def reduce_poly(poly, p: int) -> FpPoly:
    """Coefficientwise reduction of a rational-coefficient polynomial mod p.

    Accepts anything exposing a low-to-high `coeffs` list (or a plain list).
    Raises when p sits in a denominator.
    """
    coeffs = poly.coeffs if hasattr(poly, "coeffs") else list(poly)
    out = []
    for i, c in enumerate(coeffs):
        try:
            out.append(rat_mod(Fraction(c) if not isinstance(c, int) else c, p))
        except ValueError as exc:
            raise ValueError(f"coefficient of degree {i}: p in a denominator ({exc})") from exc
    return FpPoly(out, p)


# ---------------------------------------------------------------------------
# gcd


def gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic greatest common divisor."""
    f._check(g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# modular powering on int64 arrays


def _reduce_mod(a: np.ndarray, g: np.ndarray, ginv: np.ndarray, p: int) -> np.ndarray:
    """a mod g for residues a of length at most 2n - 1, n = deg g, with
    ginv = 1 / rev(g) mod x^n, rev(g) = x^n g(1/x): the quotient's top
    k coefficients reversed are rev(a) / rev(g) mod x^k."""
    n = len(g) - 1
    k = len(a) - n
    if k <= 0:
        return a
    q = (np.convolve(a[: n - 1 : -1], ginv[:k])[:k] % p)[::-1]
    return (a[:n] - np.convolve(q, g[:n])[:n]) % p


def _pow_mod(base: FpPoly, e: int, g: FpPoly, ginv: np.ndarray) -> FpPoly:
    """base^e mod monic g, for deg base < deg g, by left-to-right squaring on
    int64 arrays; ginv, as in ``_reduce_mod``, must belong to this g."""
    p = g.p
    garr = np.array(g.coeffs, dtype=np.int64)
    b = np.array(base.coeffs or [0], dtype=np.int64)
    r = np.ones(1, dtype=np.int64)
    for bit in bin(e)[2:]:
        r = _reduce_mod(np.convolve(r, r) % p, garr, ginv, p)
        if bit == "1":
            r = _reduce_mod(np.convolve(r, b) % p, garr, ginv, p)
    return FpPoly._raw(_normalize(r.tolist()), p)


# ---------------------------------------------------------------------------
# factor degree patterns


def _require_factorable(f: FpPoly) -> None:
    """The guard of ``factor_pattern`` and ``divides_frobenius``."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.p > 10**4:
        raise ValueError(f"p = {f.p} beyond the desk-scale bound 10^4")


@dataclass(frozen=True)
class FactorPattern:
    """Multiset of (degree, multiplicity) over the monic irreducible factors."""

    pairs: tuple[tuple[tuple[int, int], int], ...]

    def degrees(self) -> set[int]:
        return {d for (d, _m), _ in self.pairs}

    def multiplicities(self) -> set[int]:
        return {m for (_d, m), _ in self.pairs}


def factor_pattern(f: FpPoly) -> FactorPattern:
    """Degrees and multiplicities of the monic irreducible factors of f.

    Distinct-degree splitting alone, with no squarefree pre-pass.  Once g has
    no factor of degree below d, c = gcd(g, x^(p^d) - x) is the product of
    its distinct degree-d factors; dividing g by c, then by gcd(g, c), and so
    on peels them off one multiplicity at a time.  When 2d > deg g, what is
    left is one irreducible factor of multiplicity 1: two factors, equal or
    not, would need degree at least 2d.
    """
    _require_factorable(f)
    p = f.p
    pairs: Counter = Counter()
    g = f.monic()
    x = FpPoly.x(p)
    frob = x  # x^(p^d) mod g
    ginv = series_inverse_mod(g.coeffs[::-1], g.degree, p)
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            pairs[(g.degree, 1)] += 1
            break
        frob = _pow_mod(frob % g, p, g, ginv)
        c = gcd(g, frob - x)
        mult = 0
        while c.degree > 0:
            mult += 1
            g = g // c
            left = gcd(g, c)  # the factors of multiplicity above mult
            if c.degree > left.degree:
                pairs[(d, mult)] += (c.degree - left.degree) // d
            c = left
        if mult:
            ginv = series_inverse_mod(g.coeffs[::-1], g.degree, p)
    return FactorPattern(tuple(sorted(pairs.items())))


def divides_frobenius(f: FpPoly, d: int) -> bool:
    """Whether monic f divides x^(p^d) - x, for d >= 1.

    That holds exactly when f is squarefree and the degree of every
    irreducible factor divides d; a nonzero constant divides everything.
    x^(p^d) mod f takes d powerings by p on the arrays of ``factor_pattern``
    and no gcd, under the same guard.
    """
    _require_factorable(f)
    g = f.monic()
    if g.degree < 1:
        return True
    x = FpPoly.x(f.p) % g
    ginv = series_inverse_mod(g.coeffs[::-1], g.degree, f.p)
    frob = x
    for _ in range(d):
        frob = _pow_mod(frob, f.p, g, ginv)
    return frob == x


# ---------------------------------------------------------------------------
# squarefree and splitting tests: queries on the factor pattern


def is_squarefree(f: FpPoly) -> bool:
    """Whether f is nonzero with no repeated irreducible factor over F_p."""
    return not f.is_zero() and factor_pattern(f).multiplicities() <= {1}


def _squarefree_degrees(f: FpPoly, what: str) -> set[int]:
    pattern = factor_pattern(f)
    if pattern.multiplicities() - {1}:
        raise ValueError(f"{what} requires a squarefree polynomial; f has a repeated factor")
    return pattern.degrees()


def splits_into_linears(f: FpPoly) -> bool:
    """Whether squarefree f factors into distinct linear factors over F_p."""
    return _squarefree_degrees(f, "splits_into_linears") <= {1}


def splits_over_fp2(f: FpPoly) -> bool:
    """Whether squarefree f splits over F_{p^2}: no irreducible factor of degree > 2."""
    return _squarefree_degrees(f, "splits_over_fp2") <= {1, 2}


# ---------------------------------------------------------------------------
# roots


def roots_brute(f: FpPoly) -> set[int]:
    """All F_p roots by exhaustive evaluation (multiplicity ignored)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.p > 10**5:
        raise ValueError(f"p = {f.p} beyond the exhaustive-evaluation bound 10^5")
    return {x for x in range(f.p) if not f.evaluate(x)}


def roots_fp2_brute(f: FpPoly) -> set[tuple[int, int]]:
    """All F_{p^2} roots, as pairs (c0, c1), by evaluation at all p^2 pairs."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    p = f.p
    if p > 500:
        raise ValueError(f"p = {p} beyond the F_p^2 scan bound 500")
    pairs = ((c0, c1) for c0 in range(p) for c1 in range(p))
    return {z for z in pairs if f.evaluate(z) == (0, 0)}


# ---------------------------------------------------------------------------
# power sums


def power_sums(f: FpPoly, v_max: int) -> list[int]:
    """S_v = sum of v-th powers of the roots (with multiplicity), v = 0..v_max.

    Computed from the monic coefficients by Newton's identities:
    S_v = -v*a_v - sum_{j=1}^{v-1} a_j S_{v-j} for v <= deg, and
    S_v = -sum_{j=1}^{deg} a_j S_{v-j} beyond the degree, with a_j the
    coefficient of x^(deg-j).
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    p = f.p
    g = f.monic()
    d = g.degree
    a = [g.coefficient(d - j) for j in range(d + 1)]  # a[0] = 1
    s = [d % p]
    for v in range(1, v_max + 1):
        acc = 0
        for j in range(1, min(v - 1, d) + 1):
            if a[j]:
                acc += a[j] * s[v - j]
        if v <= d:
            acc += v * a[v]
        s.append(-acc % p)
    return s


# ---------------------------------------------------------------------------
# reciprocal polynomials


def is_reciprocal(f: FpPoly) -> bool:
    """Whether x^deg * f(1/x) = f after monic normalization.

    Equivalently the monic-normalized coefficient list is a palindrome.
    """
    if f.is_zero() or f.coefficient(0) == 0:
        raise ValueError("constant term is zero; reciprocal comparison undefined")
    g = f.monic()
    return g == g.reverse().monic()
