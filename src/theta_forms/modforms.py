"""Level-1 modular forms of even weight k as finite-dimensional q-expansions.

The space M_k has dimension n_k + 1 where k = 12*n_k + 4*a_k + 6*b_k with
a_k in {0,1,2}, b_k in {0,1}.  Its triangular basis is

    Delta^(n_k - l) * E4^(a_k + 3l) * E6^(b_k),   l = 0 .. n_k,

whose element l leads with q^(n_k - l), coefficient 1.  It is built from two
chains of one product per step, the Delta powers Delta^0..Delta^(n_k) and
E_l = E4^(a_k) E6^(b_k) (E4^3)^l, as element l = Delta^(n_k - l) * E_l.
Matching a target series on q^0..q^(n_k) therefore determines a unique form
(the constructor).  The basis coefficients are integers and the diagonal is
1, so the target is scaled by the lcm of its denominators and
back-substituted in plain ints, with one division at the end.  Writing that
combination over the common factor Delta^(n_k) E4^(a_k) E6^(b_k) turns the
coordinates into a polynomial in j, since E4^3 / Delta = j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qseries import QSeries, delta, eisenstein


# ---------------------------------------------------------------------------
# polynomials over Q


class RatPoly:
    """Dense polynomial with exact rational coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "RatPoly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "RatPoly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# weight structure


@dataclass(frozen=True)
class WeightIndices:
    """The unique triple with k = 12n + 4a + 6b, a in {0,1,2}, b in {0,1}."""

    k: int
    n: int
    a: int
    b: int

    def __post_init__(self):
        assert self.k == 12 * self.n + 4 * self.a + 6 * self.b
        assert self.n >= 0 and self.a in (0, 1, 2) and self.b in (0, 1)


@dataclass(frozen=True)
class BasisCoordinates:
    """Coordinates (c_0..c_n) against Delta^(n-l) E4^(a+3l) E6^b."""

    k: int
    coords: tuple

    def __post_init__(self):
        assert len(self.coords) == weight_indices(self.k).n + 1


_INDEX_TABLE = {0: (0, 0, 0), 4: (0, 1, 0), 6: (0, 0, 1), 8: (0, 2, 0), 10: (0, 1, 1), 2: (-1, 2, 1)}


def weight_indices(k: int) -> WeightIndices:
    """Decompose an even weight k >= 4 as 12n + 4a + 6b."""
    if k < 4 or k % 2:
        raise ValueError(f"weight must be even and >= 4, got {k}")
    dn, a, b = _INDEX_TABLE[k % 12]
    return WeightIndices(k, k // 12 + dn, a, b)


def default_order(k: int) -> int:
    """Verification order used throughout: 2*(n_k + 1) + 10."""
    return 2 * (weight_indices(k).n + 1) + 10


@lru_cache(maxsize=None)
def _basis_cached(k: int, order: int) -> tuple[QSeries, ...]:
    """Delta^(n-l) E4^(a+3l) E6^b for l = 0..n, about 3n products in all.

    The chain E_l = E_(l-1) * E4^3 starts from E_0 = E4^a E6^b; the chain
    Delta^i = Delta^(i-1) * Delta runs alongside, replacing E_(n-i) by
    Delta^i * E_(n-i).  The Delta power is the left factor, so the product
    skips its i leading zeros.
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


def basis(k: int, order: int | None = None) -> list[QSeries]:
    """The n_k+1 basis series of M_k, element l leading with q^(n_k - l)."""
    w = weight_indices(k)
    if order is None:
        order = default_order(k)
    if order < w.n + 1:
        raise ValueError(f"order {order} below dimension {w.n + 1} of weight-{k} space")
    return list(_basis_cached(k, order))


def basis_coordinates(f: QSeries, k: int) -> BasisCoordinates:
    """Solve for the unique coordinates matching f on q^0..q^(n_k).

    The system is triangular with unit diagonal (element l leads with
    q^(n_k-l), coefficient 1) and integer entries.  Scaling the targets by
    the lcm of their denominators keeps the back-substitution in plain ints;
    the coordinates are Fractions exactly when a target coefficient is one.
    """
    w = weight_indices(k)
    m = w.n + 1
    if f.order < m:
        raise ValueError(f"need {m} known coefficients, have order {f.order}")
    bas = basis(k, m)
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
    return BasisCoordinates(k, tuple(coords))


def combination(coords: BasisCoordinates, order: int | None = None) -> QSeries:
    """The form sum(c_l * basis_l) expanded to the given order."""
    k = coords.k
    if order is None:
        order = default_order(k)
    bas = basis(k, order)
    acc = QSeries.zero(order)
    for c, elem in zip(coords.coords, bas):
        if c:
            acc = acc + elem * c
    return acc


def constructor(f: QSeries, k: int, order: int | None = None) -> QSeries:
    """The unique weight-k form agreeing with f on q^0..q^(n_k)."""
    return combination(basis_coordinates(f, k), order)


def pf_polynomial(f: QSeries, k: int) -> RatPoly:
    """The polynomial P with P(j) * Delta^(n_k) E4^(a_k) E6^(b_k) = matched form.

    Its coefficients are exactly the basis coordinates, since basis element l
    equals the common factor times (E4^3/Delta)^l = j^l.
    """
    return RatPoly(basis_coordinates(f, k).coords)
