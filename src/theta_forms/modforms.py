"""Level-1 modular forms of even weight k as finite-dimensional q-expansions.

The space M_k has dimension n_k + 1 where k = 12*n_k + 4*a_k + 6*b_k with
a_k in {0,1,2}, b_k in {0,1}.  Its triangular basis is

    Delta^(n_k - l) * E4^(a_k + 3l) * E6^(b_k),   l = 0 .. n_k,

whose element l leads with q^(n_k - l), coefficient 1.  Matching a target
series on q^0..q^(n_k) therefore determines a unique form (the constructor);
this is the Kaneko-Zagier construction of P(j).  Element l is U * t^(n_k - l)
for the unit U = E4^(a_k + 3 n_k) E6^(b_k) and t = Delta / E4^3 = q - 744q^2
+ ..., which has integer coefficients.  So f matches sum c_l * element_l
exactly when f / U matches sum c_l * t^(n_k - l), and the rows of that
triangular system, t^0..t^(n_k), do not depend on k.  They live in one
module-level table, built on first use and extended in place when a larger
order is asked for.  A solve costs the two unit powers, one product and a
back-substitution in plain ints against the table (the target scaled by the
lcm of its denominators, one division at the end).  Writing the combination
over the common factor Delta^(n_k) E4^(a_k) E6^(b_k) turns the coordinates
into a polynomial in j, since E4^3 / Delta = j.

The verify lanes read P(j) only mod p, so they call ``coordinates_mod_p``:
the same solve run in residues, from the target's residues of q^0..q^(n_k).
It is exact because U^-1 has integer coefficients (E4 and E6 do, with
constant term 1) and the t-rows are integer with leading 1, so the map from
target to coordinates is unimodular over Z and commutes with reduction mod p.
The exact solve (``basis_coordinates``, ``pf_polynomial``, ``constructor``)
serves ``show`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exact_arith import rat_mod
from .qseries import QSeries, delta, eisenstein, eisenstein_mod, pow_rational


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
    """The order 2*(n_k + 1) + 10 that ``show`` expands its worked examples
    to and the benchmark's reference check records per weight; also the
    default order of ``basis`` and ``combination``.  No verify lane reads it:
    the lanes solve from the target's q^0..q^(n_k)."""
    return 2 * (weight_indices(k).n + 1) + 10


class ConfigError(ValueError):
    """A series order below dim M_k: a sweep's ``--order`` too small for one of its weights."""


def _require_dimension(w: WeightIndices, order: int) -> None:
    if order < w.n + 1:
        raise ConfigError(f"order {order} below dimension {w.n + 1} of weight-{w.k} space")


# t^i for i < len(_T_POWERS), each as its coefficients of q^0..q^(len - 1).
# Shared by every weight and only ever extended, so no caller sees a change.
_T_POWERS: list[list[int]] = [[1]]


def _t_powers(order: int) -> list[list[int]]:
    """The shared table t^0..t^(order-1) to q^(order-1), for t = Delta / E4^3.

    Grows in place and is never rebuilt: the existing rows get the new
    columns, then the new rows are appended.  Row i comes from row i-1, since
    coefficient e of t^i is the sum of t_j * (t^(i-1))_(e-j) over j >= 1.
    """
    rows = _T_POWERS
    if order <= len(rows):
        return rows
    t = (delta(order) * pow_rational(eisenstein(4, order), -3)).coeffs
    rows[0].extend([0] * (order - len(rows[0])))
    for i in range(1, order):
        if i == len(rows):
            rows.append([0] * i)
        row, prev = rows[i], rows[i - 1]
        for e in range(len(row), order):
            row.append(sum(map(mul, t[1 : e - i + 2], reversed(prev[i - 1 : e]))))
    return rows


@lru_cache(maxsize=2)
def _unit(w: WeightIndices, order: int, sign: int) -> QSeries:
    """U^sign for U = E4^(a+3n) E6^b, the factor taking t^(n-l) to basis element l.

    Only the exact solve and its views use it; no verify lane does, since the
    lanes take U^-1 mod p inside ``coordinates_mod_p``.  Cached for the last
    two calls, so the exact solves of one weight (the coordinates, P(j) and
    the constructor of ``show k52``) share U and U^-1.  Callers only multiply
    the result, never mutate it.
    """
    u = pow_rational(eisenstein(4, order), sign * (w.a + 3 * w.n))
    if w.b:
        u = u * pow_rational(eisenstein(6, order), sign)
    return u


def basis(k: int, order: int | None = None) -> list[QSeries]:
    """The n_k+1 basis series of M_k, element l = U * t^(n_k - l) leading with q^(n_k - l)."""
    w = weight_indices(k)
    if order is None:
        order = default_order(k)
    _require_dimension(w, order)
    rows = _t_powers(order)
    u = _unit(w, order, 1)
    return [u * QSeries(rows[w.n - l][:order]) for l in range(w.n + 1)]


def basis_coordinates(f: QSeries, k: int) -> BasisCoordinates:
    """Solve for the unique coordinates matching f on q^0..q^(n_k).

    Dividing by U turns the system into h = f / U = sum c_l t^(n_k-l) mod
    q^(n_k+1), whose rows are the shared t-powers: integer entries, t^i
    leading with q^i, coefficient 1.  Scaling the targets by the lcm of their
    denominators keeps h and the back-substitution in plain ints; the
    coordinates are Fractions exactly when a target coefficient is one.
    """
    w = weight_indices(k)
    m = w.n + 1
    _require_dimension(w, f.order)
    targets = [f.coefficient(e) for e in range(m)]
    fractional = any(isinstance(c, Fraction) for c in targets)
    den = math.lcm(*(c.denominator for c in targets)) if fractional else 1
    scaled = QSeries([c.numerator * (den // c.denominator) for c in targets])
    residual = (scaled * _unit(w, m, -1)).coeffs
    rows = _t_powers(m)
    coords = [0] * m
    for e in range(m):
        c = residual[e]
        coords[w.n - e] = c
        if c:
            row = rows[e]
            for e2 in range(e + 1, m):
                residual[e2] -= c * row[e2]
    if fractional:
        coords = [Fraction(c, den) for c in coords]
    return BasisCoordinates(k, tuple(coords))


def _series_pow_mod(f: list[int], r: int, p: int) -> list[int]:
    """f^r mod p for residues f with f[0] = 1 and an integer r.

    The recurrence k g_k = sum_{i=1..k} ((r+1)i - k) f_i g_(k-i) of
    ``pow_rational``, run in residues; it divides by k = 1..len(f) - 1, so p
    must exceed len(f) - 1.
    """
    m = len(f)
    r1 = (r + 1) % p
    fi = [i * c % p for i, c in enumerate(f)]
    g = [1] + [0] * (m - 1)
    for k in range(1, m):
        back = g[k - 1 :: -1]
        acc = r1 * sum(map(mul, fi[1 : k + 1], back)) - k * sum(map(mul, f[1 : k + 1], back))
        g[k] = acc * pow(k, -1, p) % p
    return g


def _series_mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b mod p, truncated to the common length of the two residue lists."""
    return [sum(map(mul, a[: e + 1], b[e::-1])) % p for e in range(len(a))]


def coordinates_mod_p(target, k: int, p: int) -> list[int]:
    """The coordinates (c_0..c_n) of ``basis_coordinates``, as residues mod p.

    ``target`` lists the target's coefficients of q^0, q^1, ...; only the
    first n_k + 1 are read, each through ``rat_mod``, so residues pass
    unchanged and a Fraction with p in its denominator raises ValueError.  A
    target shorter than n_k + 1 raises ConfigError.  The solve is
    ``basis_coordinates`` in residues: h = target * U^-1 mod p, with U^-1
    from the power recurrence on E4 and E6 mod p (``eisenstein_mod``), then
    back-substitution against the shared t-table, each row entry reduced as
    it is used.  The recurrence divides by 1..n_k, so p must exceed n_k;
    every verify lane has n_k <= (p + 1)/12.
    """
    w = weight_indices(k)
    m = w.n + 1
    _require_dimension(w, len(target))
    if p <= w.n:
        raise ValueError(f"p = {p} does not exceed n = {w.n} of weight {k}")
    h = [rat_mod(c, p) for c in target[:m]]
    u = _series_pow_mod(eisenstein_mod(4, m, p), -(w.a + 3 * w.n), p)
    if w.b:
        u = _series_mul_mod(u, _series_pow_mod(eisenstein_mod(6, m, p), -1, p), p)
    residual = _series_mul_mod(h, u, p)
    rows = _t_powers(m)
    coords = [0] * m
    for e in range(m):
        c = residual[e]
        coords[w.n - e] = c
        if c:
            row = rows[e]
            for e2 in range(e + 1, m):
                residual[e2] = (residual[e2] - c * row[e2]) % p
    return coords


def combination(coords: BasisCoordinates, order: int | None = None) -> QSeries:
    """The form U * sum(c_l * t^(n_k - l)) expanded to the given order."""
    k = coords.k
    w = weight_indices(k)
    if order is None:
        order = default_order(k)
    _require_dimension(w, order)
    rows = _t_powers(order)
    s = [0] * order
    for l, c in enumerate(coords.coords):
        if c:
            row = rows[w.n - l]
            for e in range(w.n - l, order):
                s[e] += c * row[e]
    return _unit(w, order, 1) * QSeries(s)


def constructor(f: QSeries, k: int, order: int | None = None) -> QSeries:
    """The unique weight-k form agreeing with f on q^0..q^(n_k)."""
    return combination(basis_coordinates(f, k), order)


def pf_polynomial(f: QSeries, k: int) -> RatPoly:
    """The polynomial P with P(j) * Delta^(n_k) E4^(a_k) E6^(b_k) = matched form.

    Its coefficients are exactly the basis coordinates, since basis element l
    equals the common factor times (E4^3/Delta)^l = j^l.
    """
    return RatPoly(basis_coordinates(f, k).coords)
