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
order is asked for.  An exact solve costs the two unit powers, one product
and a back-substitution in plain ints against the table (the target scaled
by the lcm of its denominators, one division at the end).  ``series_in_t``
sums any series in t = 1/j from the same table; ``combination`` and the
identity rows of ``hyperpoly`` read it, so it is the package's one table of
powers of 1/j.  Writing the combination over the common factor
Delta^(n_k) E4^(a_k) E6^(b_k) turns the coordinates into a polynomial in j,
since E4^3 / Delta = j.

The verify lanes read P(j) only mod p, so they call ``coordinates_mod_p``,
which solves in residues from the target's residues of q^0..q^(n_k) and
never reads the t-table.  It takes h = target * U^-1 mod p, with
U^-1 = (1/E4)^(a_k + 3 n_k) (1/E6)^(b_k) powered on int64 arrays, and then
peels h's digits in base t = 1/j: h = sum C_i t^i gives C_0 = h_0, and
(h - C_0) j = h[1:] * S for S = q j = E4^3 / prod (1 - q^k)^24 = 1 + 744q
+ ..., so each step takes the constant term and multiplies the tail by S mod
p.  1/E4, 1/E6 and S have integer coefficients and nothing divides, so the
solve is exact for every prime p, p <= n_k included; their residues are
reduced from shared exact series, built on first use.  S is
E4^3 prod (1 - q^k)^-24: two integer powers by the series power recurrence
(the second on the sparse pentagonal series) and one product.  The solve is
cached on the target's residues, so P(1) and P(E_(p-1)), whose residues
agree since E_(p-1) = 1 mod p, are solved once per prime.  The t-table's
readers are ``series_in_t`` (with ``combination`` and the identity rows),
the exact solve (``basis_coordinates``, with ``pf_polynomial`` and
``constructor`` reading its coordinates), ``show`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .exact_arith import rat_mod, series_pow_mod
from .qseries import (
    QSeries,
    _cleared,
    _divided,
    delta,
    eisenstein,
    euler_product,
    invert_unit,
)


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
        return f"RatPoly({self.coeffs})"


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
    """A series order below dim M_k: the solve's guard against a target too
    short to determine the form.  No verify sweep raises it."""


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
    t = (delta(order) * eisenstein(4, order) ** -3).coeffs
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
    two calls, so repeated exact solves and combinations of one weight share
    U^-1 and U.  Callers only multiply the result, never mutate it.
    """
    u = eisenstein(4, order) ** (sign * (w.a + 3 * w.n))
    if w.b:
        u = u * eisenstein(6, order) ** sign
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


def _back_substitute(residual: list[int]) -> list[int]:
    """c_0..c_n with sum c_l t^(n-l) = residual to q^n, n = len - 1, in exact
    ints against the shared t-table, consuming residual.

    Only the exact solve calls it.  Mod p the same digits come from
    ``_peel_digits``, which multiplies by S = q j instead of reading t-rows.
    """
    n = len(residual) - 1
    rows = _t_powers(n + 1)
    coords = [0] * (n + 1)
    for e in range(n + 1):
        c = coords[n - e] = residual[e]
        if c:
            row = rows[e]
            for e2 in range(e + 1, n + 1):
                residual[e2] -= c * row[e2]
    return coords


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
    coords = _back_substitute((scaled * _unit(w, m, -1)).coeffs)
    if fractional:
        coords = [Fraction(c, den) for c in coords]
    return BasisCoordinates(k, tuple(coords))


def coordinates_mod_p(target, k: int, p: int) -> list[int]:
    """The coordinates (c_0..c_n) of ``basis_coordinates``, as residues mod p.

    ``target`` lists the target's coefficients of q^0, q^1, ...; only the
    first n_k + 1 are read, each through ``rat_mod``, so residues pass
    unchanged and a Fraction with p in its denominator raises ValueError.  A
    target shorter than n_k + 1 raises ConfigError.  The solve takes
    h = target * U^-1 mod p, with U^-1 = (1/E4)^(a_k + 3 n_k) (1/E6)^(b_k)
    from the residues of the exact 1/E4 and 1/E6, then peels the digits C_i
    of h = sum C_i t^i, multiplying the tail by S = q j mod p;
    c_l = C_(n_k - l).
    Nothing divides, so any prime p will do, p <= n_k included, up to the
    kernels' bound (n_k + 1) p^2 < 2^63, past which ValueError is raised.
    """
    w = weight_indices(k)
    _require_dimension(w, len(target))
    return list(_solve_mod_p(tuple(rat_mod(c, p) for c in target[: w.n + 1]), w, p))


@lru_cache(maxsize=2)  # the last two residue targets: P(1) follows P(E_(p-1))
def _solve_mod_p(h: tuple, w: WeightIndices, p: int) -> tuple:
    # the products below are exact under the kernel's bound for this m and p,
    # which series_pow_mod checks first
    m = len(h)
    u_inv = series_pow_mod(_inverse_eisenstein_mod(4, m, p), w.a + 3 * w.n, m, p)
    if w.b:
        u_inv = np.convolve(u_inv, _inverse_eisenstein_mod(6, m, p))[:m] % p
    h = np.convolve(h, u_inv)[:m] % p
    return tuple(_peel_digits(h, _q_j_mod(m - 1, p), p)[::-1])


# The exact integer series the mod-p solve reduces, each to q^(len - 1):
# S = q j = E4^3 / prod_(k>=1) (1 - q^k)^24, the peel's multiplier, and 1/E4
# and 1/E6, integral since E4 and E6 lie in 1 + qZ[[q]], whose powers make
# U^-1.  Shared by every prime and only ever extended.
_Q_J: list[int] = [1]
_INVERSE_EISENSTEIN: dict[int, list[int]] = {4: [1], 6: [1]}


def _residues(series: list[int], m: int, p: int, build) -> list[int]:
    """The residues mod p of the exact ``series`` to q^(m-1).

    A series too short is first extended from ``build(order)``, for the
    least power of two, at least 16, that holds m terms, so a sweep of rising
    weights rebuilds it a handful of times, not once per weight.
    """
    if m > len(series):
        series.extend(build(max(16, 1 << (m - 1).bit_length()))[len(series) :])
    return [c % p for c in series[:m]]


def _q_j_mod(m: int, p: int) -> list[int]:
    """The residues mod p of S = q j = 1 + 744q + 196884q^2 + ... to q^(m-1)."""
    return _residues(_Q_J, m, p, lambda order: (
        eisenstein(4, order) ** 3 * euler_product(order) ** -24).coeffs)


def _inverse_eisenstein_mod(k: int, m: int, p: int) -> list[int]:
    """The residues mod p of 1/E_k to q^(m-1), for k = 4 or 6."""
    return _residues(_INVERSE_EISENSTEIN[k], m, p,
                     lambda order: invert_unit(eisenstein(k, order)).coeffs)


def _peel_digits(h: np.ndarray, s: list[int], p: int) -> list[int]:
    """The digits C_0..C_(m-1) of h = sum C_i t^i mod (q^m, p), for h the
    residues of q^0..q^(m-1) and s those of S = q j to q^(m-2).

    C_0 = h_0, and (h - C_0) j = h[1:] * S drops one digit.  Two such steps
    are taken at once: t = q + O(q^2) makes C_1 = h_1, and
    (h - C_0 - C_1 t) j^2 = (h[1:] * S^2 - C_1 S) / q, so each step takes two
    digits and multiplies the tail by S^2 once.  Above 8 terms the steps run
    on int64 arrays, exact under the kernel's bound m p^2 < 2^63; up to 8
    they are summed term by term, where that is cheaper than numpy's
    per-call cost.
    """
    digits = []
    if len(h) > 8:
        s = np.array(s, dtype=np.int64)
        s2 = np.convolve(s, s)[: len(s)] % p
        while len(h) > 2:
            c1 = int(h[1])
            digits += (int(h[0]), c1)
            n = len(h) - 2
            h = (np.convolve(h[1:], s2[: n + 1])[1 : n + 1] - c1 * s[1 : n + 1]) % p
        return digits + h.tolist()
    h = h.tolist()
    s2 = [sum(map(mul, s[: e + 1], reversed(s[: e + 1]))) % p for e in range(len(s))]
    while len(h) > 2:
        c1 = h[1]
        digits += h[:2]
        h = [
            (sum(map(mul, h[1 : e + 3], reversed(s2[: e + 2]))) - c1 * s[e + 1]) % p
            for e in range(len(h) - 2)
        ]
    return digits + h


def series_in_t(coeffs, order: int) -> QSeries:
    """sum coeffs[m] * t^m to q^(order-1), for t = Delta / E4^3 = 1/j.

    Read from the shared t-table: t^m leads with q^m, so only the first
    ``order`` coefficients can matter.  They are cleared to C/D once, the sum
    runs in ints, and it is divided by D once.
    """
    rows = _t_powers(order)
    C, D = _cleared(coeffs[:order])
    s = [0] * order
    for m, c in enumerate(C):
        if c:
            row = rows[m]
            for e in range(m, order):
                s[e] += c * row[e]
    return QSeries(_divided(s, [D] * order))


def combination(coords: BasisCoordinates, order: int | None = None) -> QSeries:
    """The form U * sum(c_l * t^(n_k - l)) expanded to the given order."""
    w = weight_indices(coords.k)
    if order is None:
        order = default_order(coords.k)
    _require_dimension(w, order)
    return _unit(w, order, 1) * series_in_t(coords.coords[::-1], order)


def constructor(f: QSeries, k: int, order: int | None = None) -> QSeries:
    """The unique weight-k form agreeing with f on q^0..q^(n_k)."""
    return combination(basis_coordinates(f, k), order)


def pf_polynomial(f: QSeries, k: int) -> RatPoly:
    """The polynomial P with P(j) * Delta^(n_k) E4^(a_k) E6^(b_k) = matched form.

    Its coefficients are exactly the basis coordinates, since basis element l
    equals the common factor times (E4^3/Delta)^l = j^l.
    """
    return RatPoly(basis_coordinates(f, k).coords)
