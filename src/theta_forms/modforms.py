"""Level-1 modular forms of even weight k as finite-dimensional q-expansions.

The space M_k has dimension n_k + 1 where k = 12*n_k + 4*a_k + 6*b_k with
a_k in {0,1,2}, b_k in {0,1}.  Its triangular basis is

    Delta^(n_k - l) * E4^(a_k + 3l) * E6^(b_k),   l = 0 .. n_k,

whose element l leads with q^(n_k - l), coefficient 1.  Matching a target
series on q^0..q^(n_k) therefore determines a unique form (the constructor),
by plain back-substitution.  Writing that combination over the common factor
Delta^(n_k) E4^(a_k) E6^(b_k) turns the coordinates into a polynomial in j,
since E4^3 / Delta = j.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    w = weight_indices(k)
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    dl = delta(order)
    e6b = e6 if w.b else QSeries.one(order)
    out = []
    for l in range(w.n + 1):
        elem = (dl ** (w.n - l)) * (e4 ** (w.a + 3 * l)) * e6b
        out.append(elem)
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
    q^(n_k-l), coefficient 1), so back-substitution is exact.
    """
    w = weight_indices(k)
    if f.order < w.n + 1:
        raise ValueError(f"need {w.n + 1} known coefficients, have order {f.order}")
    bas = basis(k, w.n + 1)
    residual = [f.coefficient(e) for e in range(w.n + 1)]
    coords = [0] * (w.n + 1)
    for e in range(w.n + 1):
        l = w.n - e
        c = residual[e]
        coords[l] = c
        if c:
            for e2 in range(e, w.n + 1):
                residual[e2] -= c * bas[l].coefficient(e2)
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
