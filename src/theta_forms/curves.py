"""Brute-force elliptic curve arithmetic over F_p and F_{p^2}.

Everything here is desk-scale and exhaustive on purpose: point counts by
character sums, torsion by one sweep over x with the x-only doubling
formula, and the j-value sets by sweeping every parameter value in the
field (for the supersingular set, every F_{p^2} character sum at once as
one correlation).  The sets serve as independent oracles for the
finite-field sweeps, so they must come from direct arithmetic rather than
from the polynomial identities they verify.

Models are kept as y^2 = x^3 + c2 x^2 + c1 x + c0 internally; the Hessian
cubic is brought to that shape through its rational inflection point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact_arith import (
    Fp,
    Fp2,
    Fp2Elem,
    FpElem,
    FpField,
    cube_root_of_2,
)


@dataclass(frozen=True)
class TorsionStructure:
    """The pair (d1, d2) with d1 | d2 describing Z/d1 x Z/d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 % self.d1 != 0:
            raise ValueError(f"({self.d1}, {self.d2}) is not a valid structure pair")


def _same_field(*elems):
    field = elems[0].field
    for e in elems[1:]:
        if e.field != field:
            raise ValueError("curve coefficients from different fields")
    return field


class ShortWeierstrass:
    """y^2 = x^3 + a x + b with 4a^3 + 27b^2 != 0."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b):
        self.field = _same_field(a, b)
        if not (4 * a * a * a + 27 * b * b):
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")
        self.a = a
        self.b = b

    def cubic(self):
        return self.field.zero, self.a, self.b

    def __repr__(self):
        return f"ShortWeierstrass(a={self.a}, b={self.b} over {self.field})"


class LegendreCurve:
    """y^2 = x(x-1)(x-lam) with lam not in {0, 1}."""

    __slots__ = ("lam", "field")

    def __init__(self, lam):
        self.field = lam.field
        if not lam or lam == 1:
            raise ValueError("lambda must avoid 0 and 1")
        self.lam = lam

    def cubic(self):
        return -(1 + self.lam), self.lam, self.field.zero

    def __repr__(self):
        return f"LegendreCurve(lam={self.lam} over {self.field})"


class HessianCurve:
    """The plane cubic X^3 + Y^3 + 1 = 3b XY, nonsingular iff b^3 != 1.

    Its inflection point (1 : -1 : 0) is rational, so the classical flex
    reduction gives a Weierstrass model over any field of characteristic
    at least 5; singularity shows up there as a vanishing discriminant.
    """

    __slots__ = ("b", "field")

    def __init__(self, b):
        self.field = b.field
        if b * b * b == 1:
            raise ValueError("singular Hessian cubic: b^3 = 1")
        self.b = b

    def cubic(self):
        """Weierstrass model y^2 = x^3 - 27b^2 x^2 + 216b(b^3-1) x - 432(b^3-1)^2.

        Obtained by sending the flex to infinity and its tangent line
        X + Y + bZ = 0 to the line at infinity, then completing the square;
        the substitution is checked symbolically in the test suite, so the
        model is an isomorphism over the base field (not merely a twist).
        """
        b = self.b
        b3m1 = b * b * b - 1
        return -27 * b * b, 216 * b * b3m1, -432 * b3m1 * b3m1

    def __repr__(self):
        return f"HessianCurve(b={self.b} over {self.field})"


# ---------------------------------------------------------------------------
# point counting and torsion


def point_count(curve) -> int:
    """#E(F_p) = p + 1 + sum_x chi(f(x)), by exhaustive x with a square table."""
    field = curve.field
    if not isinstance(field, FpField):
        raise ValueError("point_count runs over F_p only")
    p = field.p
    if p > 10**4:
        raise ValueError(f"p = {p} beyond the exhaustive bound 10^4")
    c2, c1, c0 = (int(c) for c in curve.cubic())
    squares = field.squares()
    count = 1
    for x in range(p):
        fx = ((x + c2) * x + c1) * x + c0
        fx %= p
        if fx == 0:
            count += 1
        elif fx in squares:
            count += 2
    return count


def n_torsion_structure(curve, n: int) -> TorsionStructure:
    """Structure of E[n](field) for n in {2, 3, 4}, by one sweep over x.

    A root of the cubic f is a point of order 2.  A nonzero square f(x)
    gives the two points (x, +-y), both with x([2]P) = f'(x)^2 / (4 f(x)) -
    c2 - 2x; such a point has [3]P = O iff x([2]P) = x and [4]P = O iff
    [2]P has order 2, i.e. f(x([2]P)) = 0.
    """
    if n not in (2, 3, 4):
        raise ValueError("n must be 2, 3, or 4")
    field = curve.field
    if field.p > 10**3:
        raise ValueError(f"p = {field.p} beyond the brute-force bound 10^3")
    c2, c1, c0 = curve.cubic()
    m2 = m3 = m4 = 1  # the point at infinity
    for x in field.elements():
        fx = ((x + c2) * x + c1) * x + c0
        if not fx:
            m2 += 1
            m4 += 1
            continue
        if n == 2 or not fx.is_square():
            continue
        d = (3 * x + 2 * c2) * x + c1
        x2 = d * d / (4 * fx) - c2 - 2 * x
        if x2 == x:
            m3 += 2
        elif not ((x2 + c2) * x2 + c1) * x2 + c0:
            m4 += 2
    if n == 4:
        if m4 == m2:
            d2 = 2 if m2 > 1 else 1
            return TorsionStructure(m2 // d2, d2)
        return TorsionStructure(m4 // 4, 4)
    m = m2 if n == 2 else m3
    d2 = n if m > 1 else 1
    return TorsionStructure(m // d2, d2)


# ---------------------------------------------------------------------------
# Legendre curves: predicted 4-torsion and the j-map


def legendre_4torsion_predicted(lam: FpElem, p: int) -> TorsionStructure:
    """(2,2) iff -lam and lam-1 are both nonzero squares, else (2,4).

    Stated for p = 3 mod 4 only (that hypothesis makes the two cosets work
    out); other residue classes are rejected.
    """
    if p % 4 != 3:
        raise ValueError(f"p = {p} = 1 mod 4 is outside the classification hypothesis")
    F = Fp(p)
    lam = F.elem(lam)
    if not lam or lam == 1:
        raise ValueError("lambda must avoid 0 and 1")
    if (-lam).is_square() and (lam - 1).is_square():
        return TorsionStructure(2, 2)
    return TorsionStructure(2, 4)


def j_of_legendre(lam):
    """j = 256 (1 - lam + lam^2)^3 / (lam^2 (lam - 1)^2)."""
    if not lam or lam == 1:
        raise ValueError("lambda must avoid 0 and 1")
    num = 256 * (1 - lam + lam * lam) ** 3
    den = lam * lam * (lam - 1) * (lam - 1)
    return num / den


def curve_from_j(j) -> ShortWeierstrass:
    """A short Weierstrass curve with the requested j-invariant.

    For j outside {0, 1728} the standard model a = 3j(1728 - j),
    b = 2j(1728 - j)^2 works over any field of characteristic >= 5.
    """
    field = j.field
    if not j:
        return ShortWeierstrass(field.zero, field.one)
    if j == 1728:
        return ShortWeierstrass(field.one, field.zero)
    t = 1728 - j
    return ShortWeierstrass(3 * j * t, 2 * j * t * t)


# ---------------------------------------------------------------------------
# j-value sets


@lru_cache(maxsize=None)
def two_torsion_only_lambdas(p: int) -> tuple[FpElem, ...]:
    """Legendre parameters lam in F_p minus {0, 1}, in increasing order, whose
    curve has no rational point of order 4, by brute-force 4-torsion.

    Every Legendre curve has full rational 2-torsion, so these are the curves
    with E[4](F_p) = Z/2 x Z/2.  Swept once per p and cached.
    """
    F = Fp(p)
    return tuple(
        lam
        for lam in (F.elem(v) for v in range(2, p))
        if n_torsion_structure(LegendreCurve(lam), 4) == TorsionStructure(2, 2)
    )


def two_torsion_only_j_set(p: int) -> set[FpElem]:
    """j-invariants (excluding 0, 1728) of curves over F_p carrying full
    rational 2-torsion but no rational point of order 4.

    Every curve with full 2-torsion has a Legendre model, so sweeping lambda
    and classifying 4-torsion by brute force covers all classes; values are
    deduplicated by j, which classifies up to twist.
    """
    if p % 4 != 3:
        raise ValueError(f"p = {p} = 1 mod 4 never yields such curves (rejected)")
    if p > 10**3:
        raise ValueError(f"p = {p} beyond the brute-force bound 10^3")
    return _legendre_j_set(two_torsion_only_lambdas(p))


def legendre_image_j_set(p: int) -> set[FpElem]:
    """{ j(lam) : -lam and lam - 1 both nonzero squares } minus {0, 1728}."""
    F = Fp(p)
    lams = (F.elem(v) for v in range(2, p))
    return _legendre_j_set(lam for lam in lams if (-lam).is_square() and (lam - 1).is_square())


def _legendre_j_set(lams) -> set[FpElem]:
    """{ j(lam) : lam in lams } minus {0, 1728}."""
    out: set[FpElem] = set()
    for lam in lams:
        j = j_of_legendre(lam)
        if j and j != 1728:
            out.add(j)
    return out


def supersingular_j_set(p: int) -> set:
    """All supersingular j-invariants over F_p-bar, as a set of F_{p^2} values.

    j = 0 and j = 1728 go through exact point counts over F_p (trace 0
    exactly).  Every other j is the invariant 6912a / (4a + 27) of exactly
    one curve E_a: y^2 = x^3 + a x + a, a in F_{p^2} minus {0, -27/4}, and
    E_a is supersingular iff its trace -S(a) over F_{p^2} is 0 mod p, where
    S(a) = sum_x X(x^3 + a x + a) and X(z) = chi_p(N(z)) is the quadratic
    character of F_{p^2}.  Since x^3 + a x + a = (x + 1)(r(x) + a) with
    r(x) = x^3 / (x + 1), and x = -1 contributes X(-1) = 1,

        S(a) = 1 + sum_z h(z) X(z + a),   h(z) = sum_{x != -1, r(x) = z} X(x + 1),

    a cross-correlation over the additive group (Z/p)^2 of F_{p^2}, computed
    for every a at once with one 2-D real FFT on p x p arrays.
    """
    if p > 10**3:
        raise ValueError(f"p = {p} beyond the sweep bound 10^3")
    F = Fp(p)
    K = Fp2(p)
    out: set = set()
    for j in (0, 1728):
        if point_count(curve_from_j(F.elem(j))) == p + 1:
            out.add(K.from_fp(j))
    d = K.d
    chi = np.full(p, -1, dtype=np.int64)
    chi[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    chi[0] = 0
    inv = np.zeros(p, dtype=np.int64)  # inv[0] = 0 maps x = -1 to weight 0
    inv[1:] = [pow(v, -1, p) for v in range(1, p)]
    # rows indexed by c0, columns by c1, for z = c0 + c1 w
    c1 = np.arange(p, dtype=np.int64)
    dc1c1 = d * c1 * c1 % p
    X = np.empty((p, p), dtype=np.int64)
    h = np.zeros((p, p), dtype=np.int64)
    for c0 in range(p):
        X[c0] = chi[(c0 * c0 - dc1c1) % p]
        s0 = (c0 * c0 + dc1c1) % p  # x^2 = s0 + s1 w
        s1 = 2 * c0 * c1 % p
        t0 = (s0 * c0 + d * s1 % p * c1) % p  # x^3 = t0 + t1 w
        t1 = (s0 * c1 + s1 * c0) % p
        u0 = (c0 + 1) % p  # x + 1 = u0 + c1 w, norm nu
        nu = (u0 * u0 - dc1c1) % p
        ninv = inv[nu]
        r0 = (t0 * u0 - d * t1 % p * c1) % p * ninv % p  # x^3 conj(x+1) / nu
        r1 = (t1 * u0 - t0 * c1) % p * ninv % p
        np.add.at(h, (r0, r1), chi[nu])
    corr = np.fft.irfft2(np.conj(np.fft.rfft2(h)) * np.fft.rfft2(X), s=(p, p))
    rounded = np.rint(corr)
    err = float(np.abs(corr - rounded).max())
    if err >= 1e-3:
        raise ArithmeticError(f"character-sum correlation off an integer by {err} at p = {p}")
    trace0 = (rounded.astype(np.int64) + 1) % p == 0
    trace0[0, 0] = trace0[-27 * pow(4, -1, p) % p, 0] = False  # singular E_a
    for a0, a1 in zip(*np.nonzero(trace0)):
        a = K.elem(int(a0), int(a1))
        out.add(6912 * a / (4 * a + 27))
    return out


@lru_cache(maxsize=None)
def hex_zero_set(p: int) -> frozenset[Fp2Elem]:
    """{ 6912 (2a-1)^3 / (a (a+4)^3) : a in F_{p^2}, a^((p+1)/3) = -2^(1/3) }
    minus {0, 1728}, by exhaustive sweep, once per p and cached."""
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} not in the 5, 11 mod 12 classes")
    K = Fp2(p)
    target = -K.from_fp(cube_root_of_2(p))
    e = (p + 1) // 3
    out: set[Fp2Elem] = set()
    for a in K.elements():
        if a**e != target:
            continue
        den = a * (a + 4) ** 3
        if not den:
            continue
        j = 6912 * (2 * a - 1) ** 3 / den
        if j and j != 1728:
            out.add(j)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Hessian cubics


HESSIAN_CAP = 200  # largest p for which check_hessian_matches_hex runs
HESSIAN_TORSION_SAMPLES = 3  # admissible curves whose 3-torsion it checks


def hessian_j(b):
    """j-invariant of X^3 + Y^3 + 1 = 3b XY: 27 b^3 (b^3 + 8)^3 / (b^3 - 1)^3.

    The closed form comes from the flex reduction implemented in
    HessianCurve.cubic(); the test suite re-derives it symbolically and
    checks random values, so the formula here is never trusted on its own.
    """
    b3 = b * b * b
    den = (b3 - 1) ** 3
    if not den:
        raise ValueError("singular Hessian cubic: b^3 = 1")
    return 27 * b3 * (b3 + 8) ** 3 / den


@lru_cache(maxsize=None)
def _admissible_hessian_params(p: int) -> tuple[Fp2Elem, ...]:
    """The b in F_{p^2} with b^(p+1) = -2 and b^3 != 1, in Fp2Field.elements()
    order, by one sweep per p, cached.

    b^(p+1) is the F_{p^2}/F_p norm, so the sweep is a plain norm check;
    b^3 != 1 keeps E_b nonsingular.
    """
    return tuple(b for b in Fp2(p).elements() if b.norm() == -2 and b * b * b != 1)


def hessian_norm_condition_j_set(p: int) -> set[Fp2Elem]:
    """{ j(E_b) : b in F_{p^2}, b^(p+1) = -2, E_b nonsingular } minus {0, 1728}."""
    out: set[Fp2Elem] = set()
    for b in _admissible_hessian_params(p):
        j = hessian_j(b)
        if j and j != 1728:
            out.add(j)
    return out


def check_hessian_matches_hex(p: int) -> bool:
    """Whether the Hessian norm-condition j-set equals hex_zero_set(p), and the
    first HESSIAN_TORSION_SAMPLES admissible Hessian curves have full
    3-torsion over F_{p^2}.

    Both sides exclude {0, 1728}; the parametrizations can hit those values
    (p = 5 does) but the zero set never contains them.
    """
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} not in the 5, 11 mod 12 classes")
    if p > HESSIAN_CAP:
        raise ValueError(f"p = {p} beyond the stated bound {HESSIAN_CAP}")
    if hessian_norm_condition_j_set(p) != hex_zero_set(p):
        return False
    return all(
        n_torsion_structure(HessianCurve(b), 3) == TorsionStructure(3, 3)
        for b in _admissible_hessian_params(p)[:HESSIAN_TORSION_SAMPLES]
    )
