"""Truncated formal power series in q with exact coefficients.

A QSeries holds a dense coefficient window: ``coeffs[i]`` is the coefficient
of q^(shift+i).  Coefficients below the shift are exactly zero; coefficients
at or above ``order = shift + len(coeffs)`` are unknown.  Arithmetic never
claims precision beyond what the inputs support.  The shift is 0 for every
ordinary series; only the j-function (and quotients that produce it) carry
shift -1, giving a single Laurent object without a general Laurent type.

Coefficients are Python ints or Fractions; nothing is ever rounded.  Integer
powers have one kernel, ``_power``: J. C. P. Miller's recurrence on the
cleared integers, over the base's nonzero terms, with one exact division per
coefficient.  Delta, j, the eta quotients and the mod-p solve's S = q j take
their Euler-product factors prod (1 - q^(mk))^e from it, for either sign of
e, so the sparse pentagonal series is powered in O(n sqrt n) with no product
and no inversion.

The one function that leaves QSeries, ``eisenstein_mod``, lists E_k's
coefficients as residues mod p, with -2k/B_k mod p from Faulhaber's sum (no
exact Bernoulli number when k < p).  The mod-p solve reduces its exact 1/E4
and 1/E6 from ``invert_unit``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import mul

from .exact_arith import Rat, bernoulli, eisenstein_factor_mod


class QSeries:
    """Truncated series sum(coeffs[i] * q^(shift+i))."""

    __slots__ = ("coeffs", "shift")

    def __init__(self, coeffs, shift: int = 0):
        self.coeffs = list(coeffs)
        self.shift = shift
        if not self.coeffs:
            raise ValueError("empty coefficient window")

    # -- basic accessors ----------------------------------------------------

    @property
    def order(self) -> int:
        """First exponent whose coefficient is unknown."""
        return self.shift + len(self.coeffs)

    def coefficient(self, n: int):
        """Coefficient of q^n; exact 0 below the window, error at/after order."""
        if n < self.shift:
            return 0
        if n >= self.order:
            raise IndexError(f"coefficient of q^{n} is beyond truncation order {self.order}")
        return self.coeffs[n - self.shift]

    def valuation(self) -> int:
        """Exponent of the first nonzero known coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.shift + i
        raise ValueError("series is 0 to truncation order; valuation undefined")

    def constant_term(self):
        return self.coefficient(0) if self.order > 0 else 0

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([0] * order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1] + [0] * (order - 1))

    def truncate(self, new_order: int) -> "QSeries":
        if new_order > self.order:
            raise ValueError(f"cannot extend precision {self.order} to {new_order}")
        if new_order <= self.shift:
            raise ValueError("truncation would leave an empty window")
        return QSeries(self.coeffs[: new_order - self.shift], self.shift)

    # -- ring operations ----------------------------------------------------

    def _scalar(self, c) -> "QSeries":
        return QSeries([c * a for a in self.coeffs], self.shift)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries([other] + [0] * max(self.order - 1, 0))
        if not isinstance(other, QSeries):
            return NotImplemented
        shift = min(self.shift, other.shift)
        order = min(self.order, other.order)
        if order <= shift:
            raise ValueError("windows do not overlap")
        out = []
        for e in range(shift, order):
            a = self.coeffs[e - self.shift] if e >= self.shift else 0
            b = other.coeffs[e - other.shift] if e >= other.shift else 0
            out.append(a + b)
        return QSeries(out, shift)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-a for a in self.coeffs], self.shift)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product of two windows, or of a window and a scalar.

        The product runs in denominator-cleared ints: with self = A/Da and
        other = B/Db, the int convolution A*B is divided once by Da*Db, so the
        coefficients are ints when every one is integral and Fractions
        otherwise.  With only int coefficients Da*Db = 1 and nothing is divided.
        """
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        (a, da), (b, db) = _cleared(self.coeffs[:n]), _cleared(other.coeffs[:n])
        out = [0] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i):
                if b[j]:
                    out[i + j] += ai * b[j]
        d = da * db
        return QSeries(out if d == 1 else _divided(out, [d] * n), self.shift + other.shift)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QSeries":
        """self^e for any integer e, on the window repeated products give.

        The valuation is factored out first: self = q^v u with u(0) != 0.
        For e >= 2 the result keeps self's window length at shift e * shift,
        so it is 0 below q^(e v) and u^e fills the rest; a zero window stays
        zero.  For e < 0 it is u^e at shift e v, on u's window.  u^e comes
        from ``_power`` on u's cleared integers whenever it is integral: every
        e >= 0, and e < 0 when u has int coefficients and u(0) = +-1.  Any
        other negative power is (1/self)^(-e).
        """
        n = len(self.coeffs)
        if e == 0:
            return QSeries.one(n)
        if e == 1:
            return QSeries(self.coeffs, self.shift)
        if e > 0 and not any(self.coeffs):
            return QSeries([0] * n, e * self.shift)
        v = self.valuation() - self.shift
        U, D = _cleared(self.coeffs[v:])
        if e < 0:
            if D != 1 or U[0] not in (1, -1):
                return self._invert() ** -e
            return QSeries(_power(U, e, n - v), e * (self.shift + v))
        zeros = min(e * v, n)
        out = [0] * zeros + _power(U, e, n - zeros)
        return QSeries(out if D == 1 else _divided(out, [D**e] * n), e * self.shift)

    def _invert(self) -> "QSeries":
        """Inverse allowing positive valuation (internal; used by ``/``,
        ``invert_unit`` and the negative powers ``_power`` cannot take).

        Runs in denominator-cleared ints: with the unit part u = U/D and
        u0 = U_0, the integers B_0 = 1, B_k = -sum_{i=1..k} U_i u0^(i-1) B_(k-i)
        give 1/u = sum D B_k / u0^(k+1) q^k, each divided once at the end.
        """
        v = self.valuation() - self.shift
        U, D = _cleared(self.coeffs[v:])
        n = len(U)
        pows = [1] * (n + 1)  # u0^0 .. u0^n
        for i in range(1, n + 1):
            pows[i] = pows[i - 1] * U[0]
        P = [U[i] * pows[i - 1] for i in range(1, n)]  # U_i u0^(i-1), from i = 1
        B = [1] + [0] * (n - 1)
        for k in range(1, n):
            B[k] = -sum(map(mul, P[:k], B[k - 1 :: -1]))
        return QSeries(_divided([D * b for b in B], pows[1:]), -(self.shift + v))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scalar(Fraction(1, 1) / other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self * other._invert()

    def dilate(self, m: int) -> "QSeries":
        """Substitute q -> q^m (m >= 1)."""
        if m < 1:
            raise ValueError("dilation factor must be >= 1")
        out = [0] * (m * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return QSeries(out, m * self.shift)

    # -- comparison ---------------------------------------------------------

    def first_mismatch(self, other: "QSeries", upto: int | None = None) -> int | None:
        """Smallest exponent where the two series differ, or None.

        Compares up to min(order) by default (or `upto` when given); exponents
        below either window count as zero.
        """
        hi = min(self.order, other.order)
        if upto is not None:
            if upto > hi:
                raise ValueError(f"comparison order {upto} exceeds precision {hi}")
            hi = upto
        lo = min(self.shift, other.shift)
        for e in range(lo, hi):
            if self.coefficient(e) != other.coefficient(e):
                return e
        return None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.first_mismatch(other) is None

    def __repr__(self):
        return f"QSeries({self.coeffs}, shift={self.shift})"


# ---------------------------------------------------------------------------
# inversion, rational powers and composition


def _power(U: list[int], e: int, n: int) -> list[int]:
    """The integers G_0..G_(n-1) of (sum U_i q^i)^e, for U_0 != 0, n <= len(U).

    J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7):
    k U_0 G_k = sum_{i=1..k} ((e+1) i - k) U_i G_(k-i), with G_0 = U_0^e.
    The sum runs over U's nonzero terms only, so a sparse base such as the
    pentagonal series costs O(n * terms).  Each division by k U_0 is exact
    when the power is integral: e >= 0, or U_0 = +-1.
    """
    u0 = U[0]
    terms = [(i, (e + 1) * i * x, x) for i, x in enumerate(U[:n]) if i and x]
    G = [u0 ** abs(e)]  # U_0^e, as U_0 = +-1 when e < 0
    for k in range(1, n):
        acc = 0
        for i, a, x in terms:
            if i > k:
                break
            acc += (a - k * x) * G[k - i]
        G.append(acc // (k * u0))
    return G[:n]


def invert_unit(f: QSeries) -> QSeries:
    """Inverse of a series with invertible constant term."""
    if f.shift != 0 or not f.coeffs[0]:
        raise ValueError("non-unit constant term")
    return f._invert()


def _cleared(coeffs) -> tuple[list[int], int]:
    """Integers C and the lcm D of the denominators, with coeffs[i] = C[i] / D."""
    d = math.lcm(*[c.denominator for c in coeffs])
    if d == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _divided(nums: list[int], dens: list[int]) -> list:
    """nums[k] / dens[k]: ints when every quotient is integral, else Fractions."""
    if all(x % d == 0 for x, d in zip(nums, dens)):
        return [x // d for x, d in zip(nums, dens)]
    return [Fraction(x, d) for x, d in zip(nums, dens)]


def pow_rational(f: QSeries, r: Rat | int) -> QSeries:
    """f^r for rational r, requiring f(0) = 1.

    Uses the coefficient recurrence k*g_k = sum_{i=1..k} ((r+1)i - k) f_i g_{k-i},
    which agrees with the binomial series term by term.  It runs in
    denominator-cleared ints: with r = a/b and f = F/D, the integers
    G_k = g_k * (bD)^k * k! satisfy
    G_k = sum_i ((a+b)i - bk) F_i (bD)^(i-1) ((k-1)!/(k-i)!) G_{k-i},
    and each g_k is divided out once at the end.
    """
    if f.shift != 0 or f.coeffs[0] != 1:
        raise ValueError("constant term must be 1 for rational powers")
    r = Fraction(r)
    a, b = r.numerator, r.denominator
    F, D = _cleared(f.coeffs)
    bD = b * D
    n = len(F)
    # P[i] = F_i (bD)^(i-1): the k-independent part of each term
    P = [0] * n
    scale = 1
    for i in range(1, n):
        P[i] = F[i] * scale
        scale *= bD
    G = [1] + [0] * (n - 1)
    dens = [1] * n
    for k in range(1, n):
        acc = 0
        falling = 1  # (k-1)! / (k-i)!
        for i in range(1, k + 1):
            if P[i]:
                acc += ((a + b) * i - b * k) * P[i] * falling * G[k - i]
            falling *= k - i
        G[k] = acc
        dens[k] = dens[k - 1] * bD * k
    return QSeries(_divided(G, dens))


def compose(outer, inner: QSeries) -> QSeries:
    """Substitute `inner` (constant term 0) into `outer` (series in x).

    `outer` may be a plain coefficient list, read as an exact polynomial,
    or a QSeries with shift 0, known to x^(N-1) for N = outer.order; only
    its first `inner.order` coefficients can matter.  With a list the result
    precision is inner's precision.  With a QSeries the unknown x^N term
    enters at q^(vN), v the inner's valuation, so the result stops at order
    min(inner.order, v N).

    The sum runs in denominator-cleared ints: with outer = C/D and the inner
    window I/E (shift 0, so I_0 = 0), outer(inner) = sum_m C_m E^(N-m) I^m /
    (D E^N), truncated to inner's order, and divided once at the end.  Each
    power I^m is built from I^(m-1), at index m - 1 and above since I^m has
    valuation >= m, and is dropped once added in.
    """
    if inner.shift < 0:
        raise ValueError("inner series must be an ordinary power series, not a Laurent window")
    if inner.constant_term() != 0:
        raise ValueError("inner series must have zero constant term")
    n = inner.order
    if isinstance(outer, QSeries):
        if outer.shift != 0:
            raise ValueError("outer series must be an ordinary power series")
        outer_coeffs = outer.coeffs
        v = inner.valuation() if any(inner.coeffs) else n
        n = min(n, v * outer.order)
    else:
        outer_coeffs = list(outer)
    if not outer_coeffs:
        return QSeries.zero(n)
    C, D = _cleared(outer_coeffs[:n])
    I, E = _cleared(([0] * inner.shift + inner.coeffs)[:n])
    terms = [(j, x) for j, x in enumerate(I) if x]
    N = len(C) - 1
    e_pows = [1] * (N + 1)  # E^0 .. E^N
    for m in range(1, N + 1):
        e_pows[m] = e_pows[m - 1] * E
    out = [C[0] * e_pows[N]] + [0] * (n - 1)
    row = [1] + [0] * (n - 1)  # I^m
    for m in range(1, N + 1):
        prev, row = row, [0] * n
        for i in range(m - 1, n):
            pi = prev[i]
            if pi:
                for j, x in terms:
                    if i + j >= n:
                        break
                    row[i + j] += pi * x
        cm = C[m] * e_pows[N - m]
        if cm:
            for k in range(m, n):
                if row[k]:
                    out[k] += cm * row[k]
    return QSeries(_divided(out, [D * e_pows[N]] * n))


# ---------------------------------------------------------------------------
# classical series


def eisenstein(k: int, n: int) -> QSeries:
    """E_k = 1 - (2k/B_k) * sum sigma_{k-1}(m) q^m, truncated to order n.

    The coefficients are ints when -2k/B_k is an integer (k = 4, 6, 8, 10,
    14) or n < 2, and Fractions otherwise: sigma_{k-1}(1) = 1, so the
    coefficient of q is -2k/B_k itself.
    """
    if k < 4 or k % 2:
        raise ValueError(f"weight must be even and >= 4, got {k}")
    factor = Fraction(-2 * k) / bernoulli(k)
    sig = [0] * n
    for d in range(1, n):
        dk = d ** (k - 1)
        for m in range(d, n, d):
            sig[m] += dk
    if factor.denominator == 1 or n < 2:
        return QSeries([1] + [factor.numerator * s for s in sig[1:]])
    return QSeries([Fraction(1)] + [factor * s for s in sig[1:]])


def eisenstein_mod(k: int, n: int, p: int) -> list[int]:
    """The coefficients of q^0..q^(n-1) of E_k, reduced mod p.

    -2k/B_k mod p comes once from ``eisenstein_factor_mod``, which reads
    p B_k mod p^2 from Faulhaber's sum of a^k over a < p for k < p and
    reduces the exact B_k only past that; p in the denominator of -2k/B_k
    raises ValueError.  For k = p - 1 the factor comes out 0, computed rather
    than assumed: the sum is -1 mod p, so p B_(p-1) is a p-unit, the p that
    von Staudt-Clausen puts in the denominator of B_(p-1).  A zero factor
    gives 1 with no sigma sums; otherwise each sigma_(k-1)(m) is summed from
    d^(k-1) mod p.
    """
    if k < 4 or k % 2:
        raise ValueError(f"weight must be even and >= 4, got {k}")
    factor = eisenstein_factor_mod(k, p)
    if not factor:
        return [1] + [0] * (n - 1)
    sig = [0] * n
    for d in range(1, n):
        dk = pow(d, k - 1, p)
        for m in range(d, n, d):
            sig[m] += dk
    return [1] + [factor * s % p for s in sig[1:]]


def euler_product(n: int, step: int = 1) -> QSeries:
    """prod_{m>=1} (1 - q^(step*m)) to order n, by the pentagonal recurrence."""
    coeffs = [0] * n
    coeffs[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2 * step
        e2 = k * (3 * k + 1) // 2 * step
        if e1 >= n and e2 >= n:
            break
        s = 1 if k % 2 == 0 else -1
        if e1 < n:
            coeffs[e1] = s
        if e2 < n:
            coeffs[e2] = s
        k += 1
    return QSeries(coeffs)


def delta(n: int) -> QSeries:
    """Discriminant form q * prod (1-q^m)^24, truncated to order n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return QSeries([0])
    p24 = euler_product(n - 1) ** 24
    return QSeries([0] + p24.coeffs)


def j_invariant(n: int) -> QSeries:
    """j = E_4^3 / Delta as the one Laurent object (window q^-1 .. q^(n-2)).

    Built as q^-1 E_4^3 prod (1 - q^m)^-24, two powers by ``_power`` and one
    product, so Delta is never inverted as a Laurent series.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return QSeries((eisenstein(4, n) ** 3 * euler_product(n) ** -24).coeffs, -1)


def theta_Z(n: int) -> QSeries:
    """Integer-lattice theta series: 1 + 2q + 2q^4 + 2q^9 + ..."""
    coeffs = [0] * n
    coeffs[0] = 1
    r = 1
    while r * r < n:
        coeffs[r * r] = 2
        r += 1
    return QSeries(coeffs)


def theta_H(n: int) -> QSeries:
    """Hexagonal-lattice theta series: counts m^2 + mn + n^2 = exponent."""
    coeffs = [0] * n
    box = math.isqrt(4 * n // 3) + 2
    for m in range(-box, box + 1):
        for k in range(-box, box + 1):
            e = m * m + m * k + k * k
            if e < n:
                coeffs[e] += 1
    return QSeries(coeffs)


def _eta_quotient(parts: list[tuple[int, int]], n: int) -> QSeries:
    """prod over (m, e) of eta(m*tau)^e, with the total shift folded in.

    Each factor prod (1 - q^(mk))^e is one ``_power`` of the sparse
    pentagonal series, for either sign of e.  Requires the combined
    fractional exponent sum(m*e)/24 to be a non-negative integer; the result
    is an ordinary series with that valuation.
    """
    shift = Fraction(sum(m * e for m, e in parts), 24)
    if shift.denominator != 1 or shift < 0:
        raise ValueError(f"eta quotient has non-integral shift {shift}")
    shift = int(shift)
    work = n + shift
    acc = reduce(mul, [euler_product(work, step=m) ** e for m, e in parts])
    if shift == 0:
        return acc.truncate(n)
    return QSeries([0] * shift + acc.coeffs[: n - shift])


def t3(n: int) -> QSeries:
    """Degree-3 Hauptmodul-style series: starts -108q + 1620q^2 - 18468q^3.

    Built from r = q * (prod(1-q^{3m}) / prod(1-q^m))^12 via
    t3 = -108 r / (1 + 27 r).
    """
    work = n + 2
    r = _eta_quotient([(3, 12), (1, -12)], work)
    t = (r * -108) * invert_unit(QSeries.one(work) + r * 27)
    return t.truncate(n)


def lambda_eta_quotient(n: int) -> QSeries:
    """The quotient 16 * (eta(t) eta(4t)^2 / eta(2t)^3)^8: 16q - 128q^2 + ...

    Integral q-powers throughout; its square-root-of-q counterpart never
    appears here (see hauptmodul_mismatch for the convention used).
    """
    return _eta_quotient([(1, 8), (4, 16), (2, -24)], n) * 16


def hauptmodul_mismatch(which: str, n: int) -> int | None:
    """First exponent below n where the j-relation for t3 or the lambda
    quotient fails, or None when it holds to order n.

    For t3:     j * t3 * (t3+4)^3 = 3^3 * 4^4 * (2*t3 - 1)^3.
    For lambda: the quotient L satisfies j(q^2) * L^2 (L-1)^2 = 256 (1-L+L^2)^3,
    matching L against the square-argument convention.
    """
    if n < 2:
        raise ValueError("verification order must be >= 2")
    if which == "t3":
        work = n + 4
        t = t3(work)
        j = j_invariant(work)
        lhs = j * t * (t + 4) ** 3
        rhs = (t * 2 - 1) ** 3 * (27 * 256)
        return lhs.first_mismatch(rhs, upto=n)
    if which == "lambda":
        work = n + 4
        lam = lambda_eta_quotient(work)
        j2 = j_invariant(work // 2 + 2).dilate(2)
        lam2 = lam ** 2
        lhs = j2 * lam2 * ((lam - 1) ** 2)
        rhs = (QSeries.one(work) - lam + lam2) ** 3 * 256
        return lhs.first_mismatch(rhs, upto=n)
    raise ValueError(f"unknown hauptmodul relation {which!r}")
