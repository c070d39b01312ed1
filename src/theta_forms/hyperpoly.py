"""Gauss hypergeometric coefficient streams and the polynomial families.

Six parameter triples are hard-bound to family tags (U0, U1, W0, W1, V0, V1)
so they cannot drift.  Each family's scaled stream c_m * 1728^m turns the
series in 1/j into the degree-n truncated polynomials in j that the
congruence sweeps compare against; the same streams feed the
vanishing-window checks, the residue constant, the series identities and the
lambda-side polynomial G_p.

Two versions of the ratio recurrence
c_(m+1) = c_m (alpha+m)(beta+m) / ((gamma+m)(m+1)) run here.  The exact one
runs in Fractions, so p-divisibility can be inspected honestly: the
vanishing windows and the residue constant read it.  Each parameter triple
has one exact stream (``_STREAMS``), extended in place as readers ask for
more terms; ``f21_coefficients`` hands out copies of its prefixes, and the
other readers index it.  The identity rows expand F(...; 1728/j) as
sum c_m 1728^m t^m over the t-table of ``modforms.series_in_t``, the table
the basis solve reads.  The mod-p recurrence (``truncated_poly_mod``,
``gp_poly``) runs the same recurrence in residues.  Reduction mod p is a
ring map on the rationals with no p in the denominator, so the mod-p stream
up to c_n equals the exact stream reduced mod p whenever no factor
(gamma+m)(m+1) with m < n is 0 mod p.  The mod-p stream raises ValueError
otherwise, even where the exact value is p-integral because the p cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import Rat, padic_valuation, rat_mod
from .fppoly import FpPoly
from .modforms import RatPoly, series_in_t
from .qseries import QSeries, compose, eisenstein, invert_unit, pow_rational, theta_H, theta_Z


@dataclass(frozen=True)
class HGParams:
    """Upper parameters alpha, beta and lower parameter gamma of 2F1."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        g = Fraction(self.gamma)
        if g.denominator == 1 and g <= 0:
            raise ValueError(f"gamma = {g} is a non-positive integer")


def _params(a, b, c) -> HGParams:
    return HGParams(Fraction(*a), Fraction(*b), Fraction(*c))


FAMILY_PARAMS: dict[str, HGParams] = {
    "U0": _params((1, 12), (5, 12), (1, 1)),
    "U1": _params((7, 12), (11, 12), (1, 1)),
    "W0": _params((-1, 24), (7, 24), (3, 4)),
    "W1": _params((11, 24), (19, 24), (3, 4)),
    "V0": _params((-1, 12), (1, 4), (2, 3)),
    "V1": _params((5, 12), (3, 4), (2, 3)),
}


def _resolve_params(spec) -> HGParams:
    if isinstance(spec, HGParams):
        return spec
    if isinstance(spec, str):
        if spec not in FAMILY_PARAMS:
            raise ValueError(f"unknown family tag {spec!r}")
        return FAMILY_PARAMS[spec]
    raise TypeError(f"expected family tag or HGParams; got {spec!r}")


# ---------------------------------------------------------------------------
# coefficient streams


def pochhammer(x: Rat | int, n: int) -> Rat:
    """(x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError("negative Pochhammer index")
    acc = Fraction(1)
    x = Fraction(x)
    for i in range(n):
        acc *= x + i
    return acc


# parameter triple -> its exact stream c_0, c_1, ..., shared by every reader
# and extended in place; readers index or slice it and never mutate it
_STREAMS: dict[HGParams, list[Rat]] = {}


def _stream(params, m_max: int) -> list[Rat]:
    """The shared exact stream of ``params``, extended to at least c_m_max
    by the ratio recurrence."""
    hp = _resolve_params(params)
    cs = _STREAMS.setdefault(hp, [Fraction(1)])
    a, b, g = hp.alpha, hp.beta, hp.gamma
    for m in range(len(cs) - 1, m_max):
        cs.append(cs[-1] * (a + m) * (b + m) / ((g + m) * (m + 1)))
    return cs


def f21_coefficients(params, m_max: int) -> list[Rat]:
    """c_m = (a)_m (b)_m / ((g)_m m!) for m = 0..m_max, as a new list."""
    return _stream(params, m_max)[: m_max + 1]


def scaled_coefficient_mod(params, m: int, p: int) -> int:
    """The residue of c_m * 1728^m mod p (the j-polynomial coefficient scale)."""
    return rat_mod(_stream(params, m)[m] * Fraction(1728) ** m, p)


def _stream_mod(params, n: int, p: int, scale: int) -> list[int]:
    """c_m * scale^m mod p for m = 0..n, by the ratio recurrence in residues.

    Raises ValueError when some (gamma+m)(m+1) with m < n is 0 mod p, the one
    case where these residues need not be the exact stream reduced mod p.
    """
    hp = _resolve_params(params)
    a, b, g = (rat_mod(x, p) for x in (hp.alpha, hp.beta, hp.gamma))
    out = [1]
    for m in range(n):
        den = (g + m) * (m + 1) % p
        if not den:
            raise ValueError(f"p = {p} divides (gamma+m)(m+1) at m = {m}; the mod-p stream stops")
        out.append(out[-1] * scale * (a + m) * (b + m) * pow(den, -1, p) % p)
    return out


def truncated_poly_mod(fam, n: int, p: int) -> FpPoly:
    """``truncated_poly(fam, n)`` mod p, from the mod-p stream.

    Raises ValueError when some (gamma+m)(m+1) with m < n is 0 mod p.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    return FpPoly(_stream_mod(fam, n, p, 1728)[::-1], p)


def truncated_poly(fam, n: int) -> RatPoly:
    """The degree-n polynomial sum_{m=0}^{n} c_m 1728^m j^(n-m).

    This is the polynomial part of j^n * F(...; 1728/j): the family's series
    tail past m = n is dropped.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    cs = _stream(fam, n)
    coeffs = [cs[n - i] * Fraction(1728) ** (n - i) for i in range(n + 1)]
    return RatPoly(coeffs)


# ---------------------------------------------------------------------------
# the lambda-side polynomial


_GP_PARAMS = HGParams(Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2))


def gp_poly(p: int) -> FpPoly:
    """The mod-p polynomial sum_{m<=(p+1)/4} (-1/4)_m (1/4)_m / ((1/2)_m m!) x^m.

    Defined for p = 3 mod 4 (so the truncation bound (p+1)/4 is integral).
    It runs on the mod-p stream, whose guard never trips here: for
    m < (p+1)/4 neither 1/2 + m nor m + 1 is 0 mod p.
    """
    if p < 7 or p % 4 != 3:
        raise ValueError(f"p = {p} is not a prime = 3 mod 4, >= 7")
    return FpPoly(_stream_mod(_GP_PARAMS, (p + 1) // 4, p, 1), p)


# ---------------------------------------------------------------------------
# vanishing windows


_WINDOW_RULES: dict[str, tuple[tuple[int, ...], int]] = {
    # tag -> (admissible residues, modulus); (lo, hi) computed per family
    "W0": ((7, 23), 24),
    "W1": ((11, 19), 24),
    "V0": ((11,), 12),
    "V1": ((5,), 12),
}


def _window_bounds(tag: str, p: int) -> tuple[int, int]:
    residues, modulus = _WINDOW_RULES[tag]
    if p % modulus not in residues:
        raise ValueError(
            f"p = {p} is not admissible for {tag} (needs p mod {modulus} in {residues})"
        )
    if tag == "W0":
        n = (p + 1) // 24 if p % 24 == 23 else (p - 7) // 24
        return n, 6 * n
    if tag == "W1":
        n = (p - 11) // 24 if p % 24 == 11 else (p - 19) // 24
        return n, 6 * n
    if tag == "V0":
        n = (p + 1) // 12
        return n, 4 * n
    n = (p - 5) // 12
    return n, 4 * n + 2


def vanishing_window(tag: str, p: int) -> tuple[int, int, bool]:
    """The open coefficient window (lo, hi) forced to vanish mod p, and whether
    the family's exact stream actually vanishes there.
    """
    if tag not in _WINDOW_RULES:
        raise ValueError(f"family {tag} has no vanishing-window statement")
    lo, hi = _window_bounds(tag, p)
    cs = _stream(tag, hi - 1)
    return lo, hi, all(cs[m] == 0 or padic_valuation(cs[m], p) >= 1 for m in range(lo + 1, hi))


def admissible_vanishing_primes(tag: str, count: int) -> list[int]:
    """The smallest `count` primes in the family's admissible residue classes."""
    from .exact_arith import is_prime

    if tag not in _WINDOW_RULES:
        raise ValueError(f"family {tag} has no vanishing-window statement")
    residues, modulus = _WINDOW_RULES[tag]
    out = []
    p = 5
    while len(out) < count:
        if p % modulus in residues and is_prime(p):
            out.append(p)
        p += 2
    return out


# ---------------------------------------------------------------------------
# series identities (first mismatching exponent, or None when they hold)


def euler_transform_mismatch(order: int) -> int | None:
    """(1-z)^(-1/2) * F(W0; z) against F(W1; z) as z-series."""
    w0 = QSeries(f21_coefficients("W0", order - 1))
    w1 = QSeries(f21_coefficients("W1", order - 1))
    front = pow_rational(QSeries([1, -1] + [0] * (order - 2)), Fraction(-1, 2))
    return (front * w0).first_mismatch(w1, upto=order)


def cubic_transform_mismatch(order: int) -> int | None:
    """F(W0; 27 L^2(L-1)^2 / (4 (1-L+L^2)^3)) against
    (1-L+L^2)^(-1/8) * F(-1/4, 1/4; 1/2; L) as series in L."""
    n = order
    lam = QSeries([0, 1] + [0] * (n - 2))
    one = QSeries.one(n)
    poly = one - lam + lam * lam
    num = (lam * lam) * ((lam - 1) ** 2) * 27
    den = (poly ** 3) * 4
    inner = num * invert_unit(den)
    lhs = compose(f21_coefficients("W0", n), inner)
    front = pow_rational(poly, Fraction(-1, 8))
    rhs = front * QSeries(f21_coefficients(_GP_PARAMS, n - 1))
    return lhs.first_mismatch(rhs, upto=n)


def degenerate_eval_mismatch(order: int) -> int | None:
    """F(V0; y(y+4)^3 / (4 (2y-1)^3)) against (1-2y)^(-1/4) as series in y."""
    n = order
    y = QSeries([0, 1] + [0] * (n - 2))
    num = y * ((y + 4) ** 3)
    den = ((y * 2 - 1) ** 3) * 4
    inner = num * invert_unit(den)
    lhs = compose(f21_coefficients("V0", n), inner)
    rhs = pow_rational(y * -2 + 1, Fraction(-1, 4))
    return lhs.first_mismatch(rhs, upto=n)


def _f21_of_1728_over_j(tag: str, order: int) -> QSeries:
    """F(tag; 1728/j) as a q-series to q^(order-1).

    Since 1728/j = 1728 t, this is sum c_m 1728^m t^m over the shared t-table
    of ``series_in_t``, which every family and the basis solve read.
    """
    cs = f21_coefficients(tag, order - 1)
    return series_in_t([c * 1728**m for m, c in enumerate(cs)], order)


def theta_z_hypergeometric_mismatch(order: int) -> int | None:
    """theta_Z against E4^(1/8) * F(W0; 1728/j) as q-series."""
    rhs = pow_rational(eisenstein(4, order), Fraction(1, 8)) * _f21_of_1728_over_j("W0", order)
    return theta_Z(order).first_mismatch(rhs, upto=order)


def theta_h_hypergeometric_mismatch(order: int) -> int | None:
    """theta_H against E4^(1/4) * F(V0; 1728/j) as q-series."""
    rhs = pow_rational(eisenstein(4, order), Fraction(1, 4)) * _f21_of_1728_over_j("V0", order)
    return theta_H(order).first_mismatch(rhs, upto=order)


def e4_quarter_hypergeometric_mismatch(order: int) -> int | None:
    """E4^(1/4) against F(U0; 1728/j) as q-series."""
    lhs = pow_rational(eisenstein(4, order), Fraction(1, 4))
    return lhs.first_mismatch(_f21_of_1728_over_j("U0", order), upto=order)
