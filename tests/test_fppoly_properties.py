"""Property tests of the F_p polynomial algebra against sympy.

Every splitting decision in the package rests on ``factor_pattern``, so it is
checked here against sympy's ``factor_list`` modulo small primes, together
with ``gcd``, ``divmod`` and the two splitting predicates built on it.
Polynomials are drawn as products of random factors raised to small powers
(the p-th power included), so repeated factors and zero derivatives are
common.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from theta_forms.fppoly import (  # noqa: E402
    FpPoly,
    factor_pattern,
    gcd,
    splits_into_linears,
    splits_over_fp2,
)

X = sympy.symbols("x")
PRIMES = (3, 5, 7, 11, 13)


def _to_sympy(f: FpPoly):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], X, modulus=f.p)


def _from_sympy(g, p: int) -> FpPoly:
    return FpPoly([int(c) % p for c in reversed(g.all_coeffs())], p)


def _sympy_pattern(f: FpPoly) -> tuple:
    _lc, factors = _to_sympy(f).factor_list()
    return tuple(sorted(Counter((g.degree(), m) for g, m in factors).items()))


@st.composite
def polys(draw, p=None):
    """A nonzero polynomial mod p: a unit times up to four factor powers."""
    if p is None:
        p = draw(st.sampled_from(PRIMES))
    f = FpPoly([draw(st.integers(1, p - 1))], p)
    for _ in range(draw(st.integers(0, 4))):
        deg = draw(st.integers(1, 5))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg))
        factor = FpPoly(coeffs + [1], p)
        for _ in range(draw(st.sampled_from([1, 1, 2, 3, p]))):
            f = f * factor
    return f


@st.composite
def poly_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return draw(polys(p)), draw(polys(p))


@given(polys())
def test_factor_pattern_matches_sympy(f):
    assert factor_pattern(f).pairs == _sympy_pattern(f)


@given(poly_pairs())
def test_gcd_matches_sympy(fg):
    f, g = fg
    assert gcd(f, g) == _from_sympy(_to_sympy(f).gcd(_to_sympy(g)).monic(), f.p)


@given(poly_pairs())
def test_divmod_matches_sympy(fg):
    f, g = fg
    q, r = _to_sympy(f).div(_to_sympy(g))
    assert divmod(f, g) == (_from_sympy(q, f.p), _from_sympy(r, f.p))


@given(polys())
def test_splitting_predicates_match_sympy(f):
    _lc, factors = _to_sympy(f).factor_list()
    if any(m > 1 for _g, m in factors):
        for split in (splits_into_linears, splits_over_fp2):
            with pytest.raises(ValueError, match="squarefree"):
                split(f)
        return
    degrees = {g.degree() for g, _m in factors}
    assert splits_into_linears(f) == (degrees <= {1})
    assert splits_over_fp2(f) == (degrees <= {1, 2})
