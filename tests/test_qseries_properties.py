"""Property tests of the QSeries ring laws, integer powers, inversion and
the series transforms.

Windows are drawn with int or Fraction coefficients and shift 0 or -1 (the
j-function's Laurent window).  Operands of one law share a shift and a
window length, so both sides of each identity carry the same precision.
The integer-scaled `compose` and `pow_rational` are checked against the
Fraction references in test_qseries.py, on inner series of shift 0, 1 and 2,
series products against a schoolbook convolution of Fractions, and the
integer-scaled inverse against the Fraction recurrence below.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_qseries import _compose_reference, _poly_mul, _pow_rational_reference  # noqa: E402
from theta_forms.qseries import (  # noqa: E402
    QSeries,
    compose,
    delta,
    invert_unit,
    j_invariant,
    pow_rational,
)

INTS = st.integers(-50, 50)
FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def windows(draw, count, shifts=(0, -1), unit=False):
    """``count`` series with one shift, one length and one coefficient kind."""
    n = draw(st.integers(1, 10))
    shift = draw(st.sampled_from(shifts))
    kind = draw(st.sampled_from([INTS, FRACTIONS]))
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(kind, min_size=n, max_size=n))
        if unit and not coeffs[0]:
            coeffs[0] = 1
        out.append(QSeries(coeffs, shift))
    return out


MIXED = st.one_of(INTS, FRACTIONS)


@given(
    st.lists(MIXED, min_size=1, max_size=10),
    st.lists(MIXED, min_size=1, max_size=10),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([-1, 0, 1]),
)
def test_mul_matches_schoolbook_fractions(a, b, sa, sb):
    got = QSeries(a, sa) * QSeries(b, sb)
    want = _poly_mul([Fraction(c) for c in a], [Fraction(c) for c in b], min(len(a), len(b)))
    assert got.shift == sa + sb
    assert got.coeffs == want
    # the type rule: ints when every coefficient is integral, else Fractions
    integral = all(Fraction(c).denominator == 1 for c in want)
    assert {type(c) for c in got.coeffs} == {int if integral else Fraction}


@given(st.lists(MIXED, min_size=1, max_size=10))
def test_mul_clearing_the_denominators_gives_ints(a):
    d = math.lcm(*[Fraction(c).denominator for c in a])
    got = QSeries(a) * QSeries([d] + [0] * (len(a) - 1))
    assert got.coeffs == [c * d for c in a]
    assert all(type(c) is int for c in got.coeffs)


@given(windows(3))
def test_mul_associative(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@given(windows(3))
def test_mul_distributes_over_add(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a


@given(windows(1), st.integers(0, 8), st.integers(0, 8))
def test_pow_adds_exponents(f, a, b):
    (f,) = f
    assert f**a * f**b == f ** (a + b)


@given(windows(1, shifts=(0,), unit=True))
def test_invert_unit_is_inverse(f):
    (f,) = f
    assert f * invert_unit(f) == QSeries.one(len(f.coeffs))


def _invert_reference(f: QSeries) -> QSeries:
    """1/f by the recurrence b_k = -(1/u0) sum_{i=1..k} u_i b_(k-i) in Fractions,
    over the unit part u of f (its window from the valuation on)."""
    v = f.valuation() - f.shift
    u = f.coeffs[v:]
    inv0 = Fraction(1) / u[0]
    b = [inv0] + [0] * (len(u) - 1)
    for k in range(1, len(u)):
        b[k] = -inv0 * sum(u[i] * b[k - i] for i in range(1, k + 1))
    return QSeries(b, -(f.shift + v))


@given(
    st.sampled_from([1, -1, 2, 4, Fraction(1, 3)]),
    st.lists(MIXED, max_size=10),
    st.integers(0, 2),
    st.sampled_from([0, -1]),
)
def test_invert_matches_fraction_reference(lead, tail, zeros, shift):
    f = QSeries([0] * zeros + [lead] + tail, shift)
    got, want = f._invert(), _invert_reference(f)
    assert got.shift == want.shift
    assert got.coeffs == want.coeffs
    # the type rule of the products: ints when every coefficient is integral
    integral = all(Fraction(c).denominator == 1 for c in want.coeffs)
    assert {type(c) for c in got.coeffs} == {int if integral else Fraction}


@given(st.integers(2, 40))
def test_invert_matches_fraction_reference_on_delta_and_j(n):
    for f in (delta(n), j_invariant(n)):
        got, want = f._invert(), _invert_reference(f)
        assert (got.shift, got.coeffs) == (want.shift, want.coeffs)
        assert all(type(c) is int for c in got.coeffs)


@given(windows(1, shifts=(-1,), unit=True))
def test_laurent_inverse(f):
    (f,) = f
    one = QSeries.one(len(f.coeffs))
    assert f * (one / f) == one


@given(
    st.lists(FRACTIONS, min_size=1, max_size=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_pow_rational_adds_exponents(tail, r, s):
    f = QSeries([Fraction(1)] + tail)
    assert pow_rational(f, r) * pow_rational(f, s) == pow_rational(f, r + s)


@st.composite
def inner_windows(draw):
    """An inner series for `compose`: shift 0 (zero constant term), 1 or 2."""
    (f,) = draw(windows(1, shifts=(0, 1, 2)))
    if f.shift == 0:
        f.coeffs[0] = 0
    return f


@given(windows(1, shifts=(0,)), st.sampled_from([0, 1]))
def test_compose_with_q_is_identity(outer, shift):
    (outer,) = outer
    n = len(outer.coeffs)
    assume(n >= 2)  # q itself needs order 2
    q = QSeries([0] * (1 - shift) + [1] + [0] * (n - 2), shift)
    assert compose(outer, q) == outer


@given(st.lists(st.one_of(INTS, FRACTIONS), max_size=12), inner_windows())
def test_compose_matches_reference(outer, inner):
    got = compose(outer, inner)
    want = _compose_reference(outer, inner)
    assert got.shift == want.shift == 0
    assert got.coeffs == want.coeffs


@given(
    windows(1, shifts=(0,)),
    st.integers(-30, 30),
    st.sampled_from([1, 2, 3, 4, 8, 12]),
)
def test_pow_rational_matches_reference(f, a, b):
    (f,) = f
    f.coeffs[0] = 1
    r = Fraction(a, b)
    assert pow_rational(f, r).coeffs == _pow_rational_reference(f, r).coeffs
