"""Tests for hypergeometric streams, truncated families, G_p, and windows."""

from fractions import Fraction

import pytest

from theta_forms.exact_arith import padic_valuation, primes_in_range, rat_mod
from theta_forms.fppoly import FpPoly, reduce_poly, roots_brute
from theta_forms.hyperpoly import (
    FAMILY_PARAMS,
    HGParams,
    admissible_vanishing_primes,
    cubic_transform_mismatch,
    degenerate_eval_mismatch,
    e4_quarter_hypergeometric_mismatch,
    euler_transform_mismatch,
    f21_coefficients,
    gp_poly,
    pochhammer,
    scaled_coefficient_mod,
    theta_h_hypergeometric_mismatch,
    theta_z_hypergeometric_mismatch,
    truncated_poly,
    truncated_poly_mod,
    vanishing_window,
)
from theta_forms.hyperpoly import _GP_PARAMS, _WINDOW_RULES, _window_bounds
from theta_forms.modforms import RatPoly, weight_indices


def test_pochhammer():
    assert pochhammer(Fraction(3, 7), 0) == 1
    assert pochhammer(1, 5) == 120
    assert pochhammer(Fraction(-1, 4), 2) == Fraction(-3, 16)
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


def test_hgparams_rejects_bad_gamma():
    with pytest.raises(ValueError):
        HGParams(Fraction(1), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        HGParams(Fraction(1), Fraction(1), Fraction(-2))
    HGParams(Fraction(1), Fraction(1), Fraction(-1, 2))  # non-integer fine


def test_family_binding():
    assert FAMILY_PARAMS["W0"] == HGParams(Fraction(-1, 24), Fraction(7, 24), Fraction(3, 4))
    assert FAMILY_PARAMS["U1"] == HGParams(Fraction(7, 12), Fraction(11, 12), Fraction(1))
    with pytest.raises(ValueError):
        f21_coefficients("Z9", 3)
    assert set(FAMILY_PARAMS) == {"U0", "U1", "W0", "W1", "V0", "V1"}


def test_f21_coefficients_against_direct_formula():
    # oracle: the closed Pochhammer ratio, no recurrence
    for tag, params in FAMILY_PARAMS.items():
        cs = f21_coefficients(tag, 12)
        for m in range(13):
            direct = (
                pochhammer(params.alpha, m)
                * pochhammer(params.beta, m)
                / (pochhammer(params.gamma, m) * pochhammer(1, m))
            )
            assert cs[m] == direct, (tag, m)


def test_scaled_streams():
    def scaled(tag, n):
        return [c * Fraction(1728) ** m for m, c in enumerate(f21_coefficients(tag, n))]

    assert scaled("U0", 2) == [1, 60, 39780]
    assert scaled("W0", 2) == [1, -28, -17112]
    assert scaled("V1", 2) == [1, 810, 1041012]
    assert scaled("V0", 1) == [1, -54]


def test_truncated_poly_degree_one():
    assert truncated_poly("W0", 1) == RatPoly([-28, 1])
    assert truncated_poly("V0", 1) == RatPoly([-54, 1])
    assert truncated_poly("U0", 0) == RatPoly([1])


def test_truncated_poly_w0_degree_four():
    # frozen from the scaled stream; the constant's sign is locked by the
    # order-40 series identity (test below) and by the weight-52 congruence
    want = RatPoly([-18044467104, -16085280, -17112, -28, 1])
    assert truncated_poly("W0", 4) == want


def test_truncated_poly_monic_integer():
    for tag in FAMILY_PARAMS:
        for n in range(5):
            t = truncated_poly(tag, n)
            assert t.degree == n
            assert t.coefficient(n) == 1
            for c in t.coeffs:
                assert Fraction(c).denominator == 1


def _lane_congruence_rows(p_max: int) -> list[tuple[str, int, int]]:
    """(family, n, p) of every congruence row the lanes run at primes 5..p_max:
    background at weight p-1, theta-z at (p+1)/2 for p = 3 mod 4 and theta-hex
    at p+1 for p = 5, 11 mod 12."""
    rows = []
    for p in primes_in_range(5, p_max):
        rows.append(("U0" if p % 12 in (1, 5) else "U1", weight_indices(p - 1).n, p))
        if p % 4 == 3:
            rows.append(("W0" if p % 24 in (7, 23) else "W1", weight_indices((p + 1) // 2).n, p))
        if p % 12 in (5, 11):
            rows.append(("V0" if p % 12 == 11 else "V1", weight_indices(p + 1).n, p))
    return rows


def test_truncated_poly_mod_matches_exact_reduction_on_every_lane_row():
    rows = _lane_congruence_rows(1000)
    assert len(rows) == 166 + 86 + 86  # background, theta-z, theta-hex
    for fam, n, p in rows:
        assert truncated_poly_mod(fam, n, p) == reduce_poly(truncated_poly(fam, n), p), (fam, n, p)


def test_truncated_poly_mod_raises_where_p_cancels():
    # gamma = 2/3: (2/3 + 3) * 4 = 44/3 is 0 mod 11, and the p cancels in the
    # exact coefficient of m = 4, so exact reduction still has an answer
    assert reduce_poly(truncated_poly("V0", 4), 11) == FpPoly([4, 0, 0, 1, 1], 11)
    with pytest.raises(ValueError, match="m = 3"):
        truncated_poly_mod("V0", 4, 11)
    assert truncated_poly_mod("V0", 3, 11) == reduce_poly(truncated_poly("V0", 3), 11)


def test_truncated_poly_mod_guard_is_exact():
    # the mod-p stream answers exactly when no (gamma+m)(m+1), m < n, is 0 mod p
    for tag, params in FAMILY_PARAMS.items():
        for p in (5, 7, 11, 13):
            for n in range(2 * p):
                blocked = any(
                    rat_mod((params.gamma + m) * (m + 1), p) == 0 for m in range(n)
                )
                if blocked:
                    with pytest.raises(ValueError):
                        truncated_poly_mod(tag, n, p)
                else:
                    want = reduce_poly(truncated_poly(tag, n), p)
                    assert truncated_poly_mod(tag, n, p) == want, (tag, p, n)
    with pytest.raises(ValueError):
        truncated_poly_mod("U0", -1, 7)


def test_gp_poly_matches_exact_reduction_to_1000():
    stream = f21_coefficients(_GP_PARAMS, 250)
    for p in primes_in_range(7, 1000):
        if p % 4 == 3:
            want = FpPoly([rat_mod(c, p) for c in stream[: (p + 1) // 4 + 1]], p)
            assert gp_poly(p) == want, p


def test_gp_poly_small():
    g7 = gp_poly(7)
    assert g7.coeffs == [1, 6, 1]
    assert roots_brute(g7) == {3, 5}


def test_gp_poly_against_root_set_oracle():
    # oracle: product over {t : t-1 a nonzero square, t a nonsquare}
    for p in [7, 11, 19, 23, 31, 43]:
        squares = {x * x % p for x in range(1, p)}
        ts = [t for t in range(p) if (t - 1) % p in squares and t not in squares and t % p != 0]
        prod = FpPoly([1], p)
        for t in ts:
            prod = prod * FpPoly([-t, 1], p)
        assert gp_poly(p).monic() == prod
        assert len(ts) == (p + 1) // 4


def test_gp_poly_ends():
    for p in [7, 11, 19, 23, 43, 103, 199]:
        g = gp_poly(p)
        assert g.degree == (p + 1) // 4
        assert g.coefficient(0) == 1
        assert g.leading() == 1


def test_gp_poly_rejects():
    with pytest.raises(ValueError):
        gp_poly(13)  # 1 mod 4
    with pytest.raises(ValueError):
        gp_poly(5)


def test_vanishing_window_examples():
    assert vanishing_window("W0", 23) == (1, 6, True)
    assert vanishing_window("V0", 11) == (1, 4, True)
    assert vanishing_window("V1", 17) == (1, 6, True)
    assert vanishing_window("W1", 11) == (0, 0, True)


def test_vanishing_window_rejects():
    with pytest.raises(ValueError):
        vanishing_window("W0", 11)
    with pytest.raises(ValueError):
        vanishing_window("U0", 23)
    with pytest.raises(ValueError):
        vanishing_window("V1", 7)


def test_vanishing_window_brute_valuations():
    # oracle: inspect numerators of the exact coefficients directly
    from theta_forms.hyperpoly import FAMILY_PARAMS

    for tag, p in [("W0", 31), ("W1", 19), ("V0", 23), ("V1", 29)]:
        lo, hi, ok = vanishing_window(tag, p)
        assert ok
        cs = f21_coefficients(tag, hi)
        for m in range(lo + 1, hi):
            assert cs[m].numerator % p == 0 and cs[m].denominator % p != 0
        # lower boundary coefficient survives for these sampled primes,
        # guarding against an off-by-one that would shrink the window
        if lo >= 1:
            assert cs[lo].numerator % p != 0


def _closed_form_window(tag, p):
    """Reference: each family's window as a closed form in p, per residue class."""
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


def test_window_bounds_match_the_closed_forms_below_5000():
    # _window_bounds reads n from weight_indices; the closed forms do not
    checked = 0
    for tag, (residues, modulus) in _WINDOW_RULES.items():
        for p in primes_in_range(5, 4999):
            if p % modulus in residues:
                assert _window_bounds(tag, p) == _closed_form_window(tag, p), (tag, p)
                checked += 1
    assert checked > 600


def _fresh_stream(params, m_max):
    """c_0..c_m_max by the ratio recurrence, in a list of the test's own."""
    hp = FAMILY_PARAMS.get(params, params)
    cs = [Fraction(1)]
    for m in range(m_max):
        cs.append(cs[-1] * (hp.alpha + m) * (hp.beta + m) / ((hp.gamma + m) * (m + 1)))
    return cs


def _vanishing_window_fresh(tag, p):
    """vanishing_window on a fresh stream of its own for each prime."""
    lo, hi = _window_bounds(tag, p)
    cs = _fresh_stream(tag, max(hi - 1, 0))
    return lo, hi, all(cs[m] == 0 or padic_valuation(cs[m], p) >= 1 for m in range(lo + 1, hi))


def _read_orders(cases):
    """The cases ascending, descending, and interleaved from both ends."""
    interleaved = [c for pair in zip(cases, cases[::-1]) for c in pair][: len(cases)]
    return {"ascending": cases, "descending": cases[::-1], "interleaved": interleaved}


def test_vanishing_window_shared_stream_matches_fresh_streams_below_1000(fresh_series_caches):
    # ascending primes extend the shared stream, descending ones slice it,
    # interleaved ones do both in turn
    streams, _, _, _ = fresh_series_caches
    cases = [
        (tag, p)
        for tag, (residues, modulus) in _WINDOW_RULES.items()
        for p in primes_in_range(5, 999)
        if p % modulus in residues
    ]
    want = [_vanishing_window_fresh(tag, p) for tag, p in cases]
    for order in _read_orders(cases).values():
        streams.clear()
        got = {(tag, p): vanishing_window(tag, p) for tag, p in order}
        assert [got[c] for c in cases] == want


def test_shared_streams_match_fresh_streams_in_any_read_order(fresh_series_caches):
    # every reader of one triple's stream, each family and G_p interleaved
    streams, _, _, _ = fresh_series_caches
    q = 1000003
    cases = [(tag, m) for m in range(0, 201, 4) for tag in [*FAMILY_PARAMS, _GP_PARAMS]]
    fresh = {(tag, m): _fresh_stream(tag, m) for tag, m in cases}
    for order in _read_orders(cases).values():
        streams.clear()
        for tag, m in order:
            want = fresh[tag, m]
            assert f21_coefficients(tag, m) == want, (tag, m)
            assert scaled_coefficient_mod(tag, m, q) == rat_mod(want[m] * 1728**m, q), (tag, m)
            if tag in FAMILY_PARAMS:
                scaled = [c * 1728**i for i, c in enumerate(want)]
                assert truncated_poly(tag, m) == RatPoly(scaled[::-1]), (tag, m)


def test_f21_coefficients_returns_a_copy(fresh_series_caches):
    # a caller that mutates its list leaves the shared stream as it was
    got = f21_coefficients("W0", 12)
    got[5] = Fraction(99)
    got.append(Fraction(7))
    del got[:3]
    assert f21_coefficients("W0", 12) == _fresh_stream("W0", 12)
    assert f21_coefficients("W0", 20) == _fresh_stream("W0", 20)
    scaled = [c * 1728**m for m, c in enumerate(_fresh_stream("W0", 4))]
    assert truncated_poly("W0", 4) == RatPoly(scaled[::-1])


def test_vanishing_window_reads_exactly_the_open_window(fresh_series_caches):
    # a planted stream that is nonzero mod p at one index only fails the
    # check exactly when that index lies strictly between lo and hi
    streams, _, _, _ = fresh_series_caches
    tag, p = "V1", 29
    lo, hi = _window_bounds(tag, p)
    for m in range(hi + 2):
        streams[FAMILY_PARAMS[tag]] = [Fraction(int(i == m)) for i in range(hi + 2)]
        assert vanishing_window(tag, p) == (lo, hi, not lo < m < hi)


def test_admissible_prime_lists():
    assert admissible_vanishing_primes("W0", 8) == [7, 23, 31, 47, 71, 79, 103, 127]
    assert admissible_vanishing_primes("W1", 8) == [11, 19, 43, 59, 67, 83, 107, 131]
    assert admissible_vanishing_primes("V0", 8) == [11, 23, 47, 59, 71, 83, 107, 131]
    assert admissible_vanishing_primes("V1", 8) == [5, 17, 29, 41, 53, 89, 101, 113]


def test_cubic_constant_residue():
    # the scaled coefficient at m = (p+1)/3 lands on -18 for both V families
    for p in primes_in_range(5, 199):
        if p % 12 == 11:
            assert scaled_coefficient_mod("V0", (p + 1) // 3, p) == (-18) % p
        if p % 12 == 5:
            assert scaled_coefficient_mod("V1", (p + 1) // 3, p) == (-18) % p


def test_series_identities():
    assert theta_z_hypergeometric_mismatch(40) is None
    assert theta_h_hypergeometric_mismatch(40) is None
    assert e4_quarter_hypergeometric_mismatch(40) is None
    assert euler_transform_mismatch(30) is None
    assert cubic_transform_mismatch(30) is None
    assert degenerate_eval_mismatch(30) is None


def test_euler_transform_parameter_shape():
    # the transform applies because gamma - alpha - beta = 1/2 for W0
    p = FAMILY_PARAMS["W0"]
    assert p.gamma - p.alpha - p.beta == Fraction(1, 2)
    q = FAMILY_PARAMS["W1"]
    assert {q.alpha, q.beta} == {p.gamma - p.alpha, p.gamma - p.beta}
    assert q.gamma == p.gamma


def test_mismatch_detection_is_real():
    # a deliberately perturbed stream must be flagged, not silently pass
    from theta_forms.qseries import QSeries, pow_rational

    w0 = f21_coefficients("W0", 19)
    w0[7] += 1
    w1 = QSeries(f21_coefficients("W1", 19))
    front = pow_rational(QSeries([1, -1] + [0] * 18), Fraction(-1, 2))
    assert (front * QSeries(w0)).first_mismatch(w1) == 7
