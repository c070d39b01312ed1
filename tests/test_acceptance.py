"""Acceptance suite: one test per shipped guarantee, one printed line each.

Every test runs the real pipeline (no mocks) and asserts exact equality;
sweep tests additionally assert their wall-clock budget.  Sweeps 03, 04, 05
and 07 also compare their canonical JSON report byte for byte with the frozen
report under tests/golden/ (07 freezes the whole identities lane as well as
its gp_ rows), so a refactor that changes any row of any lane shows here.
"""

import time
from pathlib import Path

from theta_forms.curves import check_hessian_matches_hex, n_torsion_structure
from theta_forms.exact_arith import Fp, primes_in_range
from theta_forms.fppoly import factor_pattern, reduce_poly, roots_brute
from theta_forms.harness import (
    SweepConfig,
    cmd_verify_background,
    cmd_verify_identities,
    cmd_verify_theta_hex,
    cmd_verify_theta_z,
    render_json,
)
from theta_forms.hyperpoly import (
    admissible_vanishing_primes,
    truncated_poly,
    vanishing_window,
)
from theta_forms.modforms import basis_coordinates, constructor, pf_polynomial
from theta_forms.qseries import theta_H, theta_Z

from test_curves import legendre_4torsion_predicted


def _announce(num, name, ok):
    print(f"\nacceptance {num:2d} {name}: {'pass' if ok else 'FAIL'}")


def _run(num, name, body):
    ok = False
    try:
        body()
        ok = True
    finally:
        _announce(num, name, ok)


def _no_failures(reports):
    bad = [r for r in reports if r.status == "fail"]
    assert not bad, bad[:5]


GOLDEN = Path(__file__).parent / "golden"


def _matches_golden(reports, name):
    assert render_json(reports) == (GOLDEN / name).read_text(), f"report differs from {name}"


# ---------------------------------------------------------------------------


def test_01_weight_52_reproduction():
    def body():
        t0 = time.perf_counter()
        order = 30
        f = theta_Z(order)
        coords = basis_coordinates(f, 52).coords
        assert coords == (27800506386, -776608440, 2887488, -3118, 1)

        g = constructor(f, 52, order)
        assert g.coefficient(5) == 95037348924
        assert g.coefficient(6) == 1017845969208768

        P = pf_polynomial(f, 52)
        assert [P.coefficient(i) for i in range(5)] == [
            27800506386,
            -776608440,
            2887488,
            -3118,
            1,
        ]

        roots = {int(z) for z in roots_brute(reduce_poly(P, 103))}
        assert roots == {58, 89, 93, 97}

        assert reduce_poly(P, 103) == reduce_poly(truncated_poly("W0", 4), 103)
        assert time.perf_counter() - t0 < 1.0

    _run(1, "weight 52 form reproduced exactly", body)


def test_02_weight_108_reproduction():
    def body():
        t0 = time.perf_counter()
        order = 30
        f = theta_H(order)
        g = constructor(f, 108, order)
        expected_head = [1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 1496265431568669020160]
        assert [g.coefficient(e) for e in range(11)] == expected_head

        P = pf_polynomial(f, 108)
        assert [P.coefficient(i) for i in range(10)] == [
            -2139590870258478384000,
            1958195577341989938240,
            -97749420668058422880,
            1257337803035458656,
            -6514224685621164,
            16561497291750,
            -22595806434,
            16858944,
            -6474,
            1,
        ]

        assert reduce_poly(P, 107) == reduce_poly(truncated_poly("V0", 9), 107)

        fp = reduce_poly(P, 107)
        assert dict(factor_pattern(fp).pairs) == {(1, 1): 1, (2, 1): 4}
        assert not fp.evaluate(-1728)
        assert time.perf_counter() - t0 < 5.0

    _run(2, "weight 108 form reproduced exactly", body)


def test_03_integer_theta_sweep():
    def body():
        t0 = time.perf_counter()
        reports = cmd_verify_theta_z(SweepConfig(p_min=7, p_max=199, jobs=1))
        _no_failures(reports)
        _matches_golden(reports, "acceptance_03_theta_z.json")

        target = {p for p in primes_in_range(7, 199) if p % 4 == 3}
        for cid in ("theta_z_congruence", "theta_z_splits"):
            passed = {r.p for r in reports if r.check_id == cid and r.status == "pass"}
            assert passed == target, cid
        curve_rows = {r.p: r.status for r in reports if r.check_id == "theta_z_curve_set"}
        for p in target:
            assert curve_rows[p] == ("pass" if p <= 103 else "skipped"), p
        assert time.perf_counter() - t0 < 300.0

    _run(3, "integer-lattice sweep 7..199 zero failures", body)


def test_04_hex_theta_sweep():
    def body():
        t0 = time.perf_counter()
        reports = cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=197, jobs=1))
        _no_failures(reports)
        _matches_golden(reports, "acceptance_04_theta_hex.json")

        target = {p for p in primes_in_range(5, 197) if p % 12 in (5, 11)}
        for cid in ("hex_congruence", "hex_splits_fp2", "hex_factor_pattern", "hex_zero_set"):
            passed = {r.p for r in reports if r.check_id == cid and r.status == "pass"}
            assert passed == target, cid
        assert time.perf_counter() - t0 < 300.0

    _run(4, "hexagonal-lattice sweep 5..197 zero failures", body)


def test_05_background_sweep():
    def body():
        t0 = time.perf_counter()
        reports = cmd_verify_background(SweepConfig(p_min=5, p_max=199, jobs=1))
        _no_failures(reports)
        _matches_golden(reports, "acceptance_05_background.json")

        target = set(primes_in_range(5, 199))
        for cid in ("bg_congruence", "bg_factor_degrees", "bg_extremal_congruence"):
            passed = {r.p for r in reports if r.check_id == cid and r.status == "pass"}
            assert passed == target, cid
        ss_rows = {r.p: r.status for r in reports if r.check_id == "bg_supersingular_set"}
        for p in target:
            assert ss_rows[p] == ("pass" if p <= 103 else "skipped"), p
        assert time.perf_counter() - t0 < 300.0

    _run(5, "background weight p-1 sweep 5..199 zero failures", body)


def test_06_series_identities():
    def body():
        identities = {
            "id_theta_int_hypergeometric",
            "id_theta_hex_hypergeometric",
            "id_e4_quarter_hypergeometric",
            "id_delta_from_eisenstein",
            "id_hauptmodul_cubic",
            "id_hauptmodul_legendre",
            "id_euler_transform",
            "id_cubic_transform",
            "id_degenerate_eval",
        }
        cfg = SweepConfig(p_min=5, p_max=7, order=40)
        reports = [r for r in cmd_verify_identities(cfg) if r.check_id in identities]
        assert len(reports) == 9
        assert all(r.status == "pass" for r in reports), [
            r for r in reports if r.status != "pass"
        ]

    _run(6, "exact series identities to order 40", body)


def test_07_gp_polynomial_properties():
    def body():
        lane = cmd_verify_identities(SweepConfig(p_min=7, p_max=199))
        _no_failures(lane)
        _matches_golden(lane, "identities_7_199.json")
        reports = [r for r in lane if r.check_id.startswith("gp_")]
        _matches_golden(reports, "acceptance_07_gp_properties.json")
        target = {p for p in primes_in_range(7, 199) if p % 4 == 3}
        for cid in ("gp_reciprocal", "gp_root_product", "gp_power_sums", "gp_torsion_product"):
            passed = {r.p for r in reports if r.check_id == cid and r.status == "pass"}
            assert passed == target, cid

    _run(7, "quarter-series polynomial properties to 199", body)


def test_08_four_torsion_prediction_exhaustive():
    def body():
        for p in (7, 11, 19, 23, 31):
            F = Fp(p)
            for v in range(2, p):
                lam = F.elem(v)
                predicted = legendre_4torsion_predicted(lam, p)
                brute = n_torsion_structure((-1 - v, v, 0), 4, p)  # y^2 = x(x-1)(x-lam)
                assert predicted == brute, (p, v)

    _run(8, "4-torsion prediction exhaustive for 5 primes", body)


def test_09_hessian_parametrization():
    def body():
        for p in (5, 11, 17, 23, 29, 41, 53, 59, 107):
            assert check_hessian_matches_hex(p), p

    _run(9, "Hessian parametrization matches hex zero set", body)


def test_10_vanishing_windows():
    def body():
        for tag in ("W0", "W1", "V0", "V1"):
            primes = admissible_vanishing_primes(tag, 8)
            assert len(primes) == 8, tag
            for p in primes:
                lo, hi, ok = vanishing_window(tag, p)
                assert ok, (tag, p, lo, hi)

    _run(10, "coefficient vanishing windows for 8 primes per family", body)
