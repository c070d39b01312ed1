"""Tests for the verification harness: reports, sweeps, rendering, CLI."""

import argparse
import concurrent.futures
import importlib
import json
import multiprocessing
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import theta_forms

from theta_forms import exact_arith, fppoly, harness, hyperpoly, modforms, qseries
from theta_forms import curves
from theta_forms.exact_arith import (
    Fp,
    Fp2,
    Fp2Field,
    FpField,
    fp2_str,
    least_nonresidue,
    primes_in_range,
    rat_mod,
)
from theta_forms.fppoly import FpPoly, factor_pattern
from theta_forms.hyperpoly import pochhammer
from theta_forms.harness import (
    SweepConfig,
    VerificationReport,
    cmd_show,
    cmd_verify_background,
    cmd_verify_identities,
    cmd_verify_theta_hex,
    cmd_verify_theta_z,
    main,
    render_csv,
    render_json,
    render_table,
)

from field_ref import fp2


# ---------------------------------------------------------------------------
# report and config validation


def test_report_requires_witness_on_fail():
    with pytest.raises(ValueError):
        VerificationReport("some_check", 7, 4, "fail")


def test_report_requires_reason_on_skip():
    with pytest.raises(ValueError):
        VerificationReport("some_check", 7, 4, "skipped")


def test_report_rejects_unknown_status():
    with pytest.raises(ValueError):
        VerificationReport("some_check", 7, 4, "maybe")


def test_report_pass_needs_no_witness():
    r = VerificationReport("some_check", 7, 4, "pass")
    assert r.witness is None and r.ms == 0


def test_config_rejects_small_p_min():
    with pytest.raises(ValueError):
        SweepConfig(p_min=3)


def test_config_rejects_inverted_range():
    with pytest.raises(ValueError):
        SweepConfig(p_min=31, p_max=7)


def test_config_caps_p_max_without_allow_large():
    SweepConfig(p_max=1000)
    with pytest.raises(ValueError, match="1000"):
        SweepConfig(p_max=1001)


def test_config_rejects_bad_format():
    with pytest.raises(ValueError):
        SweepConfig(fmt="yaml")


def test_config_rejects_tiny_order():
    with pytest.raises(ValueError):
        SweepConfig(order=5)


def test_config_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        SweepConfig(jobs=0)


def test_config_rejects_negative_caps():
    SweepConfig(curve_cap=0, supersingular_cap=0)
    with pytest.raises(ValueError, match="curve cap"):
        SweepConfig(curve_cap=-5)
    with pytest.raises(ValueError, match="supersingular cap"):
        SweepConfig(supersingular_cap=-5)
    with pytest.raises(ValueError, match="Hessian cap"):
        SweepConfig(hessian_cap=-5)


# ---------------------------------------------------------------------------
# lane sweeps on small ranges


def test_theta_z_small_sweep_all_green():
    reports = cmd_verify_theta_z(SweepConfig(p_min=5, p_max=31))
    assert reports
    assert not [r for r in reports if r.status == "fail"]
    # p = 1 mod 4 rows are skipped with a reason, not silently dropped
    skipped = {r.p for r in reports if r.status == "skipped"}
    assert skipped == {5, 13, 17, 29}
    for r in reports:
        if r.status == "skipped":
            assert r.witness


def test_theta_z_curve_cap_produces_skips():
    cfg = SweepConfig(p_min=5, p_max=31, curve_cap=20)
    reports = cmd_verify_theta_z(cfg)
    rows = {r.p: r for r in reports if r.check_id == "theta_z_curve_set"}
    assert rows[7].status == "pass"
    assert rows[11].status == "pass"
    assert rows[19].status == "pass"
    assert rows[23].status == "skipped"
    assert rows[31].status == "skipped"


def test_theta_hex_small_sweep_all_green():
    reports = cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=29))
    assert {r.p for r in reports} == {5, 11, 17, 23, 29}
    assert all(r.status == "pass" for r in reports)
    assert {r.check_id for r in reports} == {
        "hex_congruence",
        "hex_splits_fp2",
        "hex_factor_pattern",
        "hex_zero_set",
        "hessian_set",
    }


def test_background_small_sweep_all_green():
    reports = cmd_verify_background(SweepConfig(p_min=5, p_max=23))
    assert {r.p for r in reports} == {5, 7, 11, 13, 17, 19, 23}
    assert all(r.status == "pass" for r in reports)
    assert {r.check_id for r in reports} == {
        "bg_congruence",
        "bg_factor_degrees",
        "bg_supersingular_set",
        "bg_extremal_congruence",
    }


def test_background_supersingular_cap_produces_skips():
    cfg = SweepConfig(p_min=5, p_max=23, supersingular_cap=11)
    reports = cmd_verify_background(cfg)
    rows = {r.p: r for r in reports if r.check_id == "bg_supersingular_set"}
    assert rows[11].status == "pass"
    assert rows[13].status == "skipped"
    assert rows[23].status == "skipped"


def test_identities_small_sweep_all_green():
    reports = cmd_verify_identities(SweepConfig(p_min=5, p_max=23))
    assert all(r.status == "pass" for r in reports)
    ids = {r.check_id for r in reports}
    for expected in (
        "id_theta_int_hypergeometric",
        "id_theta_hex_hypergeometric",
        "id_e4_quarter_hypergeometric",
        "id_delta_from_eisenstein",
        "id_hauptmodul_cubic",
        "id_hauptmodul_legendre",
        "id_euler_transform",
        "id_cubic_transform",
        "id_degenerate_eval",
        "gp_reciprocal",
        "gp_root_product",
        "gp_power_sums",
        "gp_torsion_product",
        "hex_series_constant",
        "neg4_cube_root",
        "vanish_w0",
        "vanish_w1",
        "vanish_v0",
        "vanish_v1",
    ):
        assert expected in ids, expected


def test_series_identities_hold_at_order_100():
    # a stronger check than the lane's default order 40
    reports = cmd_verify_identities(SweepConfig(p_min=5, p_max=7, order=100))
    rows = {r.check_id: r.status for r in reports if r.check_id.startswith("id_")}
    assert len(rows) == 9
    assert set(rows.values()) == {"pass"}, rows


def test_identities_gp_lane_respects_prime_filter():
    reports = cmd_verify_identities(SweepConfig(p_min=5, p_max=23))
    gp_primes = {r.p for r in reports if r.check_id == "gp_reciprocal"}
    assert gp_primes == {7, 11, 19, 23}
    neg4_primes = {r.p for r in reports if r.check_id == "neg4_cube_root"}
    assert neg4_primes == {11, 23}


def _count_calls(monkeypatch, name):
    """Record the arguments of every call the harness makes to ``name``."""
    calls = []
    orig = getattr(harness, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(harness, name, counted)
    return calls


_UNUSED_BY_LANES = ("roots_brute", "is_squarefree", "splits_into_linears", "splits_over_fp2")


def _count_field_scans(monkeypatch) -> dict:
    """Count every call to the benchmark hooks' elements() from here on."""
    counts = {"FpField": 0, "Fp2Field": 0}
    for cls in (FpField, Fp2Field):
        def counting(self, _elements=cls.elements, _name=cls.__name__):
            counts[_name] += 1
            return _elements(self)

        monkeypatch.setattr(cls, "elements", counting)
    return counts


def _assert_field_values_are_residues():
    """No module of the package defines a field-element class: the only
    classes with ring arithmetic are the series and polynomial types, and
    the benchmark hooks' elements() yield ints and (c0, c1) pairs."""
    rings = set()
    for info in pkgutil.iter_modules(theta_forms.__path__):
        module = importlib.import_module(f"theta_forms.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert not name.endswith("Elem"), name
                if "__mul__" in vars(obj):
                    rings.add(name)
    assert rings == {"FpPoly", "QSeries"}
    assert {type(v) for v in Fp(7).elements()} == {int}
    assert {tuple(map(type, z)) for z in Fp2(7).elements()} == {(int, int)}


def test_theta_z_and_identities_build_no_field_objects(monkeypatch):
    # the oracles, witnesses and residue rows run on plain ints and pairs
    for cached in (curves.two_torsion_only_lambdas, curves.hex_zero_set):
        cached.cache_clear()
    counts = _count_field_scans(monkeypatch)
    cmd_verify_theta_z(SweepConfig(p_min=5, p_max=131, curve_cap=131))
    cmd_verify_identities(SweepConfig(p_min=5, p_max=131))
    assert counts == {"FpField": 0, "Fp2Field": 0}
    _assert_field_values_are_residues()


@pytest.mark.parametrize("lane, small, large", [
    (cmd_verify_theta_hex, 23, 191),  # the sampled Hessian curves
    (cmd_verify_background, 5, 101),  # the point counts at j = 0 and 1728
])
def test_oracle_edges_build_a_constant_number_of_field_objects(monkeypatch, lane, small, large):
    # the curve oracles take their cubics as residues, so the constant is 0
    curves.hex_zero_set.cache_clear()
    curves._admissible_hessian_params.cache_clear()
    counts = _count_field_scans(monkeypatch)
    seen = []
    for p in (small, large):
        for name in counts:
            counts[name] = 0
        reports = lane(SweepConfig(p_min=p, p_max=p))
        assert reports and all(r.status == "pass" for r in reports)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"FpField": 0, "Fp2Field": 0}
    _assert_field_values_are_residues()


def test_show_examples_build_no_field_objects(monkeypatch):
    counts = _count_field_scans(monkeypatch)
    for example in ("k52", "p107", "w0-4-mod103"):
        cmd_show(example)
    assert counts == {"FpField": 0, "Fp2Field": 0}
    _assert_field_values_are_residues()


def test_split_rows_ask_frobenius_and_hex_factors_once_per_prime(monkeypatch):
    factored = _count_calls(monkeypatch, "factor_pattern")
    asked = _count_calls(monkeypatch, "divides_frobenius")
    for name in _UNUSED_BY_LANES:
        def refuse(*args, name=name):
            raise AssertionError(f"a lane called {name}")

        monkeypatch.setattr(fppoly, name, refuse)
        monkeypatch.setattr(harness, name, refuse, raising=False)
    # (lane, its primes, the d of its divisibility question, None for theta-hex)
    lanes = (
        (cmd_verify_theta_z, [p for p in primes_in_range(5, 59) if p % 4 == 3], 1),
        (cmd_verify_theta_hex, [p for p in primes_in_range(5, 59) if p % 12 in (5, 11)], None),
        (cmd_verify_background, primes_in_range(5, 31), 2),
    )
    for lane, primes, d in lanes:
        factored.clear()
        asked.clear()
        reports = lane(SweepConfig(p_min=5, p_max=max(primes)))
        assert all(r.status != "fail" for r in reports)
        if d is None:
            # one factorization per prime, shared by both shape rows of that prime
            assert sorted(f.p for (f,) in factored) == primes
            assert not asked
        else:
            # a green split row asks once and never factors
            assert not factored
            assert sorted(f.p for f, _ in asked) == primes
            assert {e for _, e in asked} == {d}
        assert any(f.degree >= 1 for f, *_ in factored + asked)
    reports = cmd_verify_identities(SweepConfig(p_min=5, p_max=23))
    assert all(r.status != "fail" for r in reports)


def test_pf_mod_p_solved_once_per_series(monkeypatch):
    calls = _count_calls(monkeypatch, "coordinates_mod_p")
    weights = lambda: sorted(k for _, k, _ in calls)
    cmd_verify_theta_z(SweepConfig(p_min=5, p_max=59))
    assert weights() == [(p + 1) // 2 for p in primes_in_range(7, 59) if p % 4 == 3]
    calls.clear()
    cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=59))
    assert weights() == [p + 1 for p in primes_in_range(5, 59) if p % 12 in (5, 11)]
    calls.clear()
    # the background lane also solves the extremal form's P(j) at each prime
    cmd_verify_background(SweepConfig(p_min=5, p_max=31))
    assert weights() == sorted(2 * [p - 1 for p in primes_in_range(5, 31)])


def test_background_solves_once_per_prime():
    # P(1) and P(E_(p-1)) have the same residues, so the extremal row's solve
    # is a cache hit: one solve body per prime
    modforms._solve_mod_p.cache_clear()
    reports = cmd_verify_background(SweepConfig(p_min=5, p_max=199))
    assert all(r.status != "fail" for r in reports)
    info = modforms._solve_mod_p.cache_info()
    assert info.misses == len(primes_in_range(5, 199))
    assert info.hits == info.misses


def test_large_lanes_never_extend_the_exact_bernoulli_table(monkeypatch, fresh_series_caches):
    # E_(p-1)'s -2k/B_k mod p comes from Faulhaber's sum mod p^2; the exact
    # table holds only what exact E4 and E6 need (B_0..B_6), not B_(p-1)
    monkeypatch.setattr(exact_arith, "_BERNOULLI_CACHE", [])
    monkeypatch.setattr(exact_arith, "_TANGENT_COLUMN", [])
    rows = cmd_verify_background(SweepConfig(p_min=600, p_max=700, supersingular_cap=103))
    rows += cmd_verify_theta_z(SweepConfig(p_min=600, p_max=1000, curve_cap=103))
    assert all(r.status != "fail" for r in rows)
    assert any(r.check_id == "bg_extremal_congruence" and r.status == "pass" for r in rows)
    assert len(exact_arith._BERNOULLI_CACHE) <= 4


def test_lanes_take_e4_and_e6_from_the_exact_inverse_cache(monkeypatch, fresh_series_caches):
    # the solve reduces the cached exact 1/E4 and 1/E6, so the only factor
    # -2k/B_k mod p a lane asks for is E_(p-1)'s, and the background lane
    # builds no exact Bernoulli number past B_6
    *_, inverse_eisenstein = fresh_series_caches
    monkeypatch.setattr(modforms, "_solve_mod_p", lru_cache(maxsize=2)(modforms._solve_mod_p.__wrapped__))
    calls = []
    real = qseries.eisenstein_factor_mod
    monkeypatch.setattr(qseries, "eisenstein_factor_mod", lambda k, p: calls.append((k, p)) or real(k, p))
    monkeypatch.setattr(exact_arith, "_BERNOULLI_CACHE", [])
    monkeypatch.setattr(exact_arith, "_TANGENT_COLUMN", [])
    rows = cmd_verify_background(SweepConfig(p_min=5, p_max=199))
    assert len(exact_arith._BERNOULLI_CACHE) <= 4
    for lane in (cmd_verify_theta_z, cmd_verify_theta_hex, cmd_verify_identities):
        rows += lane(SweepConfig(p_min=5, p_max=199))
    assert rows and all(r.status != "fail" for r in rows)
    # E4 and E6 are E_(p-1) at p = 5 and 7 only
    assert sorted(calls) == [(p - 1, p) for p in primes_in_range(5, 199)]
    # theta-hex at 197 solves the most terms, 17: held to the next power of two
    assert [len(inverse_eisenstein[k]) for k in (4, 6)] == [32, 32]


def test_verify_lanes_never_touch_the_exact_t_table(monkeypatch, fresh_series_caches):
    # the mod-p solve peels digits in base 1/j with the residues of S = q j;
    # the exact table of powers of t serves series_in_t, the exact solve,
    # show and the tests only
    _, t_powers, q_j, _ = fresh_series_caches
    monkeypatch.setattr(modforms, "_solve_mod_p", lru_cache(maxsize=2)(modforms._solve_mod_p.__wrapped__))
    for lane in (cmd_verify_theta_z, cmd_verify_theta_hex, cmd_verify_background):
        rows = lane(SweepConfig(p_min=5, p_max=199))
        assert rows and all(r.status != "fail" for r in rows)
    rows = cmd_verify_background(SweepConfig(p_min=600, p_max=700))
    assert any(r.check_id == "bg_congruence" and r.status == "pass" for r in rows)
    assert all(r.status != "fail" for r in rows)
    assert modforms._T_POWERS is t_powers and t_powers == [[1]]
    # the largest solve there has 58 terms: S to q^56, held to the next power of two
    assert len(q_j) == 64


def test_extremal_row_fails_where_the_background_residues_are_perturbed(monkeypatch):
    bad_p = 101
    real = harness.eisenstein_mod

    def planted(k, n, p):
        out = real(k, n, p)
        if p == bad_p:
            out[1] = (out[1] + 1) % p
        return out

    monkeypatch.setattr(harness, "eisenstein_mod", planted)
    rows = cmd_verify_background(SweepConfig(p_min=89, p_max=113))
    failed = [r for r in rows if r.check_id == "bg_extremal_congruence" and r.status == "fail"]
    assert [r.p for r in failed] == [bad_p]
    assert re.fullmatch(r"x\^\d+: \d+ != \d+", failed[0].witness)


def test_lanes_solve_without_the_basis(monkeypatch):
    # every P(j) mod p comes from the mod-p solve's digit peel; basis() and
    # the exact solve serve show, the tests and tracing
    for module, name in (
        (modforms, "basis"),
        (modforms, "basis_coordinates"),
        (modforms, "pf_polynomial"),
        (fppoly, "reduce_poly"),
    ):
        def refuse(*args, name=name):
            raise AssertionError(f"a lane called {name}")

        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(harness, name, refuse, raising=False)
    for lane in (cmd_verify_theta_z, cmd_verify_theta_hex, cmd_verify_background):
        reports = lane(SweepConfig(p_min=5, p_max=31))
        assert all(r.status != "fail" for r in reports)


# ---------------------------------------------------------------------------
# witnesses and their failure paths


def test_product_witness_accepts_the_monic_product():
    p = 11
    f = FpPoly([1], p)
    for t in (2, 5, 7):
        f = f * FpPoly([-t, 1], p)
    assert harness._product_witness(f, [7, 2, 5]) is None
    assert harness._product_witness(f, {(2, 0), (5, 0), (7, 0)}) is None  # as F_{p^2} pairs
    assert harness._product_witness(f, [2, 5, 7, 2]) is None  # a target set, not a list
    assert harness._product_witness(FpPoly([1], p), []) is None


def test_product_witness_wrong_degree():
    f = FpPoly([-2, 1], 11) * FpPoly([-5, 1], 11)
    assert harness._product_witness(f, [2]) == "degree 2 != target set size 1"


def test_product_witness_not_monic():
    f = FpPoly([-2, 1], 11) * 3
    assert harness._product_witness(f, [2]) == "leading coefficient 3 != 1"


def test_product_witness_nonvanishing_targets():
    p = 7
    f = FpPoly([-2, 1], p) * FpPoly([-3, 1], p)
    assert harness._product_witness(f, [2, 4]) == "f(4) != 0"
    assert harness._product_witness(f, {(2, 0), (4, 0)}) == "f(4) != 0"
    q = FpPoly([-least_nonresidue(p), 0, 1], p)  # x^2 - d, roots +-w in F_{p^2}
    assert harness._product_witness(q, {(0, 1), (0, p - 1)}) is None
    witness = harness._product_witness(q, {(0, 1), (1, 1)})
    assert witness == "f(1+1w) != 0"


def test_product_witness_names_targets_as_field_elements():
    # pairs are tried in (c1, c0) order and printed as the tests' El prints them
    p = 7
    q = FpPoly([-least_nonresidue(p), 0, 1], p)
    assert harness._product_witness(q, {(0, 3), (0, 1)}) == "f(3w) != 0"
    assert harness._product_witness(q, {(2, 5), (4, 0)}) == "f(4) != 0"
    assert harness._product_witness(q, {(0, 1), (2, 5)}) == "f(2+5w) != 0"
    for c0 in range(p):
        for c1 in range(p):
            assert fp2_str((c0, c1)) == repr(fp2(p, c0, c1))


def test_power_sums_rhs_matches_pochhammer_fractions():
    for p in primes_in_range(5, 300):
        want = [
            rat_mod(Fraction(1, 4) * pochhammer(Fraction(1, 2), v) / factorial(v), p)
            for v in range((p + 1) // 4 + 1)
        ]
        assert harness._power_sums_rhs(p) == want, p


def test_power_sums_witness_names_the_first_mismatch():
    p = 23
    g = FpPoly([1], p)  # S_0 = 0, while the right-hand side at v = 0 is 1/4
    assert harness._power_sums_witness(g, p) == f"S_0: 0 != {pow(4, -1, p)}"


def test_splits_witness_failure_paths():
    p = 11
    lin = FpPoly([-3, 1], p)
    assert harness._splits_witness(factor_pattern(lin * lin * FpPoly([-4, 1], p)), 2) == (
        "polynomial is not squarefree"
    )
    cubic = FpPoly([4, 1, 0, 1], p)  # x^3 + x + 4, irreducible mod 11
    assert factor_pattern(cubic).pairs == (((3, 1), 1),)
    assert harness._splits_witness(factor_pattern(cubic * lin), 1) == (
        "polynomial does not split over F_p"
    )
    assert harness._splits_witness(factor_pattern(cubic * lin), 2) == (
        "polynomial does not split over F_{p^2}"
    )
    quad = FpPoly([-least_nonresidue(p), 0, 1], p)
    assert harness._splits_witness(factor_pattern(quad * lin), 1) == (
        "polynomial does not split over F_p"
    )
    assert harness._splits_witness(factor_pattern(quad * lin), 2) is None
    assert harness._splits_witness(factor_pattern(FpPoly([1], p)), 1) is None


def _irreducible_cubic(p: int) -> FpPoly:
    return next(
        c for c in (FpPoly([c0, 1, 0, 1], p) for c0 in range(p))
        if factor_pattern(c).pairs == (((3, 1), 1),)
    )


# (lane, prime, p_max, fault, {failing row: its witness, None for x^i: a != b}):
# the lane's P mod p at that prime, whose factor degrees are {1} (theta-z)
# and {1, 2} (background), is multiplied by (x - 1)^2 or by an irreducible
# cubic.  The root-set rows see a wrong degree and the congruence rows a
# wrong coefficient; the extremal row's P(1) takes the same fault, so it
# passes.  A square of degrees {1, 2} still passes bg_factor_degrees: it is
# the row that falls back to the factor pattern after the Frobenius test.
_SQUARE = lambda p: FpPoly([-1, 1], p) * FpPoly([-1, 1], p)
_PLANTED_SHAPES = [
    ("theta-z", 47, 59, _SQUARE, {
        "theta_z_congruence": None,
        "theta_z_splits": "polynomial is not squarefree",
        "theta_z_curve_set": "degree 4 != target set size 2",
        "theta_z_legendre_set": "degree 4 != target set size 2",
    }),
    ("theta-z", 47, 59, _irreducible_cubic, {
        "theta_z_congruence": None,
        "theta_z_splits": "polynomial does not split over F_p",
        "theta_z_curve_set": "degree 5 != target set size 2",
        "theta_z_legendre_set": "degree 5 != target set size 2",
    }),
    ("background", 37, 43, _SQUARE, {
        "bg_congruence": None,
        "bg_supersingular_set": "degree 5 != target set size 3",
    }),
    ("background", 37, 43, _irreducible_cubic, {
        "bg_congruence": None,
        "bg_factor_degrees": "factor degrees [1, 2, 3] not within {1, 2}",
        "bg_supersingular_set": "degree 6 != target set size 3",
    }),
]


@pytest.mark.parametrize("lane, bad_p, p_max, fault, failing", _PLANTED_SHAPES)
def test_split_rows_fail_where_p_mod_p_takes_a_planted_factor(
    lane, bad_p, p_max, fault, failing, monkeypatch, capsys
):
    argv = ["verify", lane, "--p-max", str(p_max), "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    real = harness.coordinates_mod_p

    def planted(target, k, p):
        coords = real(target, k, p)
        return (FpPoly(coords, p) * fault(p)).coeffs if p == bad_p else coords

    monkeypatch.setattr(harness, "coordinates_mod_p", planted)
    assert main(argv) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = {(r["check_id"], r["p"]): r["witness"] for r in rows if r["status"] == "fail"}
    assert set(failed) == {(row, bad_p) for row in failing}
    for row, witness in failing.items():
        if witness is None:
            assert re.fullmatch(r"x\^\d+: \d+ != \d+", failed[row, bad_p])
        else:
            assert failed[row, bad_p] == witness
    others = [r for r in rows if (r["check_id"], r["p"]) not in failed]
    assert others == [r for r in clean if (r["check_id"], r["p"]) not in failed]


# (lane, row, oracle name in harness, the prime whose oracle loses a value, p_max)
_ROOT_SET_ROWS = [
    ("theta-z", "theta_z_curve_set", "two_torsion_only_j_set", 23, 31),
    ("theta-z", "theta_z_legendre_set", "legendre_image_j_set", 23, 31),
    ("theta-hex", "hex_zero_set", "hex_zero_set", 17, 23),
    ("background", "bg_supersingular_set", "supersingular_j_set", 13, 19),
    ("identities", "gp_root_product", "_gp_residue_set", 11, 19),
    ("identities", "gp_torsion_product", "two_torsion_only_lambdas", 11, 19),
]


@pytest.mark.parametrize("lane, row, oracle, bad_p, p_max", _ROOT_SET_ROWS)
def test_root_set_row_fails_when_oracle_drops_a_value(
    lane, row, oracle, bad_p, p_max, monkeypatch, capsys
):
    orig = getattr(harness, oracle)

    def dropping(p):
        values = orig(p)
        if p != bad_p:
            return values
        victim = min((z for z in values if z not in ((0, 0), (1728 % p, 0))), key=str)
        return type(values)(z for z in values if z != victim)

    monkeypatch.setattr(harness, oracle, dropping)
    argv = ["verify", lane, "--p-max", str(p_max), "--format", "json"]
    assert main(argv) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = [(r["check_id"], r["p"]) for r in rows if r["status"] == "fail"]
    assert failed == [(row, bad_p)]
    (bad,) = [r for r in rows if r["status"] == "fail"]
    assert bad["witness"].startswith("degree ")


@pytest.mark.parametrize("lane, row, oracle, bad_p, p_max", _ROOT_SET_ROWS)
def test_root_set_row_fails_when_oracle_swaps_a_value_for_a_non_root(
    lane, row, oracle, bad_p, p_max, monkeypatch, capsys
):
    # the set keeps its size, so the degree and leading-coefficient checks
    # pass and only the evaluation at the stranger can fail
    argv = ["verify", lane, "--p-max", str(p_max), "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    orig = getattr(harness, oracle)
    swapped = []

    def swapping(p):
        values = orig(p)
        if p != bad_p:
            return values
        ends = ((0, 0), (1728 % p, 0))  # the supersingular row drops these
        victim = min((z for z in values if z not in ends), key=str)
        pairs = isinstance(victim, tuple)
        field = [(c0, c1) for c1 in range(p) for c0 in range(p)] if pairs else range(p)
        stranger = next(z for z in field if z not in values and z not in ends)
        swapped.append(fp2_str(stranger) if pairs else stranger)
        return type(values)(stranger if z == victim else z for z in values)

    monkeypatch.setattr(harness, oracle, swapping)
    assert main(argv) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = [(r["check_id"], r["p"], r["witness"]) for r in rows if r["status"] == "fail"]
    assert failed == [(row, bad_p, f"f({swapped[0]}) != 0")]
    others = [r for r in rows if (r["check_id"], r["p"]) != (row, bad_p)]
    assert others == [r for r in clean if (r["check_id"], r["p"]) != (row, bad_p)]


_ORACLE_PRIME = lambda p: p
_SOLVE_PRIME = lambda target, k, p: p

# (lane, oracle or artefact builder in harness, its prime from its arguments,
#  the prime where it raises, p_max, the rows that fail, the exception raised)
_RAISING = [
    ("theta-z", "legendre_image_j_set", _ORACLE_PRIME, 23, 31, ["theta_z_legendre_set"],
     RuntimeError),
    ("theta-hex", "hex_zero_set", _ORACLE_PRIME, 17, 23, ["hex_zero_set"], RuntimeError),
    # a failed P(j) is not cached: every row that needs it fails with its own witness
    ("theta-z", "coordinates_mod_p", _SOLVE_PRIME, 23, 31, list(harness.THETA_Z_CHECKS),
     RuntimeError),
    # the solve's too-short-series guard is a check failure like any other
    ("theta-z", "coordinates_mod_p", _SOLVE_PRIME, 23, 31, list(harness.THETA_Z_CHECKS),
     modforms.ConfigError),
    # so is the weight's n_k, computed inside the rows: weight 12 is p = 23's
    ("theta-z", "weight_indices", lambda k: 2 * k - 1, 23, 31, list(harness.THETA_Z_CHECKS),
     RuntimeError),
]


@pytest.mark.parametrize("lane, name, prime_of, bad_p, p_max, failing, exc", _RAISING)
def test_raising_check_becomes_fail_row(
    lane, name, prime_of, bad_p, p_max, failing, exc, monkeypatch, capsys
):
    argv = ["verify", lane, "--p-max", str(p_max), "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    orig = getattr(harness, name)

    def raising(*args):
        p = prime_of(*args)
        if p == bad_p:
            raise exc(f"oracle broke at {p}")
        return orig(*args)

    monkeypatch.setattr(harness, name, raising)
    assert main(argv) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [(r["check_id"], r["p"]) for r in rows] == [(r["check_id"], r["p"]) for r in clean]
    failed = [r for r in rows if r["status"] == "fail"]
    assert sorted(r["check_id"] for r in failed) == sorted(failing)
    assert {r["p"] for r in failed} == {bad_p}
    assert {r["witness"] for r in failed} == {f"exception: {exc.__name__}: oracle broke at {bad_p}"}
    assert [r for r in rows if r["p"] != bad_p] == [r for r in clean if r["p"] != bad_p]


def test_hessian_row_fails_when_a_sampled_cubic_is_wrong(monkeypatch, capsys):
    # one wrong coefficient in the first sampled Hessian cubic at one prime
    # leaves that curve without full 3-torsion: exactly that row fails
    bad_p = 17
    argv = ["verify", "theta-hex", "--p-max", "23", "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    orig = curves._hessian_cubics

    def planted(p, b):
        cubics = orig(p, b)
        if p == bad_p:
            (c2, c1, (c0, w0)), *rest = cubics
            cubics = [(c2, c1, ((c0 + 1) % p, w0)), *rest]
        return cubics

    monkeypatch.setattr(curves, "_hessian_cubics", planted)
    assert main(argv) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = [(r["check_id"], r["p"], r["witness"]) for r in rows if r["status"] == "fail"]
    assert failed == [("hessian_set", bad_p, "Hessian image or 3-torsion mismatch")]
    others = [r for r in rows if r["status"] != "fail"]
    assert others == [r for r in clean if (r["check_id"], r["p"]) != ("hessian_set", bad_p)]


def _assert_only_the_prime_fails(monkeypatch, capsys, name, bad_p, planted_residue):
    """Plant a wrong residue through ``modforms.<name>`` at bad_p, whose
    theta-z solve has m = 3 terms, so the solve reads it: that prime's P(j)
    changes and its congruence row fails, while every other prime's rows are
    the clean run's."""
    assert modforms.weight_indices((bad_p + 1) // 2).n + 1 == 3
    argv = ["verify", "theta-z", "--p-max", "79", "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    real = getattr(modforms, name)

    def planted(*args):
        out = real(*args)
        if args[-1] == bad_p:
            planted_residue(args, out)
        return out

    monkeypatch.setattr(modforms, name, planted)
    monkeypatch.setattr(modforms, "_solve_mod_p", lru_cache(maxsize=2)(modforms._solve_mod_p.__wrapped__))
    assert main(argv) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = [r for r in rows if r["status"] == "fail"]
    assert {r["p"] for r in failed} == {bad_p}
    (congruence,) = [r for r in failed if r["check_id"] == "theta_z_congruence"]
    assert re.fullmatch(r"x\^\d+: \d+ != \d+", congruence["witness"])
    assert [r for r in rows if r["p"] != bad_p] == [r for r in clean if r["p"] != bad_p]


def test_congruence_row_fails_where_the_peel_multiplier_is_perturbed(monkeypatch, capsys):
    # one wrong residue of S = q j: its q^1 coefficient, 744
    def bump(args, out):
        out[1] = (out[1] + 1) % args[-1]

    _assert_only_the_prime_fails(monkeypatch, capsys, "_q_j_mod", 47, bump)


def test_congruence_row_fails_where_the_inverse_e4_is_perturbed(monkeypatch, capsys):
    # one wrong residue of 1/E4: its q^1 coefficient, -240; weight 24 has
    # U^-1 = (1/E4)^6, so the solve reads it
    def bump(args, out):
        k, _, p = args
        if k == 4:
            out[1] = (out[1] + 1) % p

    _assert_only_the_prime_fails(monkeypatch, capsys, "_inverse_eisenstein_mod", 47, bump)


_IDENTITIES_ARGV = ["verify", "identities", "--p-max", "13", "--order", "20", "--format", "json"]

# (family, prime, stream index): among the lane's eight admissible primes of
# the family, the index lies strictly inside this prime's window only, and
# above c_20, the last coefficient the identity rows read at --order 20
_PLANTED_WINDOW_COEFFICIENTS = [("W0", 127, 25), ("W1", 131, 25), ("V0", 131, 40), ("V1", 113, 36)]


@pytest.mark.parametrize("tag, bad_p, m", _PLANTED_WINDOW_COEFFICIENTS)
def test_vanishing_row_fails_where_a_window_coefficient_is_a_unit(
    tag, bad_p, m, fresh_series_caches, capsys
):
    streams, _, _, _ = fresh_series_caches
    assert main(_IDENTITIES_ARGV) == 0
    clean = json.loads(capsys.readouterr().out)
    cs = streams[hyperpoly.FAMILY_PARAMS[tag]]
    lo, hi = hyperpoly._window_bounds(tag, bad_p)
    assert lo < m < hi and m < len(cs) - 1
    cs[m] += 1  # c_m was divisible by bad_p, so c_m + 1 is a bad_p-unit
    assert exact_arith.padic_valuation(cs[m], bad_p) == 0
    assert main(_IDENTITIES_ARGV) == 1
    rows = json.loads(capsys.readouterr().out)
    row = (f"vanish_{tag.lower()}", bad_p)
    failed = [(r["check_id"], r["p"], r["witness"]) for r in rows if r["status"] == "fail"]
    assert failed == [(*row, f"nonvanishing coefficient inside ({lo}, {hi})")]
    others = [r for r in rows if (r["check_id"], r["p"]) != row]
    assert others == [r for r in clean if (r["check_id"], r["p"]) != row]


def test_delta_row_fails_where_e4_has_a_wrong_coefficient(monkeypatch, capsys):
    # E4 + q^e changes E4^3 - E6^2 first at q^e, so only the Delta identity
    # moves, and its witness names e
    e = 5
    assert main(_IDENTITIES_ARGV) == 0
    clean = json.loads(capsys.readouterr().out)
    orig = harness.eisenstein

    def planted(k, order):
        f = orig(k, order)
        if k != 4:
            return f
        coeffs = list(f.coeffs)
        coeffs[e] += 1
        return type(f)(coeffs, f.shift)

    monkeypatch.setattr(harness, "eisenstein", planted)
    assert main(_IDENTITIES_ARGV) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = [(r["check_id"], r["p"], r["witness"]) for r in rows if r["status"] == "fail"]
    assert failed == [("id_delta_from_eisenstein", None, f"first mismatch at exponent {e}")]
    others = [r for r in rows if r["check_id"] != "id_delta_from_eisenstein"]
    assert others == [r for r in clean if r["check_id"] != "id_delta_from_eisenstein"]


def test_neg4_cube_root_row_fails_where_the_cube_root_has_the_wrong_sign(monkeypatch, capsys):
    # -2^(1/3) in place of 2^(1/3) at p = 11, the lane's one prime = 11 mod 12
    bad_p = 11
    assert main(_IDENTITIES_ARGV) == 0
    clean = json.loads(capsys.readouterr().out)
    orig = harness.cube_root_of_2
    monkeypatch.setattr(harness, "cube_root_of_2", lambda p: -orig(p) % p if p == bad_p else orig(p))
    assert main(_IDENTITIES_ARGV) == 1
    rows = json.loads(capsys.readouterr().out)
    row = ("neg4_cube_root", bad_p)
    got, want = orig(bad_p), -orig(bad_p) % bad_p
    failed = [(r["check_id"], r["p"], r["witness"]) for r in rows if r["status"] == "fail"]
    assert failed == [(*row, f"(-4)^((p+1)/12) = {got} != 2^(1/3) = {want}")]
    others = [r for r in rows if (r["check_id"], r["p"]) != row]
    assert others == [r for r in clean if (r["check_id"], r["p"]) != row]


def test_process_pool_bounded_by_primes(monkeypatch):
    # a pool forks all its workers up front, so a huge --jobs must not reach it
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # _run_over_primes imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    strip = lambda rs: [(r.check_id, r.p, r.k, r.status, r.witness) for r in rs]
    serial = cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=29))
    assert sizes == []
    pooled = cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=29, jobs=5000))
    assert sizes == [5]  # 5, 11, 17, 23, 29
    assert strip(pooled) == strip(serial)
    sizes.clear()
    cmd_verify_identities(SweepConfig(p_min=5, p_max=29, jobs=3))
    assert sizes == [3, 3]
    sizes.clear()
    cmd_verify_identities(SweepConfig(p_min=5, p_max=29, jobs=5000))
    assert sizes == [4, 5]  # gp rows at 7, 11, 19, 23; residue rows at the hex primes


def test_parallel_sweep_matches_serial():
    serial = cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=29, jobs=1))
    parallel = cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=29, jobs=2))
    strip = lambda rs: [(r.check_id, r.p, r.k, r.status, r.witness) for r in rs]
    assert strip(serial) == strip(parallel)


# ---------------------------------------------------------------------------
# rendering


def _sample_reports():
    return [
        VerificationReport("b_check", 11, 6, "pass", None, 17),
        VerificationReport("a_check", 7, 4, "fail", "x^0: 1 != 2", 3),
        VerificationReport("a_check", None, None, "skipped", "out of range", 5),
    ]


def test_render_json_is_canonical():
    text = render_json(_sample_reports())
    rows = json.loads(text)
    # sorted by (check_id, p with None first), wall time zeroed
    assert [(r["check_id"], r["p"]) for r in rows] == [
        ("a_check", None),
        ("a_check", 7),
        ("b_check", 11),
    ]
    assert all(r["ms"] == 0 for r in rows)
    assert text.endswith("\n")


def test_render_json_deterministic_across_runs():
    a = render_json(cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=17)))
    b = render_json(cmd_verify_theta_hex(SweepConfig(p_min=5, p_max=17, jobs=2)))
    assert a == b


def test_render_csv_header_and_blanks():
    lines = render_csv(_sample_reports()).splitlines()
    assert lines[0] == "check_id,p,k,status,witness,ms"
    assert lines[1] == "a_check,,,skipped,out of range,0"
    assert lines[2] == "a_check,7,4,fail,x^0: 1 != 2,0"
    assert lines[3] == "b_check,11,6,pass,,0"


def test_render_table_keeps_ms_and_summary():
    text = render_table(_sample_reports())
    assert "17" in text
    assert text.strip().endswith("1 passed, 1 failed, 1 skipped")


# ---------------------------------------------------------------------------
# worked examples


def test_show_k52_frozen_values():
    text = cmd_show("k52")
    assert "27800506386" in text
    assert "-3118" in text
    assert "95037348924*q^5" in text
    assert "1017845969208768*q^6" in text
    assert "[58, 89, 93, 97]" in text


def test_show_p107_frozen_values():
    text = cmd_show("p107")
    assert "1496265431568669020160*q^10" in text
    assert "2139590870258478384000" in text
    factorization = text.splitlines()[-1]
    assert "(j + 16)" in factorization
    assert factorization.count("j^2") == 4


def test_show_w0_4_frozen_values():
    text = cmd_show("w0-4-mod103")
    assert "18044467104" in text
    assert "16085280" in text


def test_show_unknown_id_raises():
    with pytest.raises(ValueError):
        cmd_show("nonsense")


# ---------------------------------------------------------------------------
# CLI entry point


def test_main_show_exits_zero(capsys):
    assert main(["show", "w0-4-mod103"]) == 0
    assert "18044467104" in capsys.readouterr().out


def test_main_verify_pass_exits_zero(capsys):
    assert main(["verify", "theta-hex", "--p-max", "17"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_main_json_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "background", "--p-max", "13", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in rows)
    assert capsys.readouterr().out == ""


def test_main_config_error_exits_two(capsys):
    assert main(["verify", "theta-z", "--p-min", "3"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_main_order_on_a_per_prime_lane_exits_two_before_the_sweep(tmp_path, capsys):
    # the sweep would pass 5..233 before any weight outgrows order 20; the
    # option is refused before --out is opened, so the file is not truncated
    out = tmp_path / "r.json"
    out.write_text("old")
    argv = ["verify", "theta-hex", "--p-min", "5", "--p-max", "983", "--order", "20"]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert out.read_text() == "old"


@pytest.mark.parametrize("lane", ["theta-z", "theta-hex", "background"])
def test_main_order_is_for_identities_only(lane, capsys):
    # an order every weight in 5..13 could use is still refused
    assert main(["verify", lane, "--p-max", "13", "--order", "40"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "identities" in captured.err
    assert captured.out == ""
    assert main(["verify", "identities", "--p-max", "13", "--order", "20"]) == 0


@pytest.mark.parametrize(
    "lane", [cmd_verify_theta_z, cmd_verify_theta_hex, cmd_verify_background]
)
def test_per_prime_lane_refuses_an_order_through_the_api(lane):
    # the solves read exactly q^0..q^n, so the lanes refuse an order rather
    # than ignore it, as the CLI does
    with pytest.raises(ValueError, match="identities"):
        lane(SweepConfig(order=20, p_min=983, p_max=983))


def test_identities_run_composes_twice_and_extends_the_t_table_once(
    monkeypatch, fresh_series_caches
):
    # the three F(...; 1728/j) rows read the one t-table, grown once to the
    # q^63 they compare to; only the cubic-transform and degenerate-evaluation
    # rows compose
    _, t_powers, _, _ = fresh_series_caches
    composed, sizes = [], []
    compose, t_table = hyperpoly.compose, modforms._t_powers

    def counted_compose(outer, inner):
        composed.append(inner.order)
        return compose(outer, inner)

    def sized_t_table(order):
        sizes.append(len(modforms._T_POWERS))
        return t_table(order)

    monkeypatch.setattr(hyperpoly, "compose", counted_compose)
    monkeypatch.setattr(modforms, "_t_powers", sized_t_table)
    cmd_verify_identities(SweepConfig(p_min=5, p_max=13, order=64))
    assert composed == [64, 64]
    assert sizes == [1, 64, 64] and len(t_powers) == 64


@pytest.mark.parametrize("example", ["k52", "p107", "w0-4-mod103"])
def test_show_matches_golden(example):
    golden = Path(__file__).parent / "golden" / f"show_{example}.txt"
    assert cmd_show(example) == golden.read_text()


def test_readme_names_every_verify_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("Options for `verify`:")
    paragraph = readme[start : readme.index("\n\n", start)]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    parser = harness._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = subparsers.choices["verify"]
    options = {
        flag
        for action in verify._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert documented == options


def test_main_unwritable_out_exits_two(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    assert main(["verify", "theta-hex", "--p-max", "17", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_main_crash_leaves_an_existing_report_intact(tmp_path, monkeypatch, capsys):
    # a raise outside any check row is an internal error, not a failed check;
    # the old report must survive it
    out = tmp_path / "r.json"
    out.write_bytes(b'["old row"]\n')

    def broken(*args, **kwargs):
        raise RuntimeError("vanishing primes broke")

    monkeypatch.setattr(harness, "admissible_vanishing_primes", broken)
    argv = ["verify", "identities", "--p-max", "13", "--format", "json", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: vanishing primes broke\n"
    assert out.read_bytes() == b'["old row"]\n'
    assert os.listdir(tmp_path) == ["r.json"]  # no temporary file left behind


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the planted worker exit reaches pool workers only through fork",
)
def test_main_pool_crash_leaves_an_existing_report_intact(tmp_path, monkeypatch, capsys):
    # a --jobs 2 worker that dies outright at one prime is an internal error
    # and must not destroy the old report
    reports, died = tmp_path / "reports", tmp_path / "died"
    reports.mkdir()
    out = reports / "r.json"
    out.write_bytes(b'["old row"]\n')
    real = harness.legendre_image_j_set

    def dying(p):
        if p == 11:
            died.touch()
            os._exit(70)
        return real(p)

    monkeypatch.setattr(harness, "legendre_image_j_set", dying)
    argv = ["verify", "theta-z", "--p-min", "7", "--p-max", "11", "--jobs", "2", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("internal error: BrokenProcessPool: ")
    assert died.exists()  # the worker did end by os._exit
    assert out.read_bytes() == b'["old row"]\n'
    assert os.listdir(reports) == ["r.json"]  # no temporary file left behind


def test_main_report_replaces_the_target_whole(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_text("old")
    out.chmod(0o640)
    assert main(["verify", "theta-hex", "--p-max", "17", "--format", "json", "--out", str(out)]) == 0
    assert main(["verify", "theta-hex", "--p-max", "17", "--format", "json"]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert out.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["r.json"]


def test_main_out_to_a_device_is_written_directly(monkeypatch, capsys):
    # no temporary file may be made beside /dev/null, let alone moved onto it
    def refuse(*args, **kwargs):
        raise AssertionError("temporary file for a device target")

    monkeypatch.setattr(harness.tempfile, "mkstemp", refuse)
    assert main(["verify", "theta-hex", "--p-max", "17", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_main_new_report_gets_the_default_mode(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    out = tmp_path / "new.json"
    assert main(["verify", "theta-hex", "--p-max", "17", "--format", "json", "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_main_ss_cap_lifts_supersingular_skips(capsys):
    argv = ["verify", "background", "--p-min", "101", "--p-max", "113"]
    assert main([*argv, "--ss-cap", "113", "--format", "json"]) == 0
    rows = [r for r in json.loads(capsys.readouterr().out) if r["check_id"] == "bg_supersingular_set"]
    assert [r["p"] for r in rows] == [101, 103, 107, 109, 113]
    assert all(r["status"] == "pass" for r in rows)


def test_main_negative_ss_cap_exits_two(capsys):
    assert main(["verify", "background", "--p-max", "13", "--ss-cap", "-1"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lane, check_id, flag, p_min, p_max, lifted",
    [
        ("theta-z", "theta_z_curve_set", "--curve-cap", 97, 131, [107, 127, 131]),
        ("theta-hex", "hessian_set", "--hessian-cap", 191, 227, [227]),
    ],
)
def test_main_curve_and_hessian_caps_lift_skips(lane, check_id, flag, p_min, p_max, lifted, capsys):
    argv = ["verify", lane, "--p-min", str(p_min), "--p-max", str(p_max), "--format", "json"]
    reason = {"--curve-cap": "curve sweep capped at 103", "--hessian-cap": "Hessian sweep capped at 200"}
    assert main(argv) == 0
    rows = [r for r in json.loads(capsys.readouterr().out) if r["check_id"] == check_id]
    assert [r["p"] for r in rows if r["witness"] == reason[flag]] == lifted
    assert main([*argv, flag, str(p_max)]) == 0
    rows = {r["p"]: r for r in json.loads(capsys.readouterr().out) if r["check_id"] == check_id}
    assert all(rows[p]["status"] == "pass" for p in lifted)
    assert not [r for r in rows.values() if r["witness"] == reason[flag]]


@pytest.mark.parametrize("flag", ["--curve-cap", "--hessian-cap"])
def test_main_negative_curve_or_hessian_cap_exits_two(flag, capsys):
    assert main(["verify", "theta-z", "--p-max", "13", flag, "-1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def _loaded_after(code: str, module: str) -> bool:
    """Whether ``module`` is in sys.modules after running ``code`` in a fresh
    interpreter."""
    code = f"import sys; {code}; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(theta_forms.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return out.strip() == "True"


numpy_2 = pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy < 2 imports numpy.fft eagerly"
)


@numpy_2
def test_harness_import_leaves_numpy_fft_unloaded():
    assert not _loaded_after("import theta_forms.harness", "numpy.fft")


@numpy_2
def test_background_lane_leaves_numpy_fft_unloaded():
    # the supersingular rows up to the default cap run in-process (jobs = 1)
    code = (
        "from theta_forms.harness import cmd_verify_background, SweepConfig; "
        "cmd_verify_background(SweepConfig(p_min=5, p_max=103))"
    )
    assert not _loaded_after(code, "numpy.fft")


def test_polynomial_and_legendre_rows_leave_numpy_ma_unloaded():
    # np.unique would pull in numpy.ma, about 1 MB of peak RSS per sweep
    code = (
        "from theta_forms.harness import cmd_verify_theta_z, SweepConfig; "
        "cmd_verify_theta_z(SweepConfig(p_min=19, p_max=23, curve_cap=0))"
    )
    assert not _loaded_after(code, "numpy.ma")


def test_main_bad_usage_exits_two():
    assert main(["verify", "not-a-lane"]) == 2
    assert main([]) == 2


def test_main_order_below_weight_dimension_exits_two(capsys):
    # --order belongs to the identities lane, so theta-hex refuses it before
    # reaching the weight-984 space it would be too short for
    assert main(["verify", "theta-hex", "--p-min", "983", "--p-max", "983", "--order", "20"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_main_theta_z_order_below_weight_dimension_exits_two(capsys):
    # --order belongs to the identities lane, so theta-z refuses it before
    # reaching the weight-492 space it would be too short for
    assert main(["verify", "theta-z", "--p-min", "983", "--p-max", "983", "--order", "20"]) == 2
    assert "configuration error" in capsys.readouterr().err


# the family and degree of each lane's congruence row at p = 23 mod 24
_FAMILY_ROW = {
    "theta-z": lambda p: ("W0", modforms.weight_indices((p + 1) // 2).n),
    "theta-hex": lambda p: ("V0", modforms.weight_indices(p + 1).n),
    "background": lambda p: ("U1", modforms.weight_indices(p - 1).n),
}


@pytest.mark.parametrize(
    "lane, row, p",
    [("theta-z", "theta_z_congruence", 23), ("theta-hex", "hex_congruence", 23),
     ("background", "bg_congruence", 23)],
)
def test_congruence_row_witness_names_f_then_stream(lane, row, p, monkeypatch, capsys):
    # a stream off by one in its constant term fails that row only, and the
    # witness reads "x^0: <coefficient of P mod p> != <stream coefficient>"
    orig = harness.truncated_poly_mod

    def shifted(fam, n, q):
        g = orig(fam, n, q)
        return g if q != p else FpPoly([g.coefficient(0) + 1] + g.coeffs[1:], q)

    monkeypatch.setattr(harness, "truncated_poly_mod", shifted)
    assert main(["verify", lane, "--p-min", str(p), "--p-max", str(p), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    (bad,) = [r for r in rows if r["status"] == "fail"]
    c0 = orig(*_FAMILY_ROW[lane](p), p).coefficient(0)
    assert (bad["check_id"], bad["p"]) == (row, p)
    assert bad["witness"] == f"x^0: {c0} != {(c0 + 1) % p}"


def test_main_background_order_below_weight_dimension_exits_two(capsys):
    # --order belongs to the identities lane, so background refuses it before
    # reaching the weight-982 space it would be too short for
    assert main(["verify", "background", "--p-min", "983", "--p-max", "983", "--order", "20"]) == 2
    assert "configuration error" in capsys.readouterr().err
