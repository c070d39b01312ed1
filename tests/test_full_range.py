"""Every lane over the whole CLI range, against frozen full-range reports.

tests/golden/full_range_<lane>.json holds the canonical JSON report of one
lane over 5..1000 with every oracle cap at 1000.  The files were made with

    for lane in theta-z theta-hex background identities; do
        PYTHONPATH=src python3 -m theta_forms.harness verify $lane \\
            --p-min 5 --p-max 1000 --curve-cap 1000 --hessian-cap 1000 \\
            --ss-cap 1000 --format json \\
            --out tests/golden/full_range_${lane//-/_}.json
    done

and a change that alters any row must regenerate them the same way and name
the rows it changed.  The four lanes take a few seconds together, so every
run compares them in full, reruns the top prime of each lane's residue
classes with the caps raised and compares those rows, and checks the
supersingular anchors at every prime up to 1000.  The agreements with the
slow references at every prime up to 1000 run only when
THETA_FORMS_FULL_RANGE=1 is set: the mod-p solve with the exact one,
Faulhaber's Eisenstein factor with the tangent-number one, the
supersingular walk with the FFT reference, the Legendre 4-torsion classes
with ``n_torsion_structure``, the theta-hex oracles with their sweeps
over all of F_{p^2}, and the split rows' Frobenius divisibility test with
the factor pattern on each lane's P mod p.
"""

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest
from test_curves import check_fp2_oracles_match_grid_sweeps, supersingular_j_set_fft
from test_exact_arith import _factor, _tangent_factor
from test_fppoly import _divides_frobenius_by_pattern
from test_modforms import check_solve_mod_p_matches_exact

from theta_forms import harness
from theta_forms.curves import (
    TorsionStructure,
    n_torsion_structure,
    supersingular_j_set,
    two_torsion_only_lambdas,
)
from theta_forms.exact_arith import primes_in_range
from theta_forms.fppoly import divides_frobenius
from theta_forms.harness import (
    SweepConfig,
    cmd_verify_background,
    cmd_verify_identities,
    cmd_verify_theta_hex,
    cmd_verify_theta_z,
    render_json,
)

GOLDEN = Path(__file__).parent / "golden"
FULL_RANGE = os.environ.get("THETA_FORMS_FULL_RANGE") == "1"
full_range_only = pytest.mark.skipif(not FULL_RANGE, reason="set THETA_FORMS_FULL_RANGE=1")

CAPS = dict(curve_cap=1000, hessian_cap=1000, supersingular_cap=1000)

# lane -> (its verify command, the highest primes below 1000 in its classes)
LANES = {
    "theta_z": (cmd_verify_theta_z, (991, 991)),  # p = 3 mod 4
    "theta_hex": (cmd_verify_theta_hex, (983, 983)),  # p = 5, 11 mod 12
    "background": (cmd_verify_background, (997, 997)),  # every p
    "identities": (cmd_verify_identities, (983, 991)),  # G_p at 991, residue constants at 983
}


def _golden(lane: str) -> str:
    return (GOLDEN / f"full_range_{lane}.json").read_text()


def _key(row: dict) -> tuple:
    return row["check_id"], row["p"]


@pytest.mark.parametrize("lane", sorted(LANES))
def test_top_primes_match_full_range_report(lane):
    verify, (lo, hi) = LANES[lane]
    rows = json.loads(render_json(verify(SweepConfig(p_min=lo, p_max=hi, **CAPS))))
    golden = {_key(r): r for r in json.loads(_golden(lane))}
    assert any(r["p"] == hi and r["status"] == "pass" for r in rows)
    assert rows == [golden[_key(r)] for r in rows]
    # every row the report holds for those primes came back
    assert {_key(r) for r in rows} >= {k for k in golden if k[1] in (lo, hi)}


@pytest.mark.parametrize("lane", sorted(LANES))
def test_full_range_matches_report(lane):
    verify, _ = LANES[lane]
    assert render_json(verify(SweepConfig(p_min=5, p_max=1000, **CAPS))) == _golden(lane)


def test_supersingular_anchors_to_1000():
    # Eichler-Deuring: floor(p/12) + eps classes, of total mass (p - 1)/24
    eps = {1: 0, 5: 1, 7: 1, 11: 2}
    for p in primes_in_range(5, 1000):
        s = supersingular_j_set(p)
        assert len(s) == p // 12 + eps[p % 12], p
        aut = {(0, 0): 6, (1728 % p, 0): 4}
        assert sum(Fraction(1, aut.get(z, 2)) for z in s) == Fraction(p - 1, 24), p


@full_range_only
def test_solve_mod_p_matches_exact_to_1000():
    for p in primes_in_range(5, 1000):
        check_solve_mod_p_matches_exact(p)


@full_range_only
def test_eisenstein_factor_matches_tangent_numbers_to_1000():
    for p in primes_in_range(3, 1000):
        for k in range(2, p, 2):
            assert _factor(k, p) == _tangent_factor(k, p), (k, p)


@full_range_only
def test_supersingular_walk_matches_fft_to_1000():
    for p in primes_in_range(5, 1000):
        assert supersingular_j_set(p) == supersingular_j_set_fft(p), p


@full_range_only
def test_two_torsion_only_lambdas_match_n_torsion_to_1000():
    # both residue classes, against the x-only doubling sweep per curve
    for p in primes_in_range(5, 1000):
        want = tuple(
            v for v in range(2, p)
            if n_torsion_structure((-1 - v, v, 0), 4, p) == TorsionStructure(2, 2)
        )
        assert two_torsion_only_lambdas(p) == want, p


@full_range_only
def test_fp2_oracles_match_grid_sweeps_to_1000():
    # the 86 primes p = 5, 11 mod 12 below 1000, and their 258 Hessian samples
    primes = [p for p in primes_in_range(5, 1000) if p % 12 in (5, 11)]
    assert len(primes) == 86
    assert sum(check_fp2_oracles_match_grid_sweeps(p) for p in primes) == 258


@full_range_only
def test_divides_frobenius_matches_the_pattern_on_every_lane_f_to_1000(monkeypatch):
    # each lane's f at every prime to 1000, caught where its shape row reads
    # it, asked both questions: d = 1 (theta-z's; false wherever f has a
    # quadratic factor) and d = 2 (background's, and the shape theta-hex checks)
    lanes = (
        (cmd_verify_theta_z, "divides_frobenius"),
        (cmd_verify_theta_hex, "factor_pattern"),
        (cmd_verify_background, "divides_frobenius"),
    )
    answers = set()
    for verify, name in lanes:
        seen = []
        real = getattr(harness, name)

        def recording(f, *rest, _real=real):
            seen.append(f)
            return _real(f, *rest)

        monkeypatch.setattr(harness, name, recording)
        reports = verify(SweepConfig(p_min=5, p_max=1000))
        monkeypatch.setattr(harness, name, real)
        assert all(r.status != "fail" for r in reports)
        assert sorted(f.p for f in seen) == sorted({r.p for r in reports if r.k is not None})
        for f in seen:
            for d in (1, 2):
                want = _divides_frobenius_by_pattern(f, d)
                assert divides_frobenius(f, d) == want, (f.p, d)
                answers.add((d, want))
    assert answers == {(1, True), (1, False), (2, True)}
