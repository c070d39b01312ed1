"""Command line verification harness.

Runs every finite-field and q-series check in the package over prime sweeps
and emits machine-readable reports.  The four lanes are:

* ``verify theta-z``: the integer-lattice theta form of weight (p+1)/2 for
  p = 3 mod 4 (congruence to the truncated hypergeometric polynomial, linear
  splitting, curve-set equality, Legendre-image equality).
* ``verify theta-hex``: the hexagonal-lattice theta form of weight p+1 for
  p = 5, 11 mod 12 (congruence, splitting over F_{p^2}, factor pattern, zero
  set, Hessian parametrization).
* ``verify background``: the weight p-1 Eisenstein form for every p
  (congruence, factor degrees, supersingular set, extremal congruence).
* ``verify identities``: the exact series identities plus the per-prime
  polynomial facts (reciprocity, root products, power sums, vanishing
  windows, residue constants).

Every row comes from one runner, ``_check``.  Per-prime artefacts (n_k of
the form's weight, f = P mod p for the form's P(j), theta-hex's factor
pattern of f, G_p) are built once, by the first row that needs them, so a
row's ``ms`` covers its check plus any artefact it is first to need, and an
artefact that raises fails the rows that need it.  No lane builds P(j) over Q: f is solved
mod p (``modforms.coordinates_mod_p``) from the residues of the form's
q^0..q^n, all the solve reads.  The solve divides by E4^(a+3n) E6^b through
the residues of the exact 1/E4 and 1/E6, then peels P's coefficients as
digits in base 1/j, multiplying by the residues of q j, so no lane reads the
exact table of powers of 1/j.  The background lane takes E_{p-1}'s residues from
-2k/B_k mod p (``eisenstein_mod``), read from Faulhaber's sum of a^(p-1)
over a < p mod p^2, so the per-prime lanes build no exact Bernoulli
number past B_6.
The congruence rows compare f with the family's truncated hypergeometric
polynomial from the mod-p stream (``truncated_poly_mod``).  The two split
rows ask one divisibility question: ``theta_z_splits`` whether f divides
x^p - x, ``bg_factor_degrees`` whether it divides x^(p^2) - x
(``divides_frobenius``); only a row that fails it factors f, to word its
witness, so a non-squarefree background f of degrees 1 and 2 still passes.
The theta-hex shape rows read f's factor pattern, and the root-set rows
check that the polynomial is the monic product of (x - t) over the
oracle's targets t.
Reports are deterministic: JSON and CSV output is canonical (rows sorted by
(check_id, p), wall times zeroed, keys sorted), so re-running a sweep yields
a bit-identical file.  The table format keeps measured times for humans.

Exit codes: 0 all pass, 1 any fail (a check that raises is a fail row), 2
configuration error, 3 internal error (an exception outside every check row,
such as a dead pool worker).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, partial

from .curves import (
    check_hessian_matches_hex,
    hex_zero_set,
    legendre_image_j_set,
    supersingular_j_set,
    two_torsion_only_j_set,
    two_torsion_only_lambdas,
)
from .exact_arith import (
    cube_root_of_2,
    fp2_str,
    least_nonresidue,
    legendre_symbols,
    primes_in_range,
)
from .fppoly import (
    FactorPattern,
    FpPoly,
    divides_frobenius,
    factor_pattern,
    is_reciprocal,
    power_sums,
    reduce_poly,
    roots_brute,
)
from .hyperpoly import (
    admissible_vanishing_primes,
    cubic_transform_mismatch,
    degenerate_eval_mismatch,
    euler_transform_mismatch,
    e4_quarter_hypergeometric_mismatch,
    gp_poly,
    scaled_coefficient_mod,
    theta_h_hypergeometric_mismatch,
    theta_z_hypergeometric_mismatch,
    truncated_poly,
    truncated_poly_mod,
    vanishing_window,
)
from .modforms import coordinates_mod_p, default_order, weight_indices
from .qseries import QSeries, delta, eisenstein, eisenstein_mod, hauptmodul_mismatch, theta_H, theta_Z

_STATUSES = ("pass", "fail", "skipped")

THETA_Z_CHECKS = (
    "theta_z_congruence",
    "theta_z_splits",
    "theta_z_curve_set",
    "theta_z_legendre_set",
)


@dataclass(frozen=True)
class VerificationReport:
    """One check outcome.  A fail carries a witness, a skip carries a reason."""

    check_id: str
    p: int | None
    k: int | None
    status: str
    witness: str | None = None
    ms: int = 0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in ("fail", "skipped") and not self.witness:
            raise ValueError(f"{self.status} report requires a witness/reason")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep bounds and output options.

    ``order`` is the identities lane's series order (None for 40).  The
    per-prime lanes raise ValueError unless it is None: each solve reads
    exactly q^0..q^n of its form, so an order could only make them fail.
    The caps are the largest primes at which the brute-force oracles run:
    ``curve_cap`` for the Legendre 4-torsion curve set (theta-z),
    ``hessian_cap`` for the Hessian parametrization and its 3-torsion samples
    (theta-hex) and ``supersingular_cap`` for the supersingular j-set
    (background).  Primes beyond a cap get a skipped report rather than
    silence.
    """

    p_min: int = 5
    p_max: int = 199
    order: int | None = None
    jobs: int = 1
    fmt: str = "table"
    curve_cap: int = 103
    hessian_cap: int = 200
    supersingular_cap: int = 103

    def __post_init__(self):
        if self.p_min < 5:
            raise ValueError("p_min must be at least 5")
        if self.p_max < self.p_min:
            raise ValueError("p_max must be at least p_min")
        if self.p_max > 1000:
            raise ValueError("p_max must be at most 1000")
        if self.fmt not in ("json", "csv", "table"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.order is not None and self.order < 20:
            raise ValueError("series order override must be at least 20")
        if self.curve_cap < 0:
            raise ValueError("curve cap must be non-negative")
        if self.hessian_cap < 0:
            raise ValueError("Hessian cap must be non-negative")
        if self.supersingular_cap < 0:
            raise ValueError("supersingular cap must be non-negative")


def _check(check_id: str, p, k, witness, skip: str | None = None) -> VerificationReport:
    """Run one check and return its report row.

    ``witness()`` returns None when the check holds and a witness string when
    it fails.  Given a ``skip`` reason, the check is not run and the row is
    skipped.  ``ms`` times ``witness()``, which includes building any
    per-prime artefact this row is the first to need.  The witness is called
    before ``_check`` returns, so a lambda may close over loop variables.

    An exception from the check makes a fail row with an ``exception:``
    witness, so the rest of the sweep still runs; the artefact thunks cache no
    exception, so each later row that needs a failed artefact fails too.
    """
    if skip is not None:
        return VerificationReport(check_id, p, k, "skipped", skip)
    clock = time.perf_counter
    start = clock()
    try:
        w = witness()
    except Exception as exc:
        w = f"exception: {type(exc).__name__}: {exc}"
    ms = int((clock() - start) * 1000)
    return VerificationReport(check_id, p, k, "pass" if w is None else "fail", w, ms)


def _congruence_witness(fa: FpPoly, fb: FpPoly) -> str | None:
    for i in range(max(fa.degree, fb.degree) + 1):
        if fa.coefficient(i) != fb.coefficient(i):
            return f"x^{i}: {fa.coefficient(i)} != {fb.coefficient(i)}"
    return None


def _product_witness(f: FpPoly, targets) -> str | None:
    """None when f is the monic product of (x - t) over the distinct ``targets``.

    The targets are all ints (F_p) or all pairs (c0, c1) for c0 + c1 w in
    F_{p^2}; they are tried in (c1, c0) order.  A monic f of degree |T| that
    vanishes at |T| distinct points of a field is exactly that product, so no
    field element outside the targets is ever evaluated.
    """
    targets = set(targets)
    if f.degree != len(targets):
        return f"degree {f.degree} != target set size {len(targets)}"
    if f.leading() != 1:
        return f"leading coefficient {f.leading()} != 1"
    key = lambda t: (t[1], t[0]) if isinstance(t, tuple) else (0, t)
    for t in sorted(targets, key=key):
        if f.evaluate(t) not in (0, (0, 0)):
            return f"f({fp2_str(t) if isinstance(t, tuple) else t}) != 0"
    return None


def _splits_witness(pattern: FactorPattern, max_degree: int) -> str | None:
    """None when the factored f is squarefree and splits over F_p or F_{p^2}.

    ``max_degree`` is 1 for F_p and 2 for F_{p^2}: the largest degree an
    irreducible factor of a polynomial split over that field can have.
    """
    if pattern.multiplicities() - {1}:
        return "polynomial is not squarefree"
    if max(pattern.degrees(), default=1) > max_degree:
        return f"polynomial does not split over {'F_p' if max_degree == 1 else 'F_{p^2}'}"
    return None


# ---------------------------------------------------------------------------
# theta-z lane


def _theta_z_prime(p: int, curve_cap: int) -> list[VerificationReport]:
    if p % 4 == 1:
        reason = "p = 1 mod 4: weight (p+1)/2 is odd, outside the even-weight setting"
        return [_check(cid, p, None, None, reason) for cid in THETA_Z_CHECKS]
    k = (p + 1) // 2
    n = cache(lambda: weight_indices(k).n)
    fam = "W0" if p % 24 in (7, 23) else "W1"
    f = cache(lambda: FpPoly(coordinates_mod_p(theta_Z(n() + 1).coeffs, k, p), p))
    capped = None if p <= curve_cap else f"curve sweep capped at {curve_cap}"
    return [
        _check("theta_z_congruence", p, k, lambda: _congruence_witness(f(), truncated_poly_mod(fam, n(), p))),
        _check("theta_z_splits", p, k,
               lambda: None if divides_frobenius(f(), 1) else _splits_witness(factor_pattern(f()), 1)),
        _check("theta_z_curve_set", p, k,
               lambda: _product_witness(f(), two_torsion_only_j_set(p)), capped),
        _check("theta_z_legendre_set", p, k, lambda: _product_witness(f(), legendre_image_j_set(p))),
    ]


# ---------------------------------------------------------------------------
# theta-hex lane


def _hex_pattern_witness(f: FpPoly, pattern: FactorPattern, n: int) -> str | None:
    """n/2 quadratic factors, or (n-1)/2 of them and the linear factor j + 1728."""
    want = {(1, 1): 1, (2, 1): (n - 1) // 2} if n % 2 == 1 else {(2, 1): n // 2}
    want = {pair: count for pair, count in want.items() if count}
    got = dict(pattern.pairs)
    if got != want:
        return f"factor pattern {got} != {want}"
    if n % 2 == 1 and f.evaluate(-1728):
        return "the F_p root is not -1728"
    return None


def _theta_hex_prime(p: int, hessian_cap: int) -> list[VerificationReport]:
    k = p + 1
    n = cache(lambda: weight_indices(k).n)
    fam = "V0" if p % 12 == 11 else "V1"
    f = cache(lambda: FpPoly(coordinates_mod_p(theta_H(n() + 1).coeffs, k, p), p))
    pattern = cache(lambda: factor_pattern(f()))
    capped = None if p <= hessian_cap else f"Hessian sweep capped at {hessian_cap}"
    return [
        _check("hex_congruence", p, k, lambda: _congruence_witness(f(), truncated_poly_mod(fam, n(), p))),
        _check("hex_splits_fp2", p, k, lambda: _splits_witness(pattern(), 2)),
        _check("hex_factor_pattern", p, k, lambda: _hex_pattern_witness(f(), pattern(), n())),
        _check("hex_zero_set", p, k, lambda: _product_witness(f(), hex_zero_set(p))),
        _check("hessian_set", p, k,
               lambda: None if check_hessian_matches_hex(p) else "Hessian image or 3-torsion mismatch",
               capped),
    ]


# ---------------------------------------------------------------------------
# background lane


def _factor_degrees_witness(pattern: FactorPattern) -> str | None:
    degs = pattern.degrees()
    return None if degs <= {1, 2} else f"factor degrees {sorted(degs)} not within {{1, 2}}"


def _background_prime(p: int, ss_cap: int) -> list[VerificationReport]:
    k = p - 1
    n = cache(lambda: weight_indices(k).n)
    fam = "U0" if p % 12 in (1, 5) else "U1"
    f = cache(lambda: FpPoly(coordinates_mod_p(eisenstein_mod(k, n() + 1, p), k, p), p))
    capped = None if p <= ss_cap else f"supersingular sweep capped at {ss_cap}"
    return [
        _check("bg_congruence", p, k, lambda: _congruence_witness(f(), truncated_poly_mod(fam, n(), p))),
        _check("bg_factor_degrees", p, k,
               lambda: None if divides_frobenius(f(), 2) else _factor_degrees_witness(factor_pattern(f()))),
        _check("bg_supersingular_set", p, k, lambda: _product_witness(
            f(), supersingular_j_set(p) - {(0, 0), (1728 % p, 0)}), capped),
        _check("bg_extremal_congruence", p, k,
               lambda: _congruence_witness(
                   FpPoly(coordinates_mod_p(QSeries.one(n() + 1).coeffs, k, p), p), f())),
    ]


# ---------------------------------------------------------------------------
# identities lane


def _delta_mismatch(order: int) -> int | None:
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    rhs = (e4 * e4 * e4 - e6 * e6) * Fraction(1, 1728)
    return delta(order).first_mismatch(rhs)


def _exponent_witness(m: int | None) -> str | None:
    return None if m is None else f"first mismatch at exponent {m}"


def _series_identity_reports(order: int) -> list[VerificationReport]:
    # names looked up per call, never bound at import, so a rebinding tracer sees them
    mismatches = {
        "id_theta_int_hypergeometric": lambda: theta_z_hypergeometric_mismatch(order),
        "id_theta_hex_hypergeometric": lambda: theta_h_hypergeometric_mismatch(order),
        "id_e4_quarter_hypergeometric": lambda: e4_quarter_hypergeometric_mismatch(order),
        "id_delta_from_eisenstein": lambda: _delta_mismatch(order),
        "id_hauptmodul_cubic": lambda: hauptmodul_mismatch("t3", order),
        "id_hauptmodul_legendre": lambda: hauptmodul_mismatch("lambda", order),
        "id_euler_transform": lambda: euler_transform_mismatch(order),
        "id_cubic_transform": lambda: cubic_transform_mismatch(order),
        "id_degenerate_eval": lambda: degenerate_eval_mismatch(order),
    }
    return [
        _check(cid, None, None, lambda: _exponent_witness(mismatch()))
        for cid, mismatch in mismatches.items()
    ]


def _power_sums_rhs(p: int) -> list[int]:
    """(1/4) (1/2)_v / v! mod p for v = 0..(p+1)/4, as one running product.

    Step v -> v + 1 multiplies by (2v + 1) / (2(v + 1)).  For v + 1 <= (p+1)/4
    both factors lie in (0, p), so no step divides by 0 mod p.
    """
    rhs = [pow(4, -1, p)]
    for v in range((p + 1) // 4):
        rhs.append(rhs[-1] * (2 * v + 1) * pow(2 * (v + 1), -1, p) % p)
    return rhs


def _power_sums_witness(g: FpPoly, p: int) -> str | None:
    rhs = _power_sums_rhs(p)
    s = power_sums(g, len(rhs) - 1)
    for v, (sv, r) in enumerate(zip(s, rhs)):
        if sv != r:
            return f"S_{v}: {sv} != {r}"
    return None


def _gp_residue_set(p: int) -> list[int]:
    """The roots of G_p: t with t - 1 a nonzero square and t a non-square mod p."""
    chi = legendre_symbols(p)
    return [t for t in range(2, p) if chi[t - 1] == 1 and chi[t] == -1]


def _gp_prime(p: int) -> list[VerificationReport]:
    g = cache(lambda: gp_poly(p))
    return [
        _check("gp_reciprocal", p, None,
               lambda: None if is_reciprocal(g()) else "polynomial is not palindromic"),
        _check("gp_root_product", p, None, lambda: _product_witness(g(), _gp_residue_set(p))),
        _check("gp_power_sums", p, None, lambda: _power_sums_witness(g(), p)),
        _check("gp_torsion_product", p, None,
               lambda: _product_witness(g(), two_torsion_only_lambdas(p))),
    ]


def _series_constant_witness(p: int) -> str | None:
    m = (p + 1) // 3
    got = scaled_coefficient_mod("V0" if p % 12 == 11 else "V1", m, p)
    return None if got == (-18) % p else f"coefficient at m={m}: {got} != -18 mod p"


def _neg4_cube_root_witness(p: int) -> str | None:
    got = pow(-4 % p, (p + 1) // 12, p)
    want = cube_root_of_2(p)
    return None if got == want else f"(-4)^((p+1)/12) = {got} != 2^(1/3) = {want}"


def _residue_constant_prime(p: int) -> list[VerificationReport]:
    out = [_check("hex_series_constant", p, None, lambda: _series_constant_witness(p))]
    if p % 12 == 11:
        out.append(_check("neg4_cube_root", p, None, lambda: _neg4_cube_root_witness(p)))
    return out


def _window_witness(tag: str, p: int) -> str | None:
    lo, hi, ok = vanishing_window(tag, p)
    return None if ok else f"nonvanishing coefficient inside ({lo}, {hi})"


def _vanishing_reports() -> list[VerificationReport]:
    return [
        _check(f"vanish_{tag.lower()}", p, None, lambda: _window_witness(tag, p))
        for tag in ("W0", "W1", "V0", "V1")
        for p in admissible_vanishing_primes(tag, 8)
    ]


# ---------------------------------------------------------------------------
# sweep drivers


def _run_over_primes(fn, primes, jobs: int):
    if jobs <= 1 or len(primes) <= 1:
        batches = [fn(p) for p in primes]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays for the import

        # the pool starts all its workers at once, so it gets no more than
        # there are primes
        with ProcessPoolExecutor(max_workers=min(jobs, len(primes))) as pool:
            batches = list(pool.map(fn, primes))
    return [r for batch in batches for r in batch]


def _sorted_rows(reports) -> list[VerificationReport]:
    return sorted(reports, key=lambda r: (r.check_id, r.p if r.p is not None else -1))


def _refuse_order(lane: str, cfg: SweepConfig) -> None:
    """Raise ValueError when a per-prime lane is given a series order."""
    if cfg.order is not None:
        raise ValueError(f"--order applies only to the identities lane, not {lane}")


def cmd_verify_theta_z(cfg: SweepConfig) -> list[VerificationReport]:
    _refuse_order("theta-z", cfg)
    primes = primes_in_range(cfg.p_min, cfg.p_max)
    worker = partial(_theta_z_prime, curve_cap=cfg.curve_cap)
    return _sorted_rows(_run_over_primes(worker, primes, cfg.jobs))


def cmd_verify_theta_hex(cfg: SweepConfig) -> list[VerificationReport]:
    _refuse_order("theta-hex", cfg)
    primes = [p for p in primes_in_range(cfg.p_min, cfg.p_max) if p % 12 in (5, 11)]
    worker = partial(_theta_hex_prime, hessian_cap=cfg.hessian_cap)
    return _sorted_rows(_run_over_primes(worker, primes, cfg.jobs))


def cmd_verify_background(cfg: SweepConfig) -> list[VerificationReport]:
    _refuse_order("background", cfg)
    primes = primes_in_range(cfg.p_min, cfg.p_max)
    worker = partial(_background_prime, ss_cap=cfg.supersingular_cap)
    return _sorted_rows(_run_over_primes(worker, primes, cfg.jobs))


def cmd_verify_identities(cfg: SweepConfig) -> list[VerificationReport]:
    reports = _series_identity_reports(cfg.order or 40)
    gp_primes = [p for p in primes_in_range(cfg.p_min, cfg.p_max) if p % 4 == 3 and p >= 7]
    reports += _run_over_primes(_gp_prime, gp_primes, cfg.jobs)
    hex_primes = [p for p in primes_in_range(cfg.p_min, cfg.p_max) if p % 12 in (5, 11)]
    reports += _run_over_primes(_residue_constant_prime, hex_primes, cfg.jobs)
    reports += _vanishing_reports()
    return _sorted_rows(reports)


_LANES = {
    "theta-z": cmd_verify_theta_z,
    "theta-hex": cmd_verify_theta_hex,
    "background": cmd_verify_background,
    "identities": cmd_verify_identities,
}


# ---------------------------------------------------------------------------
# worked examples


def _terms_str(terms) -> str:
    """Signed sum of (coefficient, monomial) pairs, in the given order.

    Zero terms are dropped, a unit coefficient is dropped before a monomial,
    and "" is the constant monomial.
    """
    out = []
    for c, mono in terms:
        if not c:
            continue
        mag = str(abs(c))
        term = mag if not mono else mono if abs(c) == 1 else f"{mag}*{mono}"
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out)


def _poly_str(coeffs, var: str = "j") -> str:
    """Human-readable polynomial, highest degree first."""
    mono = lambda i: "" if i == 0 else var if i == 1 else f"{var}^{i}"
    return _terms_str((coeffs[i], mono(i)) for i in range(len(coeffs) - 1, -1, -1)) or "0"


def _series_str(f: QSeries, upto: int) -> str:
    mono = lambda e: "" if e == 0 else "q" if e == 1 else f"q^{e}"
    return _terms_str((f.coefficient(e), mono(e)) for e in range(f.shift, upto + 1)) + " + ..."


def _show_k52() -> str:
    from .modforms import RatPoly, basis_coordinates, combination

    k, p = 52, 103
    order = default_order(k)
    coords = basis_coordinates(theta_Z(order), k)
    f = combination(coords, order)
    names = ["D^4*E4", "D^3*E4^4", "D^2*E4^7", "D*E4^10", "E4^13"]
    combo = "\n".join(f"  {c:>15} * {t}" for c, t in zip(coords.coords, names))
    P = RatPoly(coords.coords)
    roots = sorted(roots_brute(reduce_poly(P, p)))
    return "\n".join(
        [
            f"weight-{k} theta form (integer lattice), as a D = Delta, E4 combination:",
            combo,
            "",
            "q-expansion: " + _series_str(f, 6),
            "",
            "P(j) = " + _poly_str([P.coefficient(i) for i in range(P.degree + 1)]),
            "",
            f"roots of P mod {p}: {roots}",
        ]
    )


def _show_p107() -> str:
    from .fppoly import roots_fp2_brute
    from .modforms import RatPoly, basis_coordinates, combination

    p, k = 107, 108
    order = default_order(k)
    coords = basis_coordinates(theta_H(order), k)
    f = combination(coords, order)
    P = RatPoly(coords.coords)
    fp = reduce_poly(P, p)
    roots = roots_fp2_brute(fp)
    factors = sorted(f"(j + {-c0 % p})" for c0, c1 in roots if c1 == 0)
    # z = c0 + c1 w and its conjugate c0 - c1 w give j^2 - 2 c0 j + N(z); the
    # pair is named once, by the member with 0 < c1 < p/2
    d = least_nonresidue(p)
    for c1, c0 in sorted((c1, c0) for c0, c1 in roots if 0 < 2 * c1 < p):
        factors.append("(" + _poly_str([(c0 * c0 - d * c1 * c1) % p, -2 * c0 % p, 1]) + ")")
    return "\n".join(
        [
            f"weight-{k} theta form (hexagonal lattice):",
            "q-expansion: " + _series_str(f, 10),
            "",
            "P(j) = " + _poly_str([P.coefficient(i) for i in range(P.degree + 1)]),
            "",
            f"factorization mod {p}: " + " * ".join(factors),
        ]
    )


def _show_w0_4_mod103() -> str:
    W = truncated_poly("W0", 4)
    f = reduce_poly(W, 103)
    return "\n".join(
        [
            "degree-4 truncated hypergeometric polynomial (W0 family):",
            "W(j) = " + _poly_str([W.coefficient(i) for i in range(W.degree + 1)]),
            "",
            "mod 103: " + _poly_str(list(f.coeffs)),
        ]
    )


_EXAMPLES = {
    "k52": _show_k52,
    "p107": _show_p107,
    "w0-4-mod103": _show_w0_4_mod103,
}


def cmd_show(example_id: str) -> str:
    if example_id not in _EXAMPLES:
        raise ValueError(f"unknown example {example_id!r}; known: {sorted(_EXAMPLES)}")
    return _EXAMPLES[example_id]()


# ---------------------------------------------------------------------------
# report serialization


def _canonical_rows(reports):
    rows = []
    for r in _sorted_rows(reports):
        d = asdict(r)
        d["ms"] = 0
        rows.append(d)
    return rows


def render_json(reports) -> str:
    return json.dumps(_canonical_rows(reports), indent=2, sort_keys=True) + "\n"


def render_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "p", "k", "status", "witness", "ms"])
    for d in _canonical_rows(reports):
        writer.writerow(
            [
                d["check_id"],
                "" if d["p"] is None else d["p"],
                "" if d["k"] is None else d["k"],
                d["status"],
                d["witness"] or "",
                d["ms"],
            ]
        )
    return buf.getvalue()


def render_table(reports) -> str:
    lines = [f"{'check':<28} {'p':>5} {'k':>5} {'status':<8} {'ms':>6}  witness"]
    for r in reports:
        lines.append(
            f"{r.check_id:<28} {r.p if r.p is not None else '-':>5} "
            f"{r.k if r.k is not None else '-':>5} {r.status:<8} {r.ms:>6}  {r.witness or ''}"
        )
    counts = {s: sum(1 for r in reports if r.status == s) for s in _STATUSES}
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "table": render_table}


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-forms", description="verification sweeps for theta modular forms"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification lane over a prime range")
    v.add_argument("lane", choices=sorted(_LANES))
    v.add_argument("--p-min", type=int, default=SweepConfig.p_min)
    v.add_argument("--p-max", type=int, default=SweepConfig.p_max)
    v.add_argument("--order", type=int, default=None, help="series order of the identities lane")
    v.add_argument(
        "--curve-cap",
        type=int,
        default=SweepConfig.curve_cap,
        help="largest p whose Legendre 4-torsion curve set is swept (default %(default)s)",
    )
    v.add_argument(
        "--hessian-cap",
        type=int,
        default=SweepConfig.hessian_cap,
        help="largest p whose Hessian parametrization is checked (default %(default)s)",
    )
    v.add_argument(
        "--ss-cap",
        type=int,
        default=SweepConfig.supersingular_cap,
        help="largest p whose supersingular j-set is computed (default %(default)s)",
    )
    v.add_argument(
        "--jobs",
        type=int,
        default=SweepConfig.jobs,
        help="parallel worker processes (default %(default)s)",
    )
    v.add_argument("--format", choices=sorted(_RENDERERS), default="table")
    v.add_argument("--out", default=None, help="write the report to a file")

    s = sub.add_parser("show", help="print a worked example")
    s.add_argument("example_id", choices=sorted(_EXAMPLES))
    return parser


def _open_report(path: str):
    """(file, temporary path): a temporary file beside a regular or new target,
    with its mode, to replace it; a device or FIFO target itself, with None."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return open(path, "w"), None
    fd, tmp = tempfile.mkstemp(prefix=".", suffix=".tmp", dir=os.path.dirname(target))
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, os.stat(target).st_mode & 0o7777 if os.path.exists(target) else 0o666 & ~umask)
    return os.fdopen(fd, "w"), tmp


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.command == "show":
        print(cmd_show(args.example_id))
        return 0

    try:
        cfg = SweepConfig(
            p_min=args.p_min,
            p_max=args.p_max,
            order=args.order,
            jobs=args.jobs,
            fmt=args.format,
            curve_cap=args.curve_cap,
            hessian_cap=args.hessian_cap,
            supersingular_cap=args.ss_cap,
        )
        if args.lane != "identities":
            _refuse_order(args.lane, cfg)
        # opened before the sweep, so an unwritable path fails at once
        out, tmp = _open_report(args.out) if args.out else (contextlib.nullcontext(sys.stdout), None)
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    try:
        with out as fh:
            reports = _LANES[args.lane](cfg)
            fh.write(_RENDERERS[cfg.fmt](reports))
        if tmp:
            os.replace(tmp, os.path.realpath(args.out))
    except Exception as e:  # outside any check row: not a failed check
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        if tmp and os.path.exists(tmp):  # a crash leaves the old report as it was
            os.unlink(tmp)
    return 1 if any(r.status == "fail" for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
