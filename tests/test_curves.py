"""Tests for brute-force curve arithmetic and the j-value sets."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from theta_forms.curves import (
    HESSIAN_TORSION_SAMPLES,
    TorsionStructure,
    check_hessian_matches_hex,
    hessian_norm_condition_j_set,
    hex_zero_set,
    legendre_image_j_set,
    n_torsion_structure,
    point_count,
    supersingular_j_set,
    two_torsion_only_j_set,
    two_torsion_only_lambdas,
)
from theta_forms import curves
from theta_forms.exact_arith import cube_root_of_2, least_nonresidue, primes_in_range
from theta_forms.fppoly import reduce_poly, roots_brute, roots_fp2_brute
from theta_forms.modforms import default_order, pf_polynomial
from theta_forms.qseries import theta_H, theta_Z

from field_ref import elements, euler, fp, fp2

# The object-level references below take a curve as its cubic (c2, c1, c0),
# y^2 = x^3 + c2 x^2 + c1 x + c0, with El coefficients of one field, the
# way the oracles take it in residues.


def short_weierstrass(a, b):
    """y^2 = x^3 + a x + b."""
    return 0 * a, a, b


def hessian_curve(b):
    """The Weierstrass model of the Hessian curve X^3 + Y^3 + 1 = 3b XY
    (b^3 != 1): the object reference for curves._hessian_cubics."""
    b3m1 = b * b * b - 1
    return -27 * b * b, 216 * b * b3m1, -432 * b3m1 * b3m1


def curve_from_j(j):
    """A short Weierstrass curve with j-invariant j: y^2 = x^3 + 1 for j = 0,
    y^2 = x^3 + x for j = 1728 (the models supersingular_j_set counts points
    on), else a = 3j(1728 - j), b = 2j(1728 - j)^2."""
    if not j:
        return short_weierstrass(0 * j, 0 * j + 1)
    if j == 1728:
        return short_weierstrass(0 * j + 1, 0 * j)
    t = 1728 - j
    return short_weierstrass(3 * j * t, 2 * j * t * t)


def legendre_curve(lam):
    """y^2 = x(x-1)(x-lam) with lam not in {0, 1}, for the object-level
    references of the lambda sweeps."""
    if not lam or lam == 1:
        raise ValueError("lambda must avoid 0 and 1")
    return -(1 + lam), lam, 0 * lam


def _residues(curve):
    """The cubic as the oracles take it: ints over F_p, pairs over F_{p^2}."""
    return tuple(c.residue() for c in curve)


def _torsion(curve, n):
    return n_torsion_structure(_residues(curve), n, curve[0].p)


def legendre_4torsion_predicted(lam: int, p: int) -> TorsionStructure:
    """(2,2) iff -lam and lam-1 are both nonzero squares, else (2,4).

    Stated for p = 3 mod 4 only (that hypothesis makes the two cosets work
    out); other residue classes are rejected.
    """
    if p % 4 != 3:
        raise ValueError(f"p = {p} = 1 mod 4 is outside the classification hypothesis")
    lam = fp(p, lam)
    if not lam or lam == 1:
        raise ValueError("lambda must avoid 0 and 1")
    if (-lam).is_square() and (lam - 1).is_square():
        return TorsionStructure(2, 2)
    return TorsionStructure(2, 4)


def j_of_legendre(lam):
    """j = 256 (1 - lam + lam^2)^3 / (lam^2 (lam - 1)^2), on Fractions or
    field elements: the reference for the array j-map of the lambda sweeps."""
    if not lam or lam == 1:
        raise ValueError("lambda must avoid 0 and 1")
    num = 256 * (1 - lam + lam * lam) ** 3
    den = lam * lam * (lam - 1) * (lam - 1)
    return num / den


def hessian_j(b):
    """j-invariant of X^3 + Y^3 + 1 = 3b XY: 27 b^3 (b^3 + 8)^3 / (b^3 - 1)^3,
    on Fractions or field elements: the symbolic reference for the array
    j-map of hessian_norm_condition_j_set."""
    b3 = b * b * b
    den = (b3 - 1) ** 3
    if not den:
        raise ValueError("singular Hessian cubic: b^3 = 1")
    return 27 * b3 * (b3 + 8) ** 3 / den


def _j_from_cubic(c2, c1, c0):
    """j-invariant of y^2 = x^3 + c2 x^2 + c1 x + c0 via the b/c invariants.

    Independent of the closed forms under test: only the textbook formulas
    b2 = 4a2, b4 = 2a4, b6 = 4a6, c4 = b2^2 - 24 b4,
    c6 = -b2^3 + 36 b2 b4 - 216 b6, 1728 Delta = c4^3 - c6^2.
    """
    b2 = 4 * c2
    b4 = 2 * c1
    b6 = 4 * c0
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    num = c4 * c4 * c4
    return num / ((num - c6 * c6) / 1728)


def _add(P, Q, c2, c1):
    """Chord-and-tangent addition on y^2 = x^3 + c2 x^2 + c1 x + c0, with
    None for the point at infinity: the reference for n_torsion_structure."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if not (y1 + y2):
            return None
        m = (3 * x1 * x1 + 2 * c2 * x1 + c1) / (2 * y1)
    else:
        m = (y2 - y1) / (x2 - x1)
    x3 = m * m - c2 - x1 - x2
    y3 = m * (x1 - x3) - y1
    return (x3, y3)


def _points_naive(curve):
    """Every point of the curve, from all (x, y) pairs, plus None."""
    c2, c1, c0 = curve
    pts = [None]
    for x in elements(c0.p, c0.deg):
        fx = ((x + c2) * x + c1) * x + c0
        pts.extend((x, y) for y in elements(c0.p, c0.deg) if y * y == fx)
    return pts


def _n_torsion_structure_objects(curve, n):
    """Reference for the array sweep in n_torsion_structure: the same x-only
    doubling test, one field-element object at a time."""
    c2, c1, c0 = curve
    m2 = m3 = m4 = 1  # the point at infinity
    for x in elements(c0.p, c0.deg):
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


def _hex_zero_set_objects(p):
    """Reference for hex_zero_set: a^((p+1)/3) by one object power per a,
    the j-map on El objects, each value returned as a pair."""
    target = -fp2(p, cube_root_of_2(p))
    out = set()
    for a in elements(p, 2):
        if a ** ((p + 1) // 3) != target:
            continue
        den = a * (a + 4) ** 3
        if not den:
            continue
        j = 6912 * (2 * a - 1) ** 3 / den
        if j and j != 1728:
            out.add(j.residue())
    return out


def _admissible_hessian_params_objects(p):
    """Reference for _admissible_hessian_params, in the c0-major grid order."""
    return [b for b in elements(p, 2) if b.norm() == -2 and b**3 != 1]


def _admissible_pairs(p):
    """_admissible_hessian_params(p) as a list of (c0, c1) pairs."""
    return list(zip(*(c.tolist() for c in curves._admissible_hessian_params(p))))


# ---------------------------------------------------------------------------
# models and validation


def test_torsion_structure_pairs():
    t = TorsionStructure(2, 4)
    assert (t.d1, t.d2) == (2, 4)
    with pytest.raises(ValueError):
        TorsionStructure(4, 2)
    with pytest.raises(ValueError):
        TorsionStructure(0, 2)


def test_legendre_rejects_bad_lambda():
    with pytest.raises(ValueError):
        legendre_curve(fp(7, 0))
    with pytest.raises(ValueError):
        legendre_curve(fp(7, 1))


# ---------------------------------------------------------------------------
# point counting


def test_point_count_known_values():
    assert point_count((0, 1, 0), 7) == 8


def test_point_count_supersingular_1728():
    # y^2 = x^3 + x is supersingular for p = 3 mod 4, so it has p + 1 points
    for p in (7, 11, 19, 23, 103):
        assert point_count((0, 1, 0), p) == p + 1


def test_point_count_matches_naive_oracle():
    rng = random.Random(7)
    for p in (5, 13, 17):
        done = 0
        while done < 5:
            a, b = fp(p, rng.randrange(p)), fp(p, rng.randrange(p))
            if not (4 * a * a * a + 27 * b * b):
                continue
            E = short_weierstrass(a, b)
            assert point_count(_residues(E), p) == len(_points_naive(E))
            done += 1


def test_point_count_hasse_bound():
    rng = random.Random(11)
    primes = primes_in_range(5, 199)
    for _ in range(500):
        p = rng.choice(primes)
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        t = p + 1 - point_count((0, a, b), p)
        assert t * t <= 4 * p


def test_point_count_rejects():
    with pytest.raises(ValueError):
        point_count((0, 1, 1), 10007)
    # a pair coefficient is a curve over F_{p^2}
    with pytest.raises(ValueError):
        point_count(_residues(hessian_curve(fp2(7, 2))), 7)
    with pytest.raises(ValueError):
        point_count((0, 1, 0), 3)
    with pytest.raises(ValueError):
        point_count((0, 1, 0), 25)


def test_legendre_group_order_divisible_by_4():
    # full 2-torsion plus a rational point of order 4 or a (2,2) subgroup
    for p in (7, 11, 13, 17):
        for v in range(2, p):
            assert point_count((-1 - v, v, 0), p) % 4 == 0


# ---------------------------------------------------------------------------
# torsion structure


def test_n_torsion_known_values():
    # y^2 = x(x - 1)(x - lam) at lam = 3 and lam = 2
    assert n_torsion_structure((-4, 3, 0), 4, 7) == TorsionStructure(2, 2)
    assert n_torsion_structure((-3, 2, 0), 4, 7) == TorsionStructure(2, 4)


def test_legendre_two_torsion_always_full():
    for p in (7, 11, 13):
        for v in range(2, p):
            E = legendre_curve(fp(p, v))
            assert _torsion(E, 2) == TorsionStructure(2, 2)


def test_n_torsion_order_divides_group_order():
    rng = random.Random(3)
    for _ in range(20):
        p = rng.choice((7, 11, 13, 17, 19))
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        N = point_count((0, a, b), p)
        for n in (2, 3, 4):
            t = n_torsion_structure((0, a, b), n, p)
            assert N % (t.d1 * t.d2) == 0


def _torsion_reference_curves():
    for v in range(2, 11):
        yield legendre_curve(fp(11, v))
    rng = random.Random(23)
    for p in (5, 7, 13):
        done = 0
        while done < 6:
            a, b = fp(p, rng.randrange(p)), fp(p, rng.randrange(p))
            if not (4 * a * a * a + 27 * b * b):
                continue
            yield short_weierstrass(a, b)
            done += 1
    for b in elements(5, 2):
        if b**3 != 1:
            yield hessian_curve(b)


def test_n_torsion_matches_repeated_addition():
    # the x-only sweep against chord-and-tangent arithmetic on every point
    checked = 0
    for E in _torsion_reference_curves():
        c2, c1, _ = E
        pts = _points_naive(E)
        for n in (2, 3, 4):
            killed = []
            for P in pts:
                acc = None
                for _ in range(n):
                    acc = _add(acc, P, c2, c1)
                if acc is None:
                    killed.append(P)
            t = _torsion(E, n)
            assert t.d1 * t.d2 == len(killed), (E, n)
            for P in killed:
                for Q in killed:
                    assert _add(P, Q, c2, c1) in killed, (E, n, P, Q)
        checked += 1
    assert checked == 9 + 18 + 22  # F_25 holds three cube roots of unity


def _torsion_sweep_curves():
    for p in (7, 11, 13, 19, 23):
        for v in range(2, p):
            yield legendre_curve(fp(p, v))
    rng = random.Random(29)
    for p in (5, 7, 11, 13, 17, 37, 101):
        done = 0
        while done < 8:
            a, b = fp(p, rng.randrange(p)), fp(p, rng.randrange(p))
            if not (4 * a * a * a + 27 * b * b):
                continue
            yield short_weierstrass(a, b)
            done += 1
    for p in (5, 7, 11, 17, 23):
        for v in range(0, p * p, 7):
            b = fp2(p, v // p, v % p)
            if b**3 != 1:
                yield hessian_curve(b)
    # F_{191^2} spans two blocks of the array sweep
    yield hessian_curve(fp2(191, 3, 5))


def test_n_torsion_matches_object_sweep():
    # the int64 sweep against the same x-only test on field-element objects
    structures = set()
    degrees = set()
    for E in _torsion_sweep_curves():
        degrees.add(E[0].deg)
        for n in (2, 3, 4):
            t = _torsion(E, n)
            assert t == _n_torsion_structure_objects(E, n), (E, n)
            structures.add((n, t.d1, t.d2))
    assert degrees == {1, 2}
    # every shape the sweep can report occurs, so no branch goes untested
    for want in ((2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 1, 3), (3, 3, 3),
                 (4, 1, 2), (4, 2, 2), (4, 1, 4), (4, 2, 4), (4, 4, 4)):
        assert want in structures, want


def test_two_torsion_only_lambdas_match_object_sweep():
    for p in primes_in_range(7, 199):
        if p % 4 != 3:
            continue
        want = tuple(
            v
            for v in range(2, p)
            if _n_torsion_structure_objects(legendre_curve(fp(p, v)), 4) == TorsionStructure(2, 2)
        )
        assert two_torsion_only_lambdas(p) == want, p


def test_two_torsion_only_lambdas_match_prediction_to_1000():
    # the brute-force (2,2) classes are exactly the lambdas with -lam and
    # lam - 1 both nonzero squares, at every admissible prime of the CLI range
    for p in primes_in_range(7, 1000):
        if p % 4 != 3:
            continue
        want = tuple(
            v
            for v in range(2, p)
            if legendre_4torsion_predicted(v, p) == TorsionStructure(2, 2)
        )
        assert two_torsion_only_lambdas(p) == want, p


def test_curves_imports_no_module_under_test():
    # the oracles must not lean on the polynomial or series code they check
    import theta_forms.curves as mod

    tree = ast.parse(Path(mod.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "no imports found"
    for name in imported:
        assert not {"fppoly", "hyperpoly", "modforms", "qseries"} & set(name.split(".")), name


def test_n_torsion_rejects():
    with pytest.raises(ValueError):
        n_torsion_structure((-4, 3, 0), 5, 7)
    with pytest.raises(ValueError):
        n_torsion_structure((-4, 3, 0), 2, 1009)
    with pytest.raises(ValueError):
        n_torsion_structure(((0, 0), (3, 0), (1, 0)), 2, 1009)
    with pytest.raises(ValueError, match="mixes"):
        n_torsion_structure(((0, 0), 3, 1), 2, 7)
    for bad in (3, 25):
        with pytest.raises(ValueError):
            n_torsion_structure((-4, 3, 0), 2, bad)


def test_4torsion_prediction_matches_brute_force():
    for p in (7, 11, 19, 23, 31):
        full = []
        for v in range(2, p):
            predicted = legendre_4torsion_predicted(v, p)
            assert predicted == n_torsion_structure((-1 - v, v, 0), 4, p)
            if predicted == TorsionStructure(2, 2):
                full.append(v)
        assert two_torsion_only_lambdas(p) == tuple(full)
        assert two_torsion_only_lambdas(p) is two_torsion_only_lambdas(p)


def test_4torsion_prediction_rejects():
    with pytest.raises(ValueError):
        legendre_4torsion_predicted(2, 13)
    with pytest.raises(ValueError):
        legendre_4torsion_predicted(0, 7)


# ---------------------------------------------------------------------------
# j-invariants


def test_j_of_legendre_special_values():
    assert j_of_legendre(Fraction(-1)) == 1728
    assert j_of_legendre(Fraction(2)) == 1728
    assert j_of_legendre(Fraction(1, 2)) == 1728
    assert j_of_legendre(fp(7, -1)) == 1728 % 7
    with pytest.raises(ValueError):
        j_of_legendre(fp(7, 0))
    with pytest.raises(ValueError):
        j_of_legendre(Fraction(1))


def test_j_of_legendre_matches_invariant_oracle():
    rng = random.Random(5)
    done = 0
    while done < 50:
        p = rng.choice((7, 11, 13, 17, 19, 23))
        lam = fp(p, rng.randrange(2, p))
        assert j_of_legendre(lam) == _j_from_cubic(*legendre_curve(lam))
        done += 1


def test_j_of_legendre_six_fold_symmetry():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.choice((11, 13, 17, 19))
        lam = fp(p, rng.randrange(2, p))
        j = j_of_legendre(lam)
        assert j_of_legendre(1 / lam) == j
        assert j_of_legendre(1 - lam) == j


def test_curve_from_j_roundtrip():
    rng = random.Random(13)
    for p in (7, 11, 23):
        for j in elements(p, 1):
            assert _j_from_cubic(*curve_from_j(j)) == j
        for _ in range(10):
            j = fp2(p, rng.randrange(p), rng.randrange(p))
            assert _j_from_cubic(*curve_from_j(j)) == j


# ---------------------------------------------------------------------------
# the two-torsion-only curve set


def test_two_torsion_only_set_at_103():
    assert two_torsion_only_j_set(103) == {58, 89, 93, 97}


def test_two_torsion_only_set_matches_polynomial_roots():
    # the F_p roots of the reduced characteristic polynomial of the integer
    # theta form of weight (p+1)/2 are exactly the curve-set j-invariants
    for p in (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103):
        k = (p + 1) // 2
        P = pf_polynomial(theta_Z(default_order(k)), k)
        f = reduce_poly(P, p)
        assert roots_brute(f) == two_torsion_only_j_set(p)


def test_two_torsion_only_set_equals_legendre_image():
    for p in (7, 11, 19, 23, 31, 43, 47):
        assert legendre_image_j_set(p) == two_torsion_only_j_set(p)


def _legendre_j_set_objects(lams) -> set:
    """{ j_of_legendre(lam) : lam in lams } minus {0, 1728}, on El objects,
    each value returned as an int."""
    out = set()
    for lam in lams:
        j = j_of_legendre(lam)
        if j and j != 1728:
            out.add(j.residue())
    return out


def test_legendre_j_sets_match_object_j_map_to_1000():
    for p in primes_in_range(5, 1000):
        lams = [fp(p, v) for v in range(2, p)]
        image = [lam for lam in lams if (-lam).is_square() and (lam - 1).is_square()]
        assert legendre_image_j_set(p) == _legendre_j_set_objects(image), p
        if p % 4 == 3:
            want = _legendre_j_set_objects(fp(p, v) for v in two_torsion_only_lambdas(p))
            assert two_torsion_only_j_set(p) == want, p


def test_two_torsion_only_set_rejects():
    with pytest.raises(ValueError):
        two_torsion_only_j_set(13)
    with pytest.raises(ValueError):
        two_torsion_only_j_set(1019)


def test_small_prime_sets_are_empty():
    # at p = 7 both admissible lambdas land on j = 0, which is excluded
    assert two_torsion_only_j_set(7) == set()
    assert legendre_image_j_set(7) == set()


# ---------------------------------------------------------------------------
# supersingular j-invariants


def _fp2_trace_mod_p(p: int, d: int, a, b, x0, x1, chi) -> int:
    """(p^2 + 1 - #E(F_{p^2})) mod p for y^2 = x^3 + ax + b, vectorized."""
    s0 = (x0 * x0 + d * x1 * x1) % p
    s1 = (2 * x0 * x1) % p
    t0 = (s0 * x0 + d * s1 * x1) % p
    t1 = (s0 * x1 + s1 * x0) % p
    f0 = (t0 + a.c0 * x0 + d * a.c1 * x1 + b.c0) % p
    f1 = (t1 + a.c0 * x1 + a.c1 * x0 + b.c1) % p
    n = (f0 * f0 - d * f1 * f1) % p
    return int(-chi[n].sum()) % p


def _supersingular_j_set_per_j(p: int) -> set:
    """Reference oracle: one point count per candidate j.  F_p values by exact
    counts over F_p; each quadratic j (one per Frobenius pair) by its own
    O(p^2) character sum over F_{p^2}.  Values come back as pairs."""
    out: set = set()
    for j in elements(p, 1):
        if point_count(_residues(curve_from_j(j)), p) == p + 1:
            out.add((j.c0, 0))
    d = least_nonresidue(p)
    xs = np.arange(p * p, dtype=np.int64)
    x0, x1 = xs % p, xs // p
    chi = np.array([euler(v, p) for v in range(p)], dtype=np.int64)
    for c1 in range(1, (p - 1) // 2 + 1):
        for c0 in range(p):
            _, a, b = curve_from_j(fp2(p, c0, c1))
            if _fp2_trace_mod_p(p, d, a, b, x0, x1, chi) == 0:
                out.add((c0, c1))
                out.add((c0, p - c1))  # the Frobenius conjugate c0 - c1 w
    return out


def test_supersingular_known_small():
    assert supersingular_j_set(7) == {(6, 0)}
    assert supersingular_j_set(11) == {(0, 0), (1, 0)}


def test_supersingular_matches_per_j_reference():
    for p in primes_in_range(5, 61):
        assert supersingular_j_set(p) == _supersingular_j_set_per_j(p), p


def test_supersingular_mass_formula():
    # sum of 1/|Aut| over supersingular j equals (p - 1)/24
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 101, 211, 499, 997):
        total = Fraction(0)
        for z in supersingular_j_set(p):
            if z == (0, 0):
                total += Fraction(1, 6)
            elif z == (1728 % p, 0):
                total += Fraction(1, 4)
            else:
                total += Fraction(1, 2)
        assert total == Fraction(p - 1, 24)


def test_supersingular_count_formula():
    eps = {1: 0, 5: 1, 7: 1, 11: 2}
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 101, 211, 499, 997):
        assert len(supersingular_j_set(p)) == p // 12 + eps[p % 12]


def test_supersingular_set_frobenius_stable():
    for p in (23, 31, 37, 101, 211, 499, 997):
        s = supersingular_j_set(p)
        assert {(c0, -c1 % p) for c0, c1 in s} == s


def test_supersingular_contains_special_j():
    for p in (7, 11, 19, 23, 31):
        assert (1728 % p, 0) in supersingular_j_set(p)
    for p in (5, 11, 17, 23, 29):
        assert (0, 0) in supersingular_j_set(p)


def test_supersingular_rejects_non_integer_correlation(monkeypatch):
    irfft2 = np.fft.irfft2
    monkeypatch.setattr(np.fft, "irfft2", lambda *a, **kw: irfft2(*a, **kw) + 0.25)
    with pytest.raises(ArithmeticError):
        supersingular_j_set(13)


def test_supersingular_rejects_large_p():
    with pytest.raises(ValueError):
        supersingular_j_set(1009)


# ---------------------------------------------------------------------------
# the hexagonal zero set


def test_hex_zero_set_matches_polynomial_roots():
    # the F_{p^2} roots of the reduced characteristic polynomial of the
    # hexagonal theta form of weight p + 1 are exactly the swept values
    for p in (5, 11, 17, 23, 29, 41, 53, 107):
        k = p + 1
        P = pf_polynomial(theta_H(default_order(k)), k)
        f = reduce_poly(P, p)
        s = hex_zero_set(p)
        assert s == roots_fp2_brute(f)
        assert len(s) == f.degree
        assert isinstance(s, frozenset) and hex_zero_set(p) is s


def test_hex_zero_set_matches_object_sweep():
    # F_{191^2} spans two blocks of the array sweep
    for p in [*primes_in_range(5, 131), 191]:
        if p % 12 in (5, 11):
            assert hex_zero_set(p) == _hex_zero_set_objects(p), p


def test_hex_zero_set_norm_relation():
    # each member beta satisfies beta^p * beta = 1728^2
    for p in (11, 17, 23, 29, 41, 53):
        d = least_nonresidue(p)
        for c0, c1 in hex_zero_set(p):
            assert (c0 * c0 - d * c1 * c1) % p == 1728 * 1728 % p


def test_hex_zero_set_rejects():
    with pytest.raises(ValueError):
        hex_zero_set(7)
    with pytest.raises(ValueError):
        hex_zero_set(13)


# ---------------------------------------------------------------------------
# Hessian cubics


def test_hessian_model_substitution_oracle():
    # sending the flex (1 : -1 : 0) to infinity with its tangent line
    # X + Y + b Z = 0 as the line at infinity turns the Hessian cubic into
    # the claimed Weierstrass model; verify the substitution symbolically
    x, y, b = sp.symbols("x y b")
    hessian = x**3 + y**3 + 1 - 3 * b * x * y
    s = 1 / (x + y + b)
    d3 = 12 * (b**3 - 1)
    X = d3 * s
    Y = d3 * (6 * x * s - 3 * (1 - b * s))
    c2, c1, c0 = -27 * b**2, 216 * b * (b**3 - 1), -432 * (b**3 - 1) ** 2
    residue = Y**2 - (X**3 + c2 * X**2 + c1 * X + c0)
    num = sp.numer(sp.together(sp.expand(residue)))
    _, rem = sp.div(sp.expand(num), hessian, x)
    assert sp.simplify(rem) == 0
    # the residue model the 3-torsion samples run on is this one, at every b
    model = [[int(c) for c in sp.Poly(c, b).all_coeffs()] for c in (c2, c1, c0)]
    for p in (5, 11, 23):
        want = []
        for v in elements(p, 2):
            cubic = []
            for coeffs in model:
                acc = 0 * v
                for c in coeffs:
                    acc = acc * v + c
                cubic.append(acc.residue())
            want.append(tuple(cubic))
        assert curves._hessian_cubics(p, curves._fp2_grid(p)) == want, p


def test_hessian_model_singular_exactly_at_cube_roots_of_unity():
    # 1728 Delta = c4^3 - c6^2 of the residue model vanishes iff b^3 = 1
    for p in (5, 11, 17):
        grid = curves._fp2_grid(p)
        for v, cubic in zip(elements(p, 2), curves._hessian_cubics(p, grid)):
            c2, c1, c0 = (fp2(p, *c) for c in cubic)
            b2, b4, b6 = 4 * c2, 2 * c1, 4 * c0
            c4 = b2 * b2 - 24 * b4
            c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
            assert (not (c4 * c4 * c4 - c6 * c6)) == (v**3 == 1), (p, v)


def test_hessian_j_symbolic_closed_form():
    b = sp.symbols("b")
    c2, c1, c0 = -27 * b**2, 216 * b * (b**3 - 1), -432 * (b**3 - 1) ** 2
    j = _j_from_cubic(c2, c1, c0)
    closed = 27 * b**3 * (b**3 + 8) ** 3 / (b**3 - 1) ** 3
    assert sp.simplify(j - closed) == 0


def test_hessian_j_fraction_values():
    assert hessian_j(Fraction(2)) == Fraction(884736, 343)
    assert hessian_j(Fraction(0)) == 0
    assert hessian_j(Fraction(-2)) == 0
    with pytest.raises(ValueError):
        hessian_j(Fraction(1))


def test_hessian_j_matches_model():
    rng = random.Random(17)
    done = 0
    while done < 30:
        p = rng.choice((5, 7, 11, 13, 17))
        v = fp2(p, rng.randrange(p), rng.randrange(p))
        if v**3 == 1:
            continue
        (cubic,) = curves._hessian_cubics(p, (np.array([v.c0]), np.array([v.c1])))
        assert hessian_j(v) == _j_from_cubic(*(fp2(p, *c) for c in cubic))
        done += 1


def test_hessian_j_set_matches_object_j_map_to_400():
    # the array j-map against hessian_j on El objects, over the same b
    for p in primes_in_range(5, 400):
        if p % 12 not in (5, 11):
            continue
        want = set()
        for c0, c1 in _admissible_pairs(p):
            j = hessian_j(fp2(p, c0, c1))
            if j and j != 1728:
                want.add(j.residue())
        assert hessian_norm_condition_j_set(p) == want, p


def test_hessian_norm_condition_curves_have_full_3_torsion():
    checked = 0
    for v in elements(11, 2):
        if checked >= 4:
            break
        if v.norm() != -2 or v**3 == 1:
            continue
        assert _torsion(hessian_curve(v), 3) == TorsionStructure(3, 3)
        checked += 1
    assert checked == 4


def test_check_hessian_matches_hex():
    for p in (5, 11, 17, 23, 29, 41):
        assert check_hessian_matches_hex(p)


def test_hessian_check_sweeps_fp2_once_per_side(monkeypatch):
    # one sweep of F_{p^2} lists the admissible Hessian parameters for both the
    # j-set and the 3-torsion samples; one more builds the hexagonal zero set
    p = 47
    curves._admissible_hessian_params.cache_clear()
    hex_zero_set.cache_clear()
    sampled = []

    def torsion(cubic, n, q):
        assert (n, q) == (3, p)
        sampled.append(cubic)
        return TorsionStructure(3, 3)

    monkeypatch.setattr(curves, "n_torsion_structure", torsion)
    assert check_hessian_matches_hex(p)
    assert check_hessian_matches_hex(p)
    assert curves._admissible_hessian_params.cache_info().misses == 1
    assert hex_zero_set.cache_info().misses == 1
    admissible = _admissible_hessian_params_objects(p)
    assert _admissible_pairs(p) == [b.residue() for b in admissible]
    models = [_residues(hessian_curve(b)) for b in admissible[:HESSIAN_TORSION_SAMPLES]]
    assert sampled == 2 * models


def test_admissible_hessian_params_match_object_sweep():
    # same values in the same c0-major grid order, so the sampled b hold
    for p in primes_in_range(5, 131):
        if p % 12 in (5, 11):
            got = _admissible_pairs(p)
            assert got == [b.residue() for b in _admissible_hessian_params_objects(p)], p
            assert len(got) == p + 1  # every norm -2 element: N(b^3) = -8 != 1


def test_check_hessian_rejects():
    with pytest.raises(ValueError):
        check_hessian_matches_hex(7)
    with pytest.raises(ValueError):
        check_hessian_matches_hex(13)
    with pytest.raises(ValueError):
        check_hessian_matches_hex(1013)


def test_hessian_norm_condition_set_at_5_hits_excluded_values_only():
    # the raw parametrization image at p = 5 is {1728}; after excluding the
    # two special invariants both sides are empty and still agree
    assert hessian_norm_condition_j_set(5) == set()
    assert hex_zero_set(5) == set()
