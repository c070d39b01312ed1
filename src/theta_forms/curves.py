"""Brute-force elliptic curve arithmetic over F_p and F_{p^2}.

Everything here is desk-scale and exhaustive on purpose: point counts by
character sums, torsion by one sweep over x with the x-only doubling
formula, and the j-value sets by sweeping every parameter value in the
field (for the supersingular set, every F_{p^2} character sum at once as
one correlation).  The sets serve as independent oracles for the
finite-field sweeps, so they must come from direct arithmetic rather than
from the polynomial identities they verify.

The sweeps run on int64 arrays of residues mod p, through one private
layer: per-p tables of the quadratic character and of inverses, the grid of
F_{p^2} in c0-major order (c0 + c1 w at flat index c0 p + c1), and F_p /
F_{p^2} arithmetic on coefficient arrays (``_ArrayField``).  The Legendre
4-torsion sweep classifies every lambda at once on one lambda-by-x grid.  The four j-maps
(Legendre, hexagonal, supersingular, Hessian) are array expressions over the
swept parameters, divided through ``recip``, so every set comes back as plain
residues: ints for F_p values and pairs (c0, c1) for c0 + c1 w in F_{p^2}.

A curve is its cubic: the coefficients (c2, c1, c0) of the model
y^2 = x^3 + c2 x^2 + c1 x + c0, given in the same residues (the convention
of ``FpPoly.evaluate``).  The Hessian cubic is brought to that shape through
its rational inflection point.  No field-element object is built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact_arith import cube_root_of_2, is_prime, least_nonresidue, legendre_symbols


@dataclass(frozen=True)
class TorsionStructure:
    """The pair (d1, d2) with d1 | d2 describing Z/d1 x Z/d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 % self.d1 != 0:
            raise ValueError(f"({self.d1}, {self.d2}) is not a valid structure pair")


# ---------------------------------------------------------------------------
# residues mod p as int64 arrays
#
# Every oracle sweep below runs on arrays of residues.  Sums and multiples
# stay within a few multiples of p of zero until a product, norm or inverse
# reduces them (the j-maps scale by constants reduced mod p first), so for
# p <= 10^3 (which _ArrayField enforces) every product is below 2^30, far
# from the int64 limit.


@lru_cache(maxsize=None)
def _chi(p: int) -> np.ndarray:
    """chi[v] = (v / p), the quadratic character of F_p, with chi[0] = 0."""
    chi = np.array(legendre_symbols(p), dtype=np.int64)
    chi.flags.writeable = False
    return chi


@lru_cache(maxsize=None)
def _inv(p: int) -> np.ndarray:
    """inv[v] = v^-1 mod p, with inv[0] = 0."""
    inv = np.zeros(p, dtype=np.int64)
    inv[1:] = [pow(v, -1, p) for v in range(1, p)]
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=1)  # shared by the sweeps of one prime; p^2 pairs, so not kept
def _fp2_grid(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(c0, c1) of every c0 + c1 w in F_{p^2}, c0-major: flat index c0 p + c1."""
    c = np.arange(p, dtype=np.int64)
    grid = np.repeat(c, p), np.tile(c, p)
    for part in grid:
        part.flags.writeable = False
    return grid


_BLOCK = 1 << 15  # values per sweep step, so each step's temporaries stay in cache


def _blocks(x, size: int = _BLOCK):
    """Consecutive slices of the coefficient arrays ``x``, ``size`` values each."""
    for lo in range(0, len(x[0]), size):
        yield tuple(c[lo : lo + size] for c in x)


class _ArrayField:
    """F_p (d None) or F_{p^2} = F_p[w]/(w^2 - d) on int64 arrays mod p.

    An element is a tuple of coefficient arrays, (c0,) or (c0, c1); ints
    broadcast as constants.  ``add`` and ``scale`` skip the reduction, so
    their coefficients are residues within a few multiples of p of zero;
    ``mul``, ``norm`` and ``recip`` reduce into [0, p).  The norm is the
    element itself over F_p and c0^2 - d c1^2 over F_{p^2}: it vanishes only
    at 0, and z is a nonzero square iff chi[N(z)] = 1.
    """

    def __init__(self, p: int, d: int | None = None):
        if p > 10**3:
            raise ValueError(f"p = {p} beyond the brute-force bound 10^3")
        self.p, self.d = p, d
        self.chi, self.inv = _chi(p), _inv(p)

    @staticmethod
    def add(*terms):
        return tuple(sum(cs) for cs in zip(*terms))

    @staticmethod
    def scale(k: int, a):
        return tuple(k * c for c in a)

    def mul(self, a, b):
        p = self.p
        if self.d is None:
            return (a[0] * b[0] % p,)
        (a0, a1), (b0, b1) = a, b
        return (a0 * b0 + self.d * a1 * b1) % p, (a0 * b1 + a1 * b0) % p

    def pow(self, a, e: int):
        r = (1,) if self.d is None else (1, 0)
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return r

    def norm(self, a):
        if self.d is None:
            return a[0] % self.p
        a0, a1 = a
        return (a0 * a0 - self.d * a1 * a1) % self.p

    def recip(self, a):
        """1/a, as conj(a) / N(a); 0 maps to 0."""
        ninv = self.inv[self.norm(a)]
        if self.d is None:
            return (ninv,)
        return a[0] * ninv % self.p, -a[1] * ninv % self.p


# ---------------------------------------------------------------------------
# point counting and torsion


def _check_characteristic(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError(f"field characteristic must be a prime >= 5, got {p}")


def point_count(cubic, p: int) -> int:
    """#E(F_p) = p + 1 + sum_x chi(f(x)) for E: y^2 = f(x) with
    f = x^3 + c2 x^2 + c1 x + c0 and ``cubic`` = (c2, c1, c0) as ints, by
    exhaustive x."""
    if any(isinstance(c, tuple) for c in cubic):
        raise ValueError("point_count runs over F_p only")
    _check_characteristic(p)
    if p > 10**4:
        raise ValueError(f"p = {p} beyond the exhaustive bound 10^4")
    c2, c1, c0 = (int(c) % p for c in cubic)
    x = np.arange(p, dtype=np.int64)
    fx = (((x + c2) * x + c1) % p * x + c0) % p
    return p + 1 + int(_chi(p)[fx].sum())


def n_torsion_structure(cubic, n: int, p: int) -> TorsionStructure:
    """Structure of E[n] for n in {2, 3, 4} and E: y^2 = x^3 + c2 x^2 + c1 x + c0,
    by one sweep over x.

    ``cubic`` = (c2, c1, c0) as ints gives E over F_p, and as pairs (c0, c1)
    gives E over F_{p^2} = F_p[w]/(w^2 - d), d the least non-residue mod p.
    A root of the cubic f is a point of order 2.  A nonzero square f(x)
    gives the two points (x, +-y), both with x([2]P) = f'(x)^2 / (4 f(x)) -
    c2 - 2x; such a point has [3]P = O iff x([2]P) = x and [4]P = O iff
    [2]P has order 2, i.e. f(x([2]P)) = 0.  The x of the field are tested
    as int64 arrays (F_p) or pairs of arrays (F_{p^2}), a block at a time.
    """
    if n not in (2, 3, 4):
        raise ValueError("n must be 2, 3, or 4")
    _check_characteristic(p)
    pairs = [isinstance(c, tuple) for c in cubic]
    if all(pairs):
        A, x = _ArrayField(p, least_nonresidue(p)), _fp2_grid(p)
        coeffs = [(int(c0) % p, int(c1) % p) for c0, c1 in cubic]
    elif not any(pairs):
        A, x = _ArrayField(p), (np.arange(p, dtype=np.int64),)
        coeffs = [(int(c) % p,) for c in cubic]
    else:
        raise ValueError("cubic mixes F_p and F_{p^2} coefficients")
    a2 = an = 0
    for block in _blocks(x):
        b2, bn = _affine_torsion_counts(A, block, *coeffs, n)
        a2, an = a2 + int(b2), an + int(bn)
    return _torsion_structure(1 + a2, 1 + an, n)


def _affine_torsion_counts(A: _ArrayField, x, c2, c1, c0, n: int):
    """The numbers of affine points of E[2] and of E[n] whose x-coordinate is
    in ``x``, summed over its last axis; the coefficients broadcast against x."""

    def cubic(t):
        return A.add(A.mul(A.add(A.mul(A.add(t, c2), t), c1), t), c0)

    f = cubic(x)
    nf = A.norm(f)
    a2 = np.count_nonzero(nf == 0, axis=-1)
    if n == 2:
        return a2, a2
    sq = A.chi[nf] == 1
    d = A.add(A.mul(A.add(A.scale(3, x), A.scale(2, c2)), x), c1)
    x2 = A.add(A.mul(A.mul(d, d), A.recip(A.scale(4, f))), A.scale(-1, c2), A.scale(-2, x))
    if n == 3:
        fixed = A.norm(A.add(x2, A.scale(-1, x))) == 0
        return a2, 2 * np.count_nonzero(sq & fixed, axis=-1)
    # x2 = x would give f(x2) = f(x) != 0, so order-3 points never count here
    return a2, a2 + 2 * np.count_nonzero(sq & (A.norm(cubic(x2)) == 0), axis=-1)


def _torsion_structure(m2: int, mn: int, n: int) -> TorsionStructure:
    """E[n] from its order mn and the order m2 of E[2]."""
    if n == 4:
        if mn == m2:
            d2 = 2 if m2 > 1 else 1
            return TorsionStructure(m2 // d2, d2)
        return TorsionStructure(mn // 4, 4)
    d2 = n if mn > 1 else 1
    return TorsionStructure(mn // d2, d2)


# ---------------------------------------------------------------------------
# j-value sets


def _j_set(A: _ArrayField, num, den) -> set:
    """{ num / den : den != 0 } minus {0, 1728}, over the arrays num and den:
    ints over F_p, pairs (c0, c1) over F_{p^2}."""
    j = A.mul(num, A.recip(den))
    special = (j[0] == 0) | (j[0] == 1728 % A.p)
    if A.d is not None:
        special &= j[1] == 0
    keep = (A.norm(den) != 0) & ~special
    values = [c[keep].tolist() for c in j]
    return set(values[0]) if A.d is None else set(zip(*values))


@lru_cache(maxsize=None)
def two_torsion_only_lambdas(p: int) -> tuple[int, ...]:
    """Legendre parameters lam in F_p minus {0, 1}, in increasing order, whose
    curve has no rational point of order 4, by brute-force 4-torsion.

    Every Legendre curve has full rational 2-torsion, so these are the curves
    with E[4](F_p) = Z/2 x Z/2.  One x-only doubling sweep over the lam-by-x
    grid classifies them all; swept once per p and cached.
    """
    A = _ArrayField(p)
    x = (np.arange(p, dtype=np.int64)[None, :],)
    out = []
    for (lams,) in _blocks((np.arange(2, p, dtype=np.int64),), max(1, _BLOCK // p)):
        lam = lams[:, None]
        a2, a4 = _affine_torsion_counts(A, x, (-1 - lam,), (lam,), (0,), 4)
        out.extend(
            v
            for v, b2, b4 in zip(lams.tolist(), a2.tolist(), a4.tolist())
            if _torsion_structure(1 + b2, 1 + b4, 4) == TorsionStructure(2, 2)
        )
    return tuple(out)


def two_torsion_only_j_set(p: int) -> set[int]:
    """j-invariants (excluding 0, 1728) of curves over F_p carrying full
    rational 2-torsion but no rational point of order 4.

    Every curve with full 2-torsion has a Legendre model, so sweeping lambda
    and classifying 4-torsion by brute force covers all classes; values are
    deduplicated by j, which classifies up to twist.
    """
    if p % 4 != 3:
        raise ValueError(f"p = {p} = 1 mod 4 never yields such curves (rejected)")
    if p > 10**3:
        raise ValueError(f"p = {p} beyond the brute-force bound 10^3")
    return _legendre_j_set(p, np.array(two_torsion_only_lambdas(p), dtype=np.int64))


def legendre_image_j_set(p: int) -> set[int]:
    """{ j(lam) : -lam and lam - 1 both nonzero squares } minus {0, 1728}."""
    chi = _chi(p)
    lams = np.arange(2, p, dtype=np.int64)
    return _legendre_j_set(p, lams[(chi[-lams % p] == 1) & (chi[lams - 1] == 1)])


def _legendre_j_set(p: int, lams: np.ndarray) -> set[int]:
    """{ j(lam) : lam in lams } minus {0, 1728}, for residues lam not in {0, 1},
    with j = 256 (1 - lam + lam^2)^3 / (lam^2 (lam - 1)^2)."""
    A = _ArrayField(p)
    lam = (lams,)
    lam1 = A.add(lam, (-1,))
    m = A.add(A.mul(lam, lam1), (1,))
    num = A.scale(256 % p, A.pow(m, 3))
    return _j_set(A, num, A.mul(A.mul(lam, lam), A.mul(lam1, lam1)))


def supersingular_j_set(p: int) -> set[tuple[int, int]]:
    """All supersingular j-invariants over F_p-bar, as pairs (c0, c1) for
    c0 + c1 w in F_{p^2}.

    j = 0 and j = 1728 go through exact point counts over F_p (trace 0
    exactly).  Every other j is the invariant 6912a / (4a + 27) of exactly
    one curve E_a: y^2 = x^3 + a x + a, a in F_{p^2} minus {0, -27/4}, and
    E_a is supersingular iff its trace -S(a) over F_{p^2} is 0 mod p, where
    S(a) = sum_x X(x^3 + a x + a) and X(z) = chi_p(N(z)) is the quadratic
    character of F_{p^2}.  Since x^3 + a x + a = (x + 1)(r(x) + a) with
    r(x) = x^3 / (x + 1), and x = -1 contributes X(-1) = 1,

        S(a) = 1 + sum_z h(z) X(z + a),   h(z) = sum_{x != -1, r(x) = z} X(x + 1),

    a cross-correlation over the additive group (Z/p)^2 of F_{p^2}, computed
    for every a at once with one 2-D real FFT on p x p arrays.  The j-map
    6912a / (4a + 27) then runs over the array of trace-0 parameters; it
    never gives 0 or 1728, since 6912a = 1728 (4a + 27) has no solution.
    """
    if p > 10**3:
        raise ValueError(f"p = {p} beyond the sweep bound 10^3")
    # y^2 = x^3 + 1 has j = 0 and y^2 = x^3 + x has j = 1728
    special = {0: (0, 0, 1), 1728: (0, 1, 0)}
    out = {(j % p, 0) for j, cubic in special.items() if point_count(cubic, p) == p + 1}
    A = _ArrayField(p, least_nonresidue(p))
    # flat index c0 p + c1 of z = c0 + c1 w, the grid order, so reshape(p, p)
    # indexes [c0, c1]
    X = np.empty(p * p, dtype=np.int64)
    h = np.zeros(p * p, dtype=np.int64)
    lo = 0
    for x in _blocks(_fp2_grid(p)):
        hi = lo + len(x[0])
        X[lo:hi] = A.chi[A.norm(x)]
        u = A.add(x, (1, 0))
        nu = A.norm(u)
        r0, r1 = A.mul(A.mul(A.mul(x, x), x), A.recip(u))  # x = -1 has weight chi[0] = 0
        np.add.at(h, r0 * p + r1, A.chi[nu])
        lo = hi
    X, h = X.reshape(p, p), h.reshape(p, p)
    corr = np.fft.irfft2(np.conj(np.fft.rfft2(h)) * np.fft.rfft2(X), s=(p, p))
    rounded = np.rint(corr)
    err = float(np.abs(corr - rounded).max())
    if err >= 1e-3:
        raise ArithmeticError(f"character-sum correlation off an integer by {err} at p = {p}")
    trace0 = (rounded.astype(np.int64) + 1) % p == 0
    trace0[0, 0] = trace0[-27 * pow(4, -1, p) % p, 0] = False  # singular E_a
    a = np.nonzero(trace0)
    return out | _j_set(A, A.scale(6912 % p, a), A.add(A.scale(4, a), (27, 0)))


@lru_cache(maxsize=None)
def hex_zero_set(p: int) -> frozenset[tuple[int, int]]:
    """{ 6912 (2a-1)^3 / (a (a+4)^3) : a in F_{p^2}, a^((p+1)/3) = -2^(1/3) }
    minus {0, 1728}, as pairs (c0, c1), by exhaustive sweep, once per p and
    cached."""
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} not in the 5, 11 mod 12 classes")
    A = _ArrayField(p, least_nonresidue(p))
    target = -cube_root_of_2(p) % p
    hits = []
    for a in _blocks(_fp2_grid(p)):
        t0, t1 = A.pow(a, (p + 1) // 3)
        keep = (t0 == target) & (t1 == 0)
        hits.append(tuple(c[keep] for c in a))
    a = tuple(np.concatenate(c) for c in zip(*hits))
    num = A.scale(6912 % p, A.pow(A.add(A.scale(2, a), (-1, 0)), 3))
    return frozenset(_j_set(A, num, A.mul(a, A.pow(A.add(a, (4, 0)), 3))))


# ---------------------------------------------------------------------------
# Hessian cubics


HESSIAN_TORSION_SAMPLES = 3  # admissible curves whose 3-torsion it checks


def _hessian_cubics(p: int, b) -> list[tuple[tuple[int, int], ...]]:
    """The cubic (c2, c1, c0) of the Weierstrass model of each Hessian curve
    E_b: X^3 + Y^3 + 1 = 3b XY, for b over the (c0, c1) arrays ``b``, with
    every coefficient a pair reduced into [0, p):

        y^2 = x^3 - 27b^2 x^2 + 216b(b^3 - 1) x - 432(b^3 - 1)^2.

    The inflection point (1 : -1 : 0) of E_b is rational, so sending it to
    infinity and its tangent line X + Y + bZ = 0 to the line at infinity,
    then completing the square, gives this model over any field of
    characteristic at least 5.  The test suite checks the substitution
    symbolically, so the model is isomorphic to E_b over the base field (not
    merely a twist); it is singular exactly when b^3 = 1.
    """
    A = _ArrayField(p, least_nonresidue(p))
    b2 = A.mul(b, b)
    b3m1 = A.add(A.mul(b2, b), (-1, 0))
    model = A.scale(-27, b2), A.scale(216, A.mul(b, b3m1)), A.scale(-432, A.mul(b3m1, b3m1))
    coeffs = [list(zip((c0 % p).tolist(), (c1 % p).tolist())) for c0, c1 in model]
    return list(zip(*coeffs))


@lru_cache(maxsize=None)
def _admissible_hessian_params(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (c0, c1) arrays of the b = c0 + c1 w in F_{p^2} with b^(p+1) = -2
    and b^3 != 1, in the c0-major grid order, by one sweep per p, cached.

    b^(p+1) is the F_{p^2}/F_p norm, so the sweep is a plain norm check;
    b^3 != 1 keeps E_b nonsingular.
    """
    A = _ArrayField(p, least_nonresidue(p))
    b = _fp2_grid(p)
    b30, b31 = A.pow(b, 3)
    keep = (A.norm(b) == -2 % p) & ((b30 != 1) | (b31 != 0))
    params = b[0][keep], b[1][keep]
    for part in params:
        part.flags.writeable = False
    return params


def hessian_norm_condition_j_set(p: int) -> set[tuple[int, int]]:
    """{ j(E_b) : b in F_{p^2}, b^(p+1) = -2, E_b nonsingular } minus {0, 1728},
    as pairs (c0, c1), with j(E_b) = 27 b^3 (b^3 + 8)^3 / (b^3 - 1)^3.

    The closed form comes from the flex reduction in _hessian_cubics; the
    test suite re-derives it symbolically and checks this array map against
    it, so the formula here is never trusted on its own.
    """
    A = _ArrayField(p, least_nonresidue(p))
    b3 = A.pow(_admissible_hessian_params(p), 3)
    num = A.scale(27 % p, A.mul(b3, A.pow(A.add(b3, (8, 0)), 3)))
    return _j_set(A, num, A.pow(A.add(b3, (-1, 0)), 3))


def check_hessian_matches_hex(p: int) -> bool:
    """Whether the Hessian norm-condition j-set equals hex_zero_set(p), and the
    first HESSIAN_TORSION_SAMPLES admissible Hessian curves have full
    3-torsion over F_{p^2}.

    Both sides exclude {0, 1728}; the parametrizations can hit those values
    (p = 5 does) but the zero set never contains them.
    """
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} not in the 5, 11 mod 12 classes")
    if p > 10**3:
        raise ValueError(f"p = {p} beyond the brute-force bound 10^3")
    if hessian_norm_condition_j_set(p) != hex_zero_set(p):
        return False
    samples = tuple(c[:HESSIAN_TORSION_SAMPLES] for c in _admissible_hessian_params(p))
    return all(
        n_torsion_structure(cubic, 3, p) == TorsionStructure(3, 3)
        for cubic in _hessian_cubics(p, samples)
    )
