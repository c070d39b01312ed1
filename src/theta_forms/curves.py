"""Elliptic curve oracles over F_p and F_{p^2}, in exact residue arithmetic.

Point counts come from character sums, torsion from one sweep over x with
the x-only doubling formula, the Legendre curves without a point of order 4
from their point counts mod 8, the supersingular j-set from a walk over the
2-isogeny graph, and the other j-sets from sweeping every parameter value
in the field.  These serve as oracles for the finite-field sweeps, so they
come from curve arithmetic, not from the polynomial identities they verify.

The sweeps run on int64 arrays of residues mod p, through one private
layer: per-p tables of the quadratic character and of inverses, the grid of
F_{p^2} in c0-major order (c0 + c1 w at flat index c0 p + c1), and F_p /
F_{p^2} arithmetic on coefficient arrays or single pairs (``_ArrayField``).
Every set comes back as plain residues: ints for F_p values and pairs
(c0, c1) for c0 + c1 w in F_{p^2}.

A curve is its cubic: the coefficients (c2, c1, c0) of the model
y^2 = x^3 + c2 x^2 + c1 x + c0, given in the same residues (the convention
of ``FpPoly.evaluate``).  The Hessian cubic is brought to that shape through
its rational inflection point.  No field-element object is built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

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
    """inv[v] = v^(p-2) = v^-1 mod p, with inv[0] = 0, by square-and-multiply on the array."""
    v, inv = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)
    for bit in bin(p - 2)[2:]:
        inv = inv * inv % p
        if bit == "1":
            inv = inv * v % p
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


def _blocks(x):
    """Consecutive slices of the coefficient arrays ``x``, _BLOCK values each."""
    for lo in range(0, len(x[0]), _BLOCK):
        yield tuple(c[lo : lo + _BLOCK] for c in x)


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
        A, grid = _ArrayField(p, least_nonresidue(p)), _fp2_grid(p)
        c2, c1, c0 = [(int(c0) % p, int(c1) % p) for c0, c1 in cubic]
    elif not any(pairs):
        A, grid = _ArrayField(p), (np.arange(p, dtype=np.int64),)
        c2, c1, c0 = [(int(c) % p,) for c in cubic]
    else:
        raise ValueError("cubic mixes F_p and F_{p^2} coefficients")

    def f_of(t):
        return A.add(A.mul(A.add(A.mul(A.add(t, c2), t), c1), t), c0)

    a2 = an = 0  # affine points of E[2], and of E[n] off the x-axis
    for x in _blocks(grid):
        f = f_of(x)
        nf = A.norm(f)
        a2 += int(np.count_nonzero(nf == 0))
        if n == 2:
            continue
        sq = A.chi[nf] == 1
        d = A.add(A.mul(A.add(A.scale(3, x), A.scale(2, c2)), x), c1)
        x2 = A.add(A.mul(A.mul(d, d), A.recip(A.scale(4, f))), A.scale(-1, c2), A.scale(-2, x))
        if n == 3:
            hit = A.norm(A.add(x2, A.scale(-1, x))) == 0
        else:  # x2 = x would give f(x2) = f(x) != 0, so order-3 points never count here
            hit = A.norm(f_of(x2)) == 0
        an += 2 * int(np.count_nonzero(sq & hit))
    return _torsion_structure(1 + a2, 1 + an + (0 if n == 3 else a2), n)


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
    curve has no rational point of order 4, by exhaustive point counts.

    Every Legendre curve E: y^2 = x (x - 1) (x - lam) has full rational
    2-torsion, so 4 | #E(F_p), and E(F_p) has no point of order 4 exactly
    when its 2-part is Z/2 x Z/2, i.e. #E = 4 mod 8.  #E = p + 1 + S(lam) with
    S(lam) = sum_x chi(x (x - 1)) chi(x - lam), a correlation of the character
    table with itself: one exact int64 ``np.correlate`` gives S for every lam
    at once, at shift p - lam.  Swept once per p and cached.
    """
    chi = _ArrayField(p).chi
    x = np.arange(p, dtype=np.int64)
    s = np.correlate(np.concatenate((chi, chi)), chi[x * (x - 1) % p], "valid")
    lams = x[2:]
    return tuple(lams[(p + 1 + s[p - lams]) % 8 == 4].tolist())


def two_torsion_only_j_set(p: int) -> set[int]:
    """j-invariants (excluding 0, 1728) of curves over F_p carrying full
    rational 2-torsion but no rational point of order 4.

    Every curve with full 2-torsion has a Legendre model, so sweeping lambda
    and classifying 4-torsion by brute force covers all classes; values are
    deduplicated by j, which classifies up to twist.
    """
    if p % 4 != 3:
        raise ValueError(f"p = {p} = 1 mod 4 never yields such curves (rejected)")
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


# Phi_2(X, Y) = sum of _PHI2[k][i] X^i Y^k, the modular polynomial of level 2
_PHI2 = (
    (-157464000000000, 8748000000, -162000, 1),
    (8748000000, 40773375, 1488, 0),
    (-162000, 1488, -1, 0),
    (1, 0, 0, 0),
)


def supersingular_j_set(p: int) -> set[tuple[int, int]]:
    """All supersingular j-invariants over F_p-bar, as pairs (c0, c1) for
    c0 + c1 w in F_{p^2}, by a walk over the 2-isogeny graph, which is
    connected (Mestre 1986; Pizer 1990): the neighbours of j are the roots of
    the cubic Phi_2(j, Y) = Y^3 + c2 Y^2 + c1 Y + c0.

    The walk starts at j_0 = 1728 for p = 3 mod 4, 0 for p = 2 mod 3, and
    otherwise the least j (not 0 or 1728, where the model is y^2 = x^3) whose
    y^2 = x^3 + 3j(1728 - j) x + 2j(1728 - j)^2 has p + 1 points.  Its cubic
    lies in F_p[Y] with roots in F_{p^2}, so a scan of F_p finds a root.  Each
    later j comes from a root r of its cubic (Phi_2 is symmetric); the other
    two roots solve Y^2 + b Y + c1 + r b = 0, b = c2 + r.  The discriminant
    a + c w has the root x + y w with x^2 = (a +- n)/2, n^2 = N(a + c w),
    the sign giving a square, and y = c/(2x); if neither does, y^2 = a/d.
    """
    _check_characteristic(p)
    A = _ArrayField(p, least_nonresidue(p))
    half, root = (p + 1) // 2, {x * x % p: x for x in range(p)}

    def cubic(j):  # (c2, c1, c0) of Phi_2(j, Y), by Horner in j
        return [reduce(lambda c, k: A.add(A.mul(c, j), (k % p, 0)), row[::-1], (0, 0))
                for row in _PHI2[2::-1]]

    j0 = 1728 % p if p % 4 == 3 else 0 if p % 3 == 2 else next(
        j for j in range(1, p) if j != 1728 % p
        and point_count((0, 3 * j * (1728 - j), 2 * j * (1728 - j) ** 2), p) == p + 1
    )
    (c2, _), (c1, _), (c0, _) = cubic((j0, 0))
    r0 = next(y for y in range(p) if (((y + c2) * y + c1) * y + c0) % p == 0)
    seen, todo = {(j0, 0)}, [((j0, 0), (r0, 0))]
    while todo:
        j, r = todo.pop()
        c2, c1, _ = cubic(j)
        b = A.add(c2, r)
        a, c = A.add(A.mul(b, b), A.scale(-4, A.add(c1, A.mul(r, b))))
        n = root[A.norm((a, c))]
        x2 = [t for t in ((a + n) * half % p, (a - n) * half % p) if A.chi[t] == 1]
        s = (root[x2[0]], c * A.inv[2 * root[x2[0]] % p] % p) if x2 else (0, root[a * A.inv[A.d] % p])
        for k in (r, A.mul((half, 0), A.add(s, A.scale(-1, b))), A.mul((p - half, 0), A.add(s, b))):
            if k not in seen:
                seen.add(k)
                todo.append((k, j))
    return {(int(c0), int(c1)) for c0, c1 in seen}


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
    if hessian_norm_condition_j_set(p) != hex_zero_set(p):
        return False
    samples = tuple(c[:HESSIAN_TORSION_SAMPLES] for c in _admissible_hessian_params(p))
    return all(
        n_torsion_structure(cubic, 3, p) == TorsionStructure(3, 3)
        for cubic in _hessian_cubics(p, samples)
    )
