"""Elliptic curve oracles over F_p and F_{p^2}, in exact residue arithmetic.

Point counts come from character sums, torsion over F_p from one sweep over
x with the x-only doubling formula, the Legendre curves without a point of
order 4 from their point counts mod 8, the supersingular j-set from a walk
over the 2-isogeny graph, and the F_p j-sets from sweeping every parameter
value.  Nothing sweeps F_{p^2}: the hexagonal zero set and the admissible
Hessian parameters are the solutions of z^k = c, listed as one coset of the
k-th roots of unity from a generator of F_{p^2}*, and full 3-torsion over
F_{p^2} is a Frobenius test modulo the 3-division polynomial.  These serve
as oracles for the finite-field sweeps, so they come from curve arithmetic,
not from the polynomial identities they verify.

The sweeps and j-maps run on int64 arrays of residues mod p, through one
private layer: per-p tables of the quadratic character and of inverses, and
F_p / F_{p^2} arithmetic on coefficient arrays or single pairs
(``_ArrayField``).  The walk and the quartic arithmetic of the 3-torsion
test run on plain ints.  Every set comes back as plain residues: ints for
F_p values and pairs (c0, c1) for c0 + c1 w in F_{p^2}.

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
    """inv[v] = v^(p-2) = v^-1 mod p, with inv[0] = 0, by square-and-multiply on the array."""
    v, inv = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)
    for bit in bin(p - 2)[2:]:
        inv = inv * inv % p
        if bit == "1":
            inv = inv * v % p
    inv.flags.writeable = False
    return inv


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
        """a^e, reduced, by left-to-right square-and-multiply from the top bit."""
        r = tuple(c % self.p for c in a) if e else (1,) if self.d is None else (1, 0)
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
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
    """Structure of E(F_p)[n] for n in {2, 3, 4} and E: y^2 = f(x) =
    x^3 + c2 x^2 + c1 x + c0, ``cubic`` = (c2, c1, c0) as ints, by one sweep
    over x.

    A root of f is a point of order 2.  A nonzero square f(x) gives the two
    points (x, +-y), both with x([2]P) = f'(x)^2 / (4 f(x)) - c2 - 2x; such a
    point has [3]P = O iff x([2]P) = x and [4]P = O iff [2]P has order 2,
    i.e. f(x([2]P)) = 0.  The x of F_p are tested as one int64 array.
    """
    if n not in (2, 3, 4):
        raise ValueError("n must be 2, 3, or 4")
    if any(isinstance(c, tuple) for c in cubic):
        raise ValueError("n_torsion_structure runs over F_p only")
    _check_characteristic(p)
    A = _ArrayField(p)
    c2, c1, c0 = (int(c) % p for c in cubic)

    def f_of(t):
        return (((t + c2) * t + c1) % p * t + c0) % p

    x = np.arange(p, dtype=np.int64)
    f = f_of(x)
    a2 = int(np.count_nonzero(f == 0))  # affine points of E[2]
    an = 0  # affine points of E[n] off the x-axis
    if n != 2:
        d = ((3 * x + 2 * c2) * x + c1) % p
        x2 = (d * d % p * A.inv[4 * f % p] - c2 - 2 * x) % p
        # x2 = x would give f(x2) = f(x) != 0, so order-3 points never count for n = 4
        hit = x2 == x if n == 3 else f_of(x2) == 0
        an = 2 * int(np.count_nonzero((A.chi[f] == 1) & hit))
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
    Every step runs on plain ints.
    """
    _check_characteristic(p)
    if p > 10**3:
        raise ValueError(f"p = {p} beyond the brute-force bound 10^3")
    d, chi = least_nonresidue(p), legendre_symbols(p)
    half, root, d_inv = (p + 1) // 2, {x * x % p: x for x in range(p)}, pow(d, -1, p)
    rows = [[k % p for k in reversed(row)] for row in _PHI2[2::-1]]  # c2, c1, c0 in j

    def coefficients(j, rows):  # the Y-coefficients of Phi_2(j, Y) given by rows, as pairs
        out = []
        for row in rows:  # by Horner in j
            a0 = a1 = 0
            for k in row:
                a0, a1 = (a0 * j[0] + d * a1 * j[1] + k) % p, (a0 * j[1] + a1 * j[0]) % p
            out.append((a0, a1))
        return out

    j0 = 1728 % p if p % 4 == 3 else 0 if p % 3 == 2 else next(
        j for j in range(1, p) if j != 1728 % p
        and point_count((0, 3 * j * (1728 - j), 2 * j * (1728 - j) ** 2), p) == p + 1
    )
    (c2, _), (c1, _), (c0, _) = coefficients((j0, 0), rows)
    r0 = next(y for y in range(p) if (((y + c2) * y + c1) * y + c0) % p == 0)
    seen, todo = {(j0, 0)}, [((j0, 0), (r0, 0))]
    while todo:
        j, (r0, r1) = todo.pop()
        (c20, c21), (c10, c11) = coefficients(j, rows[:2])
        b0, b1 = c20 + r0, c21 + r1
        a = (b0 * b0 + d * b1 * b1 - 4 * (c10 + r0 * b0 + d * r1 * b1)) % p
        c = (2 * b0 * b1 - 4 * (c11 + r0 * b1 + r1 * b0)) % p
        n = root[(a * a - d * c * c) % p]
        x2 = [t for t in ((a + n) * half % p, (a - n) * half % p) if chi[t] == 1]
        if x2:
            s0 = root[x2[0]]
            s1 = c * pow(2 * s0, -1, p) % p
        else:
            s0, s1 = 0, root[a * d_inv % p]
        for k in ((r0, r1), ((s0 - b0) * half % p, (s1 - b1) * half % p),
                  (-(s0 + b0) * half % p, -(s1 + b1) * half % p)):
            if k not in seen:
                seen.add(k)
                todo.append((k, j))
    return seen


# ---------------------------------------------------------------------------
# F_{p^2}* from one generator
#
# F_{p^2}* is cyclic of order p^2 - 1, so for k | p + 1 and c in F_p* the
# solutions of z^k = c form one coset of the k-th roots of unity.  Both
# F_{p^2} parameter sets of the theta-hex oracles are such solution sets;
# listing each from a generator replaces a sweep over all p^2 elements.


def _prime_divisors(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial division."""
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    return out | ({n} if n > 1 else set())


@lru_cache(maxsize=None)
def _fp2_generator(p: int) -> tuple[int, int]:
    """A generator g of F_{p^2}* as a pair, once per p and cached: the first
    c0 + w, c0 = 0, 1, ..., then c0 + 2w, ..., with g^((p^2 - 1)/l) != 1 for
    every prime l dividing (p - 1)(p + 1).

    Candidates are not taken in the c0-major grid order: its first p
    elements are the multiples c1 w, and none of them generates, since
    (c1 w)^2 = c1^2 d lies in F_p.  Every generator has c1 != 0, so the
    search ends.
    """
    A = _ArrayField(p, least_nonresidue(p))
    exps = [(p * p - 1) // l for l in _prime_divisors(p - 1) | _prime_divisors(p + 1)]
    candidates = ((c0, c1) for c1 in range(1, p) for c0 in range(p))
    return next(g for g in candidates if all(A.pow(g, e) != (1, 0) for e in exps))


def _roots_in_fp2(p: int, k: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The (c0, c1) arrays of the k solutions of z^k = c in F_{p^2}, for
    k | p + 1 and c in F_p*.

    With g = _fp2_generator(p), N = g^(p+1) = N(g) generates F_p*.  If
    N^e = c (e by one scan of the powers of N), then z = g^t solves z^k = c
    exactly when t = e (p + 1)/k mod (p^2 - 1)/k.  So the solutions are
    g^(e (p+1)/k) h^i for i < k, h = g^((p^2 - 1)/k), listed in that order.
    """
    A = _ArrayField(p, least_nonresidue(p))
    g = _fp2_generator(p)
    norm, e, v = A.norm(g), 0, 1
    while v != c % p:
        v, e = v * norm % p, e + 1
    z, h = A.pow(g, e * ((p + 1) // k)), A.pow(g, (p * p - 1) // k)
    roots = []
    for _ in range(k):
        roots.append(z)
        z = A.mul(z, h)
    c0, c1 = zip(*roots)
    return np.array(c0, dtype=np.int64), np.array(c1, dtype=np.int64)


@lru_cache(maxsize=None)
def hex_zero_set(p: int) -> frozenset[tuple[int, int]]:
    """{ 6912 (2a-1)^3 / (a (a+4)^3) : a in F_{p^2}, a^((p+1)/3) = -2^(1/3) }
    minus {0, 1728}, as pairs (c0, c1), once per p and cached.  The (p+1)/3
    values of a are one coset of the ((p+1)/3)-th roots of unity
    (``_roots_in_fp2``)."""
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} not in the 5, 11 mod 12 classes")
    A = _ArrayField(p, least_nonresidue(p))
    a = _roots_in_fp2(p, (p + 1) // 3, -cube_root_of_2(p))
    num = A.scale(6912 % p, A.pow(A.add(A.scale(2, a), (-1, 0)), 3))
    return frozenset(_j_set(A, num, A.mul(a, A.pow(A.add(a, (4, 0)), 3))))


# ---------------------------------------------------------------------------
# full 3-torsion over F_{p^2}

_SLOT = 40  # bits per coefficient of a packed polynomial
_SLOT_MASK = (1 << _SLOT) - 1


def _pack(coeffs) -> int:
    """The polynomial sum c_i x^i over F_p, coefficients in [0, p), as the
    int sum c_i 2^(40 i)."""
    out = 0
    for c in reversed(list(coeffs)):
        out = out << _SLOT | c
    return out


class _Quartics:
    """F_{p^2}[x]/(m) for a monic quartic m = x^4 + m3 x^3 + m2 x^2 + m1 x + m0
    over F_{p^2}, given as the pairs [m0, m1, m2, m3], with p <= 10^3.

    An element a0(x) + a1(x) w is the pair (a0, a1) of its parts over F_p,
    each packed by ``_pack`` (Kronecker substitution), so that one int
    product multiplies two parts.  Every slot stays below 7 (1 + d) p^2 < 2^40
    through a product and its reduction, so no slot carries into the next.
    """

    def __init__(self, m, p: int, d: int):
        self.p, self.d = p, d
        # x^4 = -(m0 + m1 x + m2 x^2 + m3 x^3), as packed parts
        self.n0, self.n1 = (_pack(-c[i] % p for c in m) for i in (0, 1))

    def residues(self, c: int) -> int:
        """The packed part c with slots 0..3 reduced mod p and every higher
        slot dropped."""
        p, out = self.p, 0
        for shift in (3 * _SLOT, 2 * _SLOT, _SLOT, 0):
            out = out << _SLOT | (c >> shift & _SLOT_MASK) % p
        return out

    def mul(self, a, b):
        (a0, a1), (b0, b1) = a, b
        p, d, n0, n1 = self.p, self.d, self.n0, self.n1
        u, v = a0 * b0, a1 * b1
        c0, c1 = u + d * v, (a0 + a1) * (b0 + b1) - u - v
        for k in (6, 5, 4):  # x^k = x^(k-4) x^4
            t0, t1 = (c0 >> _SLOT * k & _SLOT_MASK) % p, (c1 >> _SLOT * k & _SLOT_MASK) % p
            c0 += (t0 * n0 + d * t1 * n1) << _SLOT * (k - 4)
            c1 += (t0 * n1 + t1 * n0) << _SLOT * (k - 4)
        return self.residues(c0), self.residues(c1)

    def pow(self, a, e: int):
        """a^e for e >= 1, by left-to-right square-and-multiply."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(a, r)
        return r


def full_3_torsion_over_fp2(cubic, p: int) -> bool:
    """Whether E[3] lies in E(F_{p^2}) for the nonsingular E: y^2 = f(x) =
    x^3 + c2 x^2 + c1 x + c0 over F_{p^2}, ``cubic`` = (c2, c1, c0) as pairs.

    The x of the points of order 3 are the four roots of the 3-division
    polynomial psi_3 = 3x^4 + 4c2 x^3 + 6c1 x^2 + 12c0 x + (4c2 c0 - c1^2)
    (Washington, Elliptic Curves, 3.2), which is separable with no root in
    common with f in characteristic >= 5.  So E[3] lies in E(F_q), q = p^2,
    exactly when every root lies in F_q and f is a nonzero square at each:
    by the Chinese remainder theorem in R = F_q[x]/(psi_3), when x^q = x and
    f^((q-1)/2) = 1 in R (the test of distinct-degree factoring; Cantor and
    Zassenhaus 1981).  The p-th power map of R is sigma(sum a_i x^i) =
    sum conj(a_i) X^i with X = x^p, so x^q = sigma(X) and f^((q-1)/2) =
    (f sigma(f))^((p-1)/2): O(log p) products of quartics over F_{p^2}.
    """
    _check_characteristic(p)
    A = _ArrayField(p, least_nonresidue(p))
    d, third = A.d, pow(3, -1, p)
    c2, c1, c0 = [(int(u) % p, int(v) % p) for u, v in cubic]
    psi0 = A.add(A.scale(4, A.mul(c2, c0)), A.scale(-1, A.mul(c1, c1)))
    R = _Quartics([A.mul((third, 0), psi0), A.mul((4, 0), c0), A.mul((2, 0), c1),
                   A.mul((4 * third, 0), c2)], p, d)
    x = (_pack([0, 1]), 0)
    X = R.pow(x, p)
    X2 = R.mul(X, X)
    powers = ((1, 0), X, X2, R.mul(X2, X))

    def sigma(a):
        s0 = s1 = 0
        for i, (y0, y1) in enumerate(powers):  # conj(a_i) X^i
            a0, a1 = a[0] >> _SLOT * i & _SLOT_MASK, -(a[1] >> _SLOT * i & _SLOT_MASK) % p
            s0 += a0 * y0 + d * a1 * y1
            s1 += a0 * y1 + a1 * y0
        return R.residues(s0), R.residues(s1)

    if sigma(X) != x:
        return False
    f = tuple(_pack(c[i] for c in (c0, c1, c2, (1, 0))) for i in (0, 1))
    return R.pow(R.mul(f, sigma(f)), (p - 1) // 2) == (1, 0)


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
    and b^3 != 1, in the c0-major order of the pairs, once per p and cached.

    b^(p+1) is the F_{p^2}/F_p norm; its p + 1 solutions come from
    ``_roots_in_fp2`` and are sorted.  b^3 != 1 keeps E_b nonsingular.
    """
    A = _ArrayField(p, least_nonresidue(p))
    b = _roots_in_fp2(p, p + 1, -2)
    b30, b31 = A.pow(b, 3)
    keep = np.flatnonzero((b30 != 1) | (b31 != 0))
    keep = keep[np.lexsort((b[1][keep], b[0][keep]))]
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
    3-torsion over F_{p^2} (``full_3_torsion_over_fp2``).

    Both sides exclude {0, 1728}; the parametrizations can hit those values
    (p = 5 does) but the zero set never contains them.
    """
    if p % 12 not in (5, 11):
        raise ValueError(f"p = {p} not in the 5, 11 mod 12 classes")
    if hessian_norm_condition_j_set(p) != hex_zero_set(p):
        return False
    samples = tuple(c[:HESSIAN_TORSION_SAMPLES] for c in _admissible_hessian_params(p))
    return all(full_3_torsion_over_fp2(cubic, p) for cubic in _hessian_cubics(p, samples))
