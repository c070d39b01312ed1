"""Reference field elements for the tests' object-level oracles.

The package carries F_p and F_{p^2} values as plain residues.  The tests'
slow references (point sets, chord-and-tangent addition, closed-form
j-maps) read better as arithmetic on element objects, so this module gives
them one: ``El`` is c0 + c1 w in F_p (degree 1, c1 = 0) or in
F_{p^2} = F_p[w]/(w^2 - d) (degree 2), d the least quadratic non-residue,
the same w as the package's pairs.  An F_p element is its own image in
F_{p^2}: mixed arithmetic lands in the larger field, and equality looks at
the coefficients only.  Ints coerce on either side; elements do not hash.

Nothing here imports the package, so the references stay independent of
the code they check.
"""

from functools import lru_cache


def euler(a: int, p: int) -> int:
    """Euler's criterion a^((p-1)/2) mod p, mapped onto {-1, 0, 1}."""
    return (pow(a, (p - 1) // 2, p) + 1) % p - 1


@lru_cache(maxsize=None)
def nonresidue(p: int) -> int:
    """The least quadratic non-residue mod p: d with w^2 = d."""
    return next(d for d in range(2, p) if euler(d, p) == -1)


class El:
    """c0 + c1 w over F_p (deg 1) or F_{p^2} (deg 2), coefficients mod p."""

    __slots__ = ("p", "deg", "c0", "c1")

    def __init__(self, p: int, c0: int, c1: int = 0, deg: int = 1):
        self.p = p
        self.deg = deg
        self.c0 = c0 % p
        self.c1 = c1 % p

    def _coeffs(self, other):
        """other's (c0, c1) and the degree of the field holding both."""
        if isinstance(other, int):
            return other, 0, self.deg
        if other.p != self.p:
            raise ValueError("modulus mismatch")
        return other.c0, other.c1, self.deg if self.deg >= other.deg else other.deg

    def __add__(self, other):
        o0, o1, deg = self._coeffs(other)
        return El(self.p, self.c0 + o0, self.c1 + o1, deg)

    __radd__ = __add__

    def __neg__(self):
        return El(self.p, -self.c0, -self.c1, self.deg)

    def __sub__(self, other):
        o0, o1, deg = self._coeffs(other)
        return El(self.p, self.c0 - o0, self.c1 - o1, deg)

    def __rsub__(self, other):
        return El(self.p, other - self.c0, -self.c1, self.deg)

    def __mul__(self, other):
        o0, o1, deg = self._coeffs(other)
        a0, a1 = self.c0, self.c1
        d = nonresidue(self.p) if a1 and o1 else 0
        return El(self.p, a0 * o0 + d * a1 * o1, a0 * o1 + a1 * o0, deg)

    __rmul__ = __mul__

    def norm(self) -> "El":
        """c0^2 - d c1^2 = z z^p, an element of F_p."""
        return El(self.p, self.c0 * self.c0 - nonresidue(self.p) * self.c1 * self.c1)

    def inverse(self) -> "El":
        n = self.norm().c0
        if not n:
            raise ZeroDivisionError("inverse of 0")
        ninv = pow(n, -1, self.p)
        return El(self.p, self.c0 * ninv, -self.c1 * ninv, self.deg)

    def __truediv__(self, other):
        return self * El(self.p, *self._coeffs(other)).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        acc, base = El(self.p, 1, 0, self.deg), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_square(self) -> bool:
        """Whether z = x^2 has a root x in z's own field; over F_{p^2},
        exactly when the norm is a square in F_p."""
        return euler((self.norm() if self.deg == 2 else self).c0, self.p) != -1

    def residue(self):
        """The value as the package's oracles return it: an int over F_p, a
        pair (c0, c1) over F_{p^2}."""
        return (self.c0, self.c1) if self.deg == 2 else self.c0

    def __eq__(self, other):
        if not isinstance(other, (int, El)):
            return NotImplemented
        o0, o1, _ = self._coeffs(other)
        return (self.c0, self.c1) == (o0 % self.p, o1)

    __hash__ = None

    def __bool__(self):
        return bool(self.c0 or self.c1)

    def __repr__(self):
        return "+".join([f"{self.c0}"] * bool(self.c0) + [f"{self.c1}w"] * bool(self.c1)) or "0"


def fp(p: int, v: int) -> El:
    return El(p, v)


def fp2(p: int, c0: int, c1: int = 0) -> El:
    return El(p, c0, c1, 2)


def elements(p: int, deg: int):
    """Every element of F_p (deg 1) or F_{p^2} (deg 2), c0-major."""
    for c0 in range(p):
        for c1 in range(p if deg == 2 else 1):
            yield El(p, c0, c1, deg)
