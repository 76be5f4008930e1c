"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Field objects are stateless descriptors; elements are plain Python values
(`fractions.Fraction` for the rationals, ints in ``[0, p)`` for GF(p)).
A field converts (`of`) and adds elements, for `Polynomial.from_terms`;
the Groebner kernel computes on ints itself (`poly.PackedRing`).
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRIME = 32003


class RationalField:
    """The field of rationals; elements are Fraction instances."""

    char = 0
    name = "Q"

    def of(self, x):
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) with elements stored as ints in [0, p)."""

    def __init__(self, p=DEFAULT_PRIME):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            return (x.numerator % self.p) * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_by_name(name):
    """Resolve a field from its CLI/JSON name ("Q" or "F<p>")."""
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F"):
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")
