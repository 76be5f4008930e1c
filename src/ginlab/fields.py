"""Exact coefficient fields, which matter here only through their
characteristic.

A field is the frozen value `Field(char)`: 0 is the rationals `QQ`, a
prime p is GF(p) (`PrimeField(p)`). Fields are equal when their
characteristics are. Elements are plain Python values:
`fractions.Fraction` over Q, ints in ``[0, p)`` over GF(p). `of` is the
one rule that turns an int or a Fraction into an element, for
`Polynomial.from_terms`; the Groebner kernel computes on ints itself
(`poly.PackedRing`).
"""

from __future__ import annotations

from .values import Frozen

DEFAULT_PRIME = 32003


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


class Field(Frozen):
    """The field of characteristic `char`: Q for 0, GF(p) for a prime p."""

    char: int

    def __post_init__(self):
        if self.char and not _is_prime(self.char):
            raise ValueError(f"modulus {self.char} is not prime")

    @property
    def name(self):
        """The CLI/JSON name: "Q" or "F<p>"."""
        return f"F{self.char}" if self.char else "Q"

    def __repr__(self):
        return f"GF({self.char})" if self.char else "QQ"

    def of(self, x):
        """The element of an int or a Fraction x: a Fraction over Q; over
        GF(p) an int in [0, p), the denominator inverted (a ValueError if
        p divides it)."""
        p = self.char
        if p and isinstance(x, int):  # GF(p) sampling never loads fractions
            return x % p
        # a plain import, as a from-import costs a microsecond a call
        import fractions
        if not p:
            return fractions.Fraction(x)
        if isinstance(x, fractions.Fraction):
            return x.numerator * pow(x.denominator, -1, p) % p
        return x % p


QQ = Field(0)


def PrimeField(p=DEFAULT_PRIME):
    """GF(p); p must be prime."""
    if not p:
        raise ValueError("modulus 0 is not prime")
    return Field(p)


def field_by_name(name):
    """Resolve a field from its CLI/JSON name ("Q" or "F<p>")."""
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F"):
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")
