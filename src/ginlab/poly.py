"""Sparse multivariate polynomials over an exact field.

A polynomial is a tuple of (monomial, coefficient) terms kept strictly
descending under its active order, with exponent tuples as monomials:
that is the public form. In a ring of the parametric family the main
x-variables come first and the parameters after them; the order says
where they split (`orders.InverseBlock.nmain`).

The Groebner kernel works on the packed form instead (`PackedRing`,
`Packed`): each monomial is the int order key of its packed exponent
vector (see `orders.Layout`), so a term is (key, coefficient), a product
of monomials is a sum of keys and sorting by monomial is sorting ints.
The coefficients are ints: over GF(p) in [0, p), reduced inline with ``% p``;
over Q unbounded, with the denominators cleared. A packed polynomial over
Q stands for its integer terms divided by the int `Packed.den`, the
multiplier that packing and pseudo-division accumulated, so the kernel
builds no Fraction and `unpack` still returns the exact rational
polynomial.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter

from .fields import QQ
from .orders import mono_str
from .values import Frozen


class RingMismatch(ValueError):
    pass


class Ring(Frozen):
    """Variable names plus coefficient field."""

    field: object
    names: tuple

    @property
    def nvars(self):
        return len(self.names)


def xring(n, field=QQ):
    """Plain ring k[x1..xn] with no parameters."""
    return Ring(field, tuple(f"x{i + 1}" for i in range(n)))


class Polynomial:
    __slots__ = ("ring", "order", "terms")

    def __init__(self, ring, order, terms):
        # terms must already be normalized (descending, nonzero coeffs)
        self.ring = ring
        self.order = order
        self.terms = tuple(terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, ring, order, terms):
        """The polynomial of (monomial, coefficient) terms, each
        coefficient an int or a Fraction taken into ``ring.field`` by its
        `of`: the coefficients of one monomial add up, and zero sums
        drop out."""
        of = ring.field.of
        d = {}
        for m, c in terms:
            if len(m) != ring.nvars:
                raise RingMismatch(f"term has {len(m)} exponents, ring has {ring.nvars}")
            d[m] = of(d.get(m, 0) + of(c))
        layout = order.layout(ring.nvars)
        key, pack = layout.key, layout.pack
        items = sorted(((m, c) for m, c in d.items() if c),
                       key=lambda t: key(pack(t[0])), reverse=True)
        return cls(ring, order, items)

    # -- inspection ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms)))

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.terms):
            ms = mono_str(m, self.ring.names)
            neg = c < 0
            mag = -c if neg else c
            if ms == "1":
                body = str(mag)
            elif mag == 1:
                body = ms
            else:
                body = f"{mag}*{ms}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# packed form, for the Groebner kernel

class Packed:
    """A polynomial in the packed form of a `PackedRing`: `terms` lists
    (key, coefficient) pairs, keys strictly descending, coefficients
    nonzero ints; only the S-polynomial that `groebner.s_polynomial`
    hands to `groebner.normal_form` holds a dict from key to coefficient
    instead. The polynomial is ``terms / den``; `den` is a nonzero
    int, 1 over GF(p). It is falsy when zero. `reducer` caches what
    division by it needs, once it divides (see `PackedRing.reducer`)."""

    __slots__ = ("terms", "den", "reducer")

    def __init__(self, terms, den=1):
        self.terms = terms
        self.den = den
        self.reducer = None

    def __bool__(self):
        return bool(self.terms)


class PackedRing:
    """A ring under one monomial order, in the packed form of the Groebner
    kernel: monomials packed by ``order.layout(nvars)``, coefficients
    ints modulo ``p`` (the characteristic) over GF(p), and over Q
    (``p == 0``) integers over the common denominator `Packed.den`.

    Over Q the kernel divides fraction-free: a reducer keeps its integer
    leading coefficient ``a``, and a reduction step scales the working
    polynomial by ``a / gcd(a, c)`` before it cancels the term ``c``
    (pseudo-division). Every scaling is by a nonzero constant, so the
    same terms are nonzero and the same reducers are chosen as with
    rational arithmetic, and the remainder differs from the rational one
    by a constant factor, which `primitive` removes."""

    __slots__ = ("ring", "order", "layout", "p")

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.layout = order.layout(ring.nvars)
        self.p = ring.field.char

    def pack(self, f):
        """The packed form of a Polynomial of this ring, in any order."""
        key, pack = self.layout.key, self.layout.pack
        terms = [(key(pack(m)), c) for m, c in f.terms]
        den = 1
        if not self.p:
            den = lcm(*(c.denominator for _, c in terms))
            terms = [(k, c.numerator * (den // c.denominator))
                     for k, c in terms]
        terms.sort(reverse=True)
        return Packed(terms, den)

    def unpack(self, F):
        """The Polynomial of a packed one, under this ring's order."""
        unpack, from_key = self.layout.unpack, self.layout.from_key
        if self.p:
            terms = F.terms
        else:
            from fractions import Fraction
            den = F.den
            terms = [(k, Fraction(c, den)) for k, c in F.terms]
        return Polynomial(self.ring, self.order,
                          [(unpack(from_key(k)), c) for k, c in terms])

    def monic(self, F):
        """F divided by its leading coefficient."""
        lc, p = F.terms[0][1], self.p
        if p:
            inv = pow(lc, -1, p)
            return Packed([(k, c * inv % p) for k, c in F.terms])
        return Packed(F.terms, lc)

    def primitive(self, F):
        """F normalized: monic over GF(p); over Q the integer terms
        divided by their content, with lc > 0."""
        if self.p:
            return self.monic(F)
        content = gcd(*(c for _, c in F.terms))
        if F.terms[0][1] < 0:
            content = -content
        if content == 1:
            return Packed(F.terms)
        return Packed([(k, c // content) for k, c in F.terms])

    def reducer(self, g):
        """(lead key, lead, slack, tail, a) of a nonzero packed g,
        computed once and cached on g. `lead` is the packed leading
        monomial and `tail` lists the other terms. ``slack + m`` sets a
        guard bit iff multiplying g's monomials by m / lead overflows a
        field (slack is `Layout.field_bound` minus lead: under one block
        the largest degree in every field, no pass over the monomials
        under a graded order). Over GF(p) the tail is that of `monic`,
        and ``a`` is 1; over Q the tail is g's own and ``a`` is g's
        integer leading coefficient."""
        r = g.reducer
        if r is None:
            layout = self.layout
            (lead_key, a), *tail = g.terms
            if self.p and a != 1:
                (_, a), *tail = self.monic(g).terms
            lead = layout.from_key(lead_key)
            keys = map(itemgetter(0), g.terms)
            slack = layout.field_bound(lead, keys) - lead
            r = g.reducer = (lead_key, lead, slack, tail, a)
        return r


# ---------------------------------------------------------------------------
# text / JSON forms

def poly_to_json(f):
    return [[str(c), list(m)] for m, c in f.terms]


def poly_from_json(ring, order, data):
    """The polynomial of [[coefficient, exponents], ...]: a coefficient is
    an int or a string such as "3/4"; a float or a bool is refused."""
    from fractions import Fraction
    terms = []
    for cs, exps in data:
        # `type`, not `isinstance`, so that bools are refused too
        if type(cs) not in (int, str):
            raise ValueError(f"coefficient {cs!r} is not an int or a string")
        terms.append((tuple(exps), Fraction(cs)))
    return Polynomial.from_terms(ring, order, terms)
