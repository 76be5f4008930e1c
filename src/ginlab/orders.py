"""Monomials as exponent tuples, total monomial orders, and their packed form.

Variables follow the convention x1 > x2 > ... > xn: index 0 is the
largest variable. Exponent tuples are the public form of a monomial.

In the hot paths a monomial is one Python int, packed by the `Layout`
that ``order.layout(n)`` returns: the Groebner kernel runs on packed
monomials, and so does the Hilbert numerator (`ideals._numerator`),
both for monomial ideals and for the kernel's count of its leads.

- Every field is FIELD_BITS = 16 bits wide. Its top bit is a guard bit,
  clear in every valid monomial, so an exponent is at most EXP_MAX =
  2**15 - 1.
- Each block of variables (all of them, or the main and the parameter
  part of an inverse block) has a degree field holding the block's total
  degree: on top of the block for the graded orders, at the bottom for
  lex, where it never decides a comparison but bounds the block's
  degree like any other field.
- Fields are laid out in priority order, most significant first. Lex and
  deglex put x1 first; degrevlex puts xn first and marks its exponent
  fields as reversed.
- The key of a packed monomial P is ``P - 2*(P & rev)``, where ``rev``
  masks the reversed fields: those fields count negatively. The key is
  linear, key(m*q) = key(m) + key(q), and comparing keys as ints compares
  monomials under the order. For lex and deglex the key is P itself.
- An inverse block concatenates the main layout (more significant) and
  the parameter layout.

So a product is ``a + b``, in packed or in key form; ``a`` divides ``b``
iff ``((b | guard) - a) & guard == guard``; and a sum of valid monomials
that sets a guard bit has an exponent or a degree too large for its
field. Packing refuses such an exponent with `ExponentOverflow`, and so
does the kernel when a product would create one: nothing ever compares
or divides a monomial that does not fit.

An exponent tuple m sorts by the key of its packed monomial,
``layout.key(layout.pack(m))``, so the tuple boundary and the kernel
sort alike.

Orders are frozen values, equal when their fields are: `SingleBlock`
(LEX, DEGLEX, DEGREVLEX) and `InverseBlock`. A layout depends only on
the block structure, so every order with the same structure, in the
same number of variables, shares one `Layout`, built once per process.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from struct import Struct

from .fields import _is_prime
from .values import Frozen

FIELD_BITS = 16
EXP_MAX = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class DimensionMismatch(ValueError):
    pass


class ExponentOverflow(OverflowError):
    """An exponent or a block degree does not fit a packed field."""

    def __init__(self):
        super().__init__(f"exponent or degree above {EXP_MAX} does not fit "
                         f"a {FIELD_BITS}-bit monomial field")


# ---------------------------------------------------------------------------
# monomial helpers (monomials are plain tuples of non-negative ints)

def mono_divides(m1, m2):
    """True iff m1 divides m2."""
    return all(a <= b for a, b in zip(m1, m2))


def mono_str(m, names=None):
    if not any(m):
        return "1"
    if names is None:
        names = [f"x{i + 1}" for i in range(len(m))]
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# packed monomials

class Layout:
    """The packing of n-variable exponent tuples for one order.

    `blocks` lists, most significant first, (variables, graded, reversed):
    the variable indices of a block in field order, whether its degree
    field goes on top (else at the bottom), and whether its exponent
    fields are reversed.
    """

    def __init__(self, nvars, blocks):
        # per field, most significant first: the entry of (exponents +
        # block degrees) it holds, and whether it counts negatively
        source, negated, spans = [], [], []
        for b, (variables, graded, reversed_) in enumerate(blocks):
            top, k = len(source), len(variables)
            if graded:
                source += [nvars + b, *variables]
                negated += [False] + [reversed_] * k
            else:
                source += [*variables, nvars + b]
                negated += [reversed_] * k + [False]
            spans.append((top, graded, k, min(variables), max(variables) + 1))
        count = len(source)
        shift = [FIELD_BITS * (count - 1 - k) for k in range(count)]
        self.nvars = nvars
        self.bits = FIELD_BITS * count
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in shift)
        self.rev = sum(_FIELD << s for s, neg in zip(shift, negated) if neg)
        self._grev = self.guard & self.rev
        # the lowest bit of every exponent field, degree fields left out
        self.exponent_ones = sum(1 << s for s, k in zip(shift, source)
                                 if k < nvars)
        self.exponent_mask = self.exponent_ones * EXP_MAX
        # the shifts of the exponent fields, most significant first
        self.exponent_shifts = [s for s, k in zip(shift, source) if k < nvars]
        # per block: the slice of the exponent tuple its degree sums; the
        # shift of its degree field; and the shift, mask and multiplier
        # that sum its exponent fields into their top field
        self._slices = []
        self._blocks = []
        for top, graded, k, first, stop in spans:
            width = FIELD_BITS * k
            self._slices.append(slice(first, stop))
            self._blocks.append((
                shift[top if graded else top + k],
                shift[top + k if graded else top + k - 1], (1 << width) - 1,
                sum(1 << (FIELD_BITS * j) for j in range(k)),
                width - FIELD_BITS))
        # the fields as little-endian 16-bit words, least significant first
        word = source[::-1]
        words = Struct(f"<{count}H")
        self._to_bytes, self._from_bytes = words.pack, words.unpack
        self._nbytes = 2 * count
        self._gather = itemgetter(*word)
        self._pick = (itemgetter(*map(word.index, range(nvars))) if nvars > 1
                      else lambda w, k=word.index(0): (w[k],))

    def pack(self, m):
        """The packed form of an exponent tuple."""
        if len(m) != self.nvars:
            raise DimensionMismatch(
                f"monomial has {len(m)} exponents, layout has {self.nvars}")
        slices = self._slices
        degrees = ((sum(m),) if len(slices) == 1
                   else tuple(map(sum, map(m.__getitem__, slices))))
        if max(degrees) > EXP_MAX:
            raise ExponentOverflow()
        return int.from_bytes(self._to_bytes(*self._gather(m + degrees)),
                              "little")

    def unpack(self, P):
        """The exponent tuple of a packed monomial."""
        return self._pick(self._from_bytes(P.to_bytes(self._nbytes, "little")))

    def key(self, P):
        """The order key of a packed monomial (linear, compared as an int)."""
        return P - 2 * (P & self.rev)

    def from_key(self, k):
        """The packed monomial with order key k."""
        return k + 2 * self._grev - 2 * ((k + self._grev) & self.rev)

    def degree(self, P):
        """Total degree: the sum of the degree fields."""
        return sum((P >> b[0]) & _FIELD for b in self._blocks)

    def field_bound(self, lead, keys):
        """A packed B such that ``B + q`` sets a guard bit iff some
        monomial with an order key in `keys` (the largest packed as
        `lead`) times packed q overflows a field. With several blocks B
        is their field-wise maximum; with one, D in every field, D their
        largest degree (lead's if graded, else the largest bottom field
        of a key): exact, as D + q_f <= D + deg(q), a product's degree."""
        if len(self._blocks) > 1:
            for k in keys:
                lead = self.fieldmax(lead, self.from_key(k))
            return lead
        shift = self._blocks[0][0]
        D = lead >> shift if shift else max(map(_FIELD.__and__, keys))
        return D * (self.guard >> (FIELD_BITS - 1))

    def fieldmax(self, a, b):
        """Field-wise maximum of two packed monomials, degree fields too."""
        ge = ((a | self.guard) - b) & self.guard  # guard set where a >= b
        mask = ge - (ge >> (FIELD_BITS - 1))
        return (a & mask) | (b & ~mask)

    def block_degrees(self, q):
        """The degree fields of a packed q's exponent fields: each block's
        exponents summed into its degree field, every other field zero.
        So a q with zero degree fields is the monomial ``q +
        block_degrees(q)``. Exact while each sum is below 2**FIELD_BITS,
        as it is for the quotient of one valid monomial by another."""
        D = 0
        for s, lo, mask, ones, top in self._blocks:
            D += (((q >> lo) & mask) * ones >> top & _FIELD) << s
        return D


# ---------------------------------------------------------------------------
# orders

_layout = cache(Layout)  # keyed by (nvars, blocks)


class _Order(Frozen):
    """What every order derives from its `blocks`."""

    def layout(self, n):
        """The packed-monomial layout of n-variable monomials."""
        return _layout(n, self.blocks(tuple(range(n))))


class SingleBlock(_Order):
    """An order on one block of variables: lex, refined by the total
    degree first if `graded`; `reversed` makes it degrevlex (same degree:
    smaller exponent in the last differing variable wins)."""

    name: str
    graded: bool = False
    reversed: bool = False

    def __post_init__(self):
        # revlex without the degree is no well-order; and the kernel reads
        # a pair's lcm degree off its key on the strength of it (see
        # `groebner._update_pairs`)
        if self.reversed and not self.graded:
            raise ValueError("a reversed order must be graded")

    def blocks(self, variables):
        if self.reversed:
            variables = variables[::-1]
        return ((variables, self.graded, self.reversed),)

    def __repr__(self):
        return self.name


class InverseBlock(_Order):
    """Order on mixed main/parameter monomials: main part decides first.

    The ambient exponent vector is (main exponents, parameter exponents);
    `nmain` gives the split point. Restricted to monomials with trivial
    parameter part this coincides with `main_order`.
    """

    main_order: SingleBlock
    param_order: SingleBlock
    nmain: int
    name = "inverse-block"

    def blocks(self, variables):
        if len(variables) < self.nmain:
            raise DimensionMismatch(
                f"order expects at least {self.nmain} main variables, "
                f"got {len(variables)}")
        main, params = variables[: self.nmain], variables[self.nmain:]
        return (self.main_order.blocks(main)
                + (self.param_order.blocks(params) if params else ()))

    def main_part(self, layout):
        """The main block's layout, and the shift that takes a monomial
        packed by `layout`, a run's layout of this order, to its main part
        packed by that one (the top fields: the main block leads)."""
        main = self.main_order.layout(self.nmain)
        return main, layout.bits - main.bits


LEX = SingleBlock("lex")
DEGLEX = SingleBlock("deglex", graded=True)
DEGREVLEX = SingleBlock("degrevlex", graded=True, reversed=True)

ORDERS_BY_NAME = {"lex": LEX, "deglex": DEGLEX, "degrevlex": DEGREVLEX}


# ---------------------------------------------------------------------------
# the p-adic binomial order used by the Borel criterion

def binom_p_leq(s, t, p):
    """s is below t in the characteristic-p sense: binom(t, s) != 0 mod p.

    For p = 0 this is the usual s <= t; for prime p it is decided by
    Lucas' theorem (every base-p digit of s is <= the matching digit of t).
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    if p == 0:
        return s <= t
    if not _is_prime(p):
        raise ValueError(f"characteristic {p} is neither zero nor prime")
    while s or t:
        if s % p > t % p:
            return False
        s //= p
        t //= p
    return True
