"""Monomial ideals: minimal generators, membership, Hilbert data.

A `MonomialIdeal` is its minimal generators in descending lex: its
constructor checks the exponents, packs them into a divisor index
(`_Divisors`), fields just wide enough for their largest exponent, and
drops repeats and multiples by `_minimal`, the one ascending scan, which
`packed_ideal` runs on the kernel's packed leads. The ideal keeps that
packing as its index for `contains`; an ideal built by `_ideal`, whose
generators are minimal already, packs its index on first use. So every
consumer of `gens` (the predicates of `props`, the Hilbert numerator)
reads minimal generators and checks nothing again. The Hilbert numerator
runs on packed monomials (`orders.Layout`). `hilbert_numerator` packs
the generators under `LEX` and takes the Eliahou-Kervaire sum when a
certificate proves the ideal stable (`stable_numerator`), as every
lexsegment ideal is. Otherwise it runs `_numerator`, the one pivot
recursion, which the Groebner kernel's Hilbert count runs too, on its
own packing and on colon generators that are minimal already.
`hilbert_series` expands the numerator by `power_series`, n prefix sums,
the one expansion of N(t) / (1 - t)^n, which the bracket series of
`series` runs too; the kernel's Hilbert count, which compares
numerators, runs none. `times_one_minus`, the one product by
prod(1 - t^d), undoes it for d = 1. A `LEX` field holds at most
EXP_MAX = 32767, so the Hilbert data of an ideal with a larger exponent
or generator degree raise `ExponentOverflow`; minimalization and
membership have no such limit. Nothing here lists the monomials of a
degree: that is `series._lex_monomials`, the one enumerator.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain
from math import comb

from .orders import _FIELD, FIELD_BITS, LEX
from .values import Frozen

_setattr = object.__setattr__


class MonomialIdeal(Frozen):
    """The monomial ideal of the exponent tuples `gens`, held by its
    minimal generators in descending lex. The constructor checks the
    exponents once, drops repeats and multiples of other generators on
    their `_Divisors` packing, and keeps that packing as the divisor
    index: a dropped generator only widens its fields, and a query
    clamped to them keeps its divisibility by every kept one."""

    n: int
    gens: tuple  # exponent tuples, pairwise indivisible, descending lex

    def __post_init__(self):
        gens = tuple(map(tuple, self.gens))
        _check(self.n, gens)
        index = _Divisors(self.n, gens)
        packed = dict(zip(index.packed, gens))  # repeats share a key
        index.packed = sorted(_minimal(packed, index.guard), reverse=True)
        _setattr(self, "gens", tuple(map(packed.get, index.packed)))
        _setattr(self, "divisor_index", index)

    def to_json(self):
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["n"]), data["gens"])

    @cached_property
    def divisor_index(self):
        """The `_Divisors` of the generators of an ideal built by
        `_ideal`, packed on first use."""
        return _Divisors(self.n, self.gens)


def _check(n, gens):
    """ValueError unless `gens` are n-tuples of non-negative ints, n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"an ideal needs at least one variable, not {n!r}")
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator {g} does not have {n} exponents")
    # `type`, not `isinstance`, so that bools are refused too
    if (not {int}.issuperset(map(type, chain.from_iterable(gens)))
            or min(chain.from_iterable(gens), default=0) < 0):
        raise ValueError("an exponent is not a non-negative integer")


class _Divisors:
    """Exponent tuples in n variables packed one field per variable, x1
    on top, each field wide enough for `top`, the largest exponent of
    `gens`, under a guard bit. `pack` clamps an exponent to top, which
    changes no divisibility by a generator, so g divides m iff
    ``((pack(m) | guard) - pack(g)) & guard == guard``, however large m's
    exponents. `packed` lists the packed generators; these ints sort lex."""

    def __init__(self, n, gens):
        top = max(chain.from_iterable(gens), default=0)
        width = top.bit_length() + 1
        self.shifts = range(width * (n - 1), -1, -width)
        self.tops = (top,) * n
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.packed = list(map(self.pack, gens))

    def pack(self, m):
        return sum(map(int.__lshift__, map(min, m, self.tops), self.shifts))


def packed_ideal(layout, monomials):
    """The MonomialIdeal generated by the packed monomials of `layout`:
    minimalized packed (degree fields may be set), survivors unpacked."""
    gens = map(layout.unpack, _minimal(set(monomials), layout.guard))
    return _ideal(layout.nvars, tuple(sorted(gens, reverse=True)))


def _ideal(n, gens):
    """The MonomialIdeal of `gens`, minimal generators in descending lex
    that are valid already (unpacked, or minimal by construction), without
    the constructor's check and scan."""
    J = object.__new__(MonomialIdeal)
    _setattr(J, "n", n)
    _setattr(J, "gens", gens)
    return J


def contains(J, m):
    """Whether the monomial m lies in J, through J's divisor index."""
    if len(m) != J.n:
        raise ValueError(f"monomial has {len(m)} exponents, ideal is in {J.n} variables")
    index = J.divisor_index
    guard = index.guard
    mg = index.pack(m) | guard
    return guard in map(guard.__and__, map(mg.__sub__, index.packed))


def top_degree(J):
    """The largest degree of a generator of J, or 0 for the zero ideal."""
    return max(map(sum, J.gens), default=0)


# ---------------------------------------------------------------------------
# Hilbert series

def _poly_trim(a):  # in place, down to one coefficient
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def hilbert_numerator(J):
    """Integer coefficients of N(t) with HS(S/J; t) = N(t) / (1-t)^n.

    The minimal generators are packed under `LEX` first, so an exponent
    or a generator degree above EXP_MAX = 32767 raises `ExponentOverflow`
    whichever route runs. A stable J takes the Eliahou-Kervaire sum of
    `stable_numerator`, any other J the pivot recursion of `_numerator`.
    Both give the same N(t), so the choice depends on the ideal only.
    """
    layout = LEX.layout(J.n)
    packed = [layout.pack(g) for g in J.gens]
    num = stable_numerator(J.n, packed)
    if num is None:
        mask = layout.exponent_mask
        num = _numerator(frozenset([P & mask for P in packed]), layout, {})
    return num


def stable_numerator(n, gens):
    """N(t) of the ideal J whose minimal generators are `gens`,
    `LEX`-packed monomials in n variables (degree field included), if a
    certificate proves that J is stable; None otherwise.

    J is stable when x_j w / x_m(w) lies in J for every member w and
    every j < m(w), m(w) being the largest index of a variable dividing
    w. Then N(t) = 1 - sum_u t^deg(u) (1 - t)^(m(u) - 1) over the minimal
    generators u (Eliahou-Kervaire, J. Algebra 129, 1990). Why the
    certificate makes that sum exact:

    - The cones u * k[x_m(u), ..., x_n] are pairwise disjoint, so the sum
      counts a subset of J: the members whose sorted variable word (x_i
      repeated by its exponent, indices ascending) has a generator as a
      prefix.
    - That subset is all of J iff every member has a generator prefix,
      which holds iff J is stable.
    - Stability follows from the moves x_j u / x_m(u) of the generators
      alone. Write a member w as u * v with u a generator. Either x_m(w)
      divides v, and x_j w / x_m(w) = u * (x_j v / x_m(w)); or it divides
      u, so m(u) = m(w) and x_j w / x_m(w) = (x_j u / x_m(u)) * v.
    - So the certificate asks that each generator move has a generator
      prefix. If J is stable every move does, so it accepts exactly the
      stable ideals. The sum is then an exact Hilbert numerator, not an
      assumption about how J was built.

    Every prefix of a word that ends in the variable x_v is head * x_v^k,
    head being the word's part in x_1 .. x_(v-1). Of two monomials of
    that shape one divides the other, so at most one minimal generator
    has it, and a table from head * x_v to k, built in one pass, answers
    "is a prefix ending in x_v a generator" with one lookup. A move x_j u / x_m(u) keeps u's prefixes that end before x_j,
    proper divisors of u, so only the variables from x_j on are looked up:
    at most n lookups per move, whatever the degree. A second pass checks
    the generators and collects the Eliahou-Kervaire terms; the first
    failure returns None.
    """
    if not gens:
        return [1]
    words = []  # (exponent fields, x_n lowest; shift of the last variable)
    last = {}  # head * x_v -> k, for each generator head * x_v^k
    for P in gens:
        u = P >> FIELD_BITS
        if not u:  # the unit ideal, its one minimal generator
            return [0]
        low = (u & -u).bit_length() - 1
        low -= low % FIELD_BITS
        k = u >> low & _FIELD
        last[u - (k - 1 << low)] = k
        words.append((u, low))

    def has_prefix(w, top):
        # a generator among the prefixes of w ending in a variable whose
        # field lies at a shift of at most top
        for s in range(top, -1, -FIELD_BITS):
            k = w >> s & _FIELD
            if k and last.get((w >> s) - k + 1 << s, _FIELD) <= k:
                return True
        return False

    top = FIELD_BITS * (n - 1)  # the field of x_1
    terms = {}  # (degree, m(u) - 1) -> how many generators
    for P, (u, low) in zip(gens, words):
        for s in range(top, low, -FIELD_BITS):  # x_j from x_1 to x_m(u)-1
            if not has_prefix(u + (1 << s) - (1 << low), s):
                return None
        key = (P & _FIELD, n - 1 - low // FIELD_BITS)
        terms[key] = terms.get(key, 0) + 1
    out = [1] + [0] * max(d + m for d, m in terms)
    for (d, m), c in terms.items():  # minus c t^d (1 - t)^m
        for i in range(m + 1):
            out[d + i] -= (-1) ** i * comb(m, i) * c
    return _poly_trim(out)


def _minimal(gens, guard):
    """The packed monomials among `gens` that no other one divides. A
    proper divisor is a smaller int, so one ascending scan keeps each
    monomial that no monomial kept before it divides."""
    kept = []
    for m in sorted(gens):
        mg = m | guard
        for k in kept:
            if (mg - k) & guard == guard:
                break
        else:
            kept.append(m)
    return kept


def _numerator(gens, layout, memo):
    """N(t) of the ideal with the minimal packed generators `gens` (a
    frozenset) of `layout`, whose degree fields must be zero
    (``& exponent_mask``).

    Pivot recursion (Bayer-Stillman; Bigatti, "Computation of
    Hilbert-Poincare series", JPAA 1997): for a power x_v^e, N(J) =
    N(J + (x_v^e)) + t^e * N(J : x_v^e). The pivot variable occurs in the
    most generators that are not pure powers, ties going to the most
    significant field, and e is the least positive x_v exponent among
    them. A pure power x_v^d that is a minimal generator has d > e, so
    every generator that x_v divides is a multiple of x_v^e: it leaves
    J + (x_v^e) and loses x_v^e in the colon. N(J) does not depend on
    the choice; a large e keeps the recursion shallow where x_v = x_v^1
    would peel one exponent per level. An ideal of pure powers only has
    N(t) = prod(1 - t^d). Memoized in `memo`.

    Adding EXP_MAX to every exponent field sets the guard bit of each
    nonzero one, so ``nz >> 15`` has a one in every field the generator
    uses. A module-level function, not a closure: a nested function that
    calls itself keeps its memo in a reference cycle."""
    if not gens:
        return [1]
    if 0 in gens:
        return [0]  # unit ideal
    hit = memo.get(gens)
    if hit is not None:
        return hit
    fill, guard = layout.exponent_mask, layout.guard
    mixed = 0  # per field, the mixed generators that use it
    pure = []
    for g in gens:
        nz = (g + fill) & guard
        if nz & (nz - 1):
            mixed += nz >> (FIELD_BITS - 1)
        else:  # a pure power x_v^d, with d = g / x_v
            pure.append(g // (nz >> (FIELD_BITS - 1)))
    if not mixed:
        out = times_one_minus([1], pure)
    else:
        best = 0
        for s in layout.exponent_shifts:
            c = (mixed >> s) & _FIELD
            if c > best:
                best, shift = c, s
        field = _FIELD << shift
        rest = [g for g in gens if not g & field]
        using = [g for g in gens if g & field]
        pivot = min(map(field.__and__, using))  # x_v^e
        e = pivot >> shift
        a = _numerator(frozenset(rest + [pivot]), layout, memo)
        b = _numerator(frozenset(_minimal(rest + [g - pivot for g in using],
                                          guard)), layout, memo)
        out = a + [0] * (len(b) + e - len(a))
        for i, x in enumerate(b, e):
            out[i] += x
        out = _poly_trim(out)
    memo[gens] = out
    return out


def power_series(num, n, horizon):
    """The coefficients of num(t) / (1 - t)^n through degree `horizon`,
    `num` being a list of integer coefficients: times 1 / (1 - t), n
    times, is n prefix sums."""
    coeffs = (num + [0] * horizon)[:horizon + 1]
    for _ in range(n):
        coeffs = list(accumulate(coeffs))
    return coeffs


def times_one_minus(num, degrees):
    """The coefficients of num(t) * prod(1 - t^d) over `degrees`, `num`
    being a list of integer coefficients; with n ones it undoes
    `power_series(num, n, ...)` through the horizon."""
    for d in degrees:
        num = [a - b for a, b in zip(num + [0] * d, [0] * d + num)]
    return num


def hilbert_series(J, horizon=None):
    """Coefficients of HS(S/J; t) up to the horizon (inclusive)."""
    if horizon is None:
        horizon = max(top_degree(J) + J.n, 10)
    return power_series(hilbert_numerator(J), J.n, horizon)
