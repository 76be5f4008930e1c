"""Monomial ideals: minimal generators, membership, Hilbert data.

A `MonomialIdeal` holds exponent tuples, and minimal generators and
membership work on them. The Hilbert numerator runs on packed monomials
(`orders.Layout`): `packed_numerator` is the one pivot recursion, used
by `hilbert_numerator` on a `LEX` packing of the generators and by the
Groebner kernel's Hilbert count on its own packing. A packed field holds
at most EXP_MAX = 32767, so the Hilbert data of an ideal with a larger
exponent or generator degree raise `ExponentOverflow`; minimalization
and membership have no such limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement

from .orders import _FIELD, EXP_MAX, FIELD_BITS, LEX, binomial, mono_divides


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators, kept sorted in descending lex."""

    n: int
    gens: tuple  # exponent tuples, pairwise indivisible, descending lex

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"an ideal needs at least one variable, not {self.n!r}")
        for g in self.gens:
            if len(g) != self.n:
                raise ValueError(f"generator {g} does not have {self.n} exponents")
        # `type`, not `isinstance`, so that bools are refused too
        if (not {int}.issuperset(map(type, chain.from_iterable(self.gens)))
                or min(chain.from_iterable(self.gens), default=0) < 0):
            raise ValueError("an exponent is not a non-negative integer")

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return any(not any(g) for g in self.gens)

    def to_json(self):
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data):
        return minimalize(int(data["n"]), [tuple(g) for g in data["gens"]])


def minimalize(n, monomials):
    """Drop every monomial divisible by another one in the set."""
    mins = []
    for m in sorted(set(monomials), key=sum):
        if not any(mono_divides(g, m) for g in mins):
            mins.append(m)
    mins.sort(reverse=True)  # descending lex
    return MonomialIdeal(n, tuple(mins))


def contains(J, m):
    if len(m) != J.n:
        raise ValueError(f"monomial has {len(m)} exponents, ideal is in {J.n} variables")
    return any(mono_divides(g, m) for g in J.gens)


def maxdeg(J):
    if not J.gens:
        raise ValueError("maxdeg of the zero ideal")
    return max(sum(g) for g in J.gens)


def top_degree(J):
    """maxdeg(J), or 0 for the zero ideal."""
    return maxdeg(J) if J.gens else 0


def monomials_of_degree(n, d):
    """All degree-d monomials in n variables, in descending lex order.

    No sort is needed: `combinations_with_replacement` yields the sorted
    variable-index tuples in ascending lex order, and where two of them
    first differ the smaller index gives its variable one more factor, so
    the monomials come out in descending lex order.
    """
    out = []
    for bars in combinations_with_replacement(range(n), d):
        m = [0] * n
        for i in bars:
            m[i] += 1
        out.append(tuple(m))
    return out


# ---------------------------------------------------------------------------
# Hilbert series

def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def hilbert_numerator(J):
    """Integer coefficients of N(t) with HS(S/J; t) = N(t) / (1-t)^n.

    The generators are packed under `LEX` and handed to
    `packed_numerator`. An exponent or a generator degree above EXP_MAX
    = 32767 does not fit a packed field and raises `ExponentOverflow`.
    """
    layout = LEX.layout(J.n)
    mask = layout.exponent_mask
    return packed_numerator(layout, [layout.pack(g) & mask for g in J.gens])


def packed_numerator(layout, gens):
    """N(t) of the monomial ideal generated by the packed monomials `gens`
    of `layout`, whose degree fields must be zero (``& exponent_mask``).

    Pivot recursion (Bayer-Stillman; Bigatti, "Computation of
    Hilbert-Poincare series", JPAA 1997): for a variable x_v, N(J) =
    N(J + (x_v)) + t * N(J : x_v). The pivot is the variable occurring in
    the most generators that are not pure powers, ties going to the most
    significant field; N(J) does not depend on the choice. An ideal of
    pure powers only has N(t) = prod(1 - t^d). Memoized per call.
    """
    return _numerator(frozenset(_minimal(gens, layout.guard)), layout, {})


def _minimal(gens, guard):
    """The packed monomials among `gens` that no other one divides. A
    proper divisor is a smaller int, so one ascending scan keeps each
    monomial that no monomial kept before it divides."""
    kept = []
    for m in sorted(gens):
        mg = m | guard
        for g in kept:
            if (mg - g) & guard == guard:
                break
        else:
            kept.append(m)
    return kept


def _numerator(gens, layout, memo):
    """N(t) of the ideal with the minimal packed generators `gens` (a
    frozenset) of `layout`. Adding EXP_MAX to every exponent field sets
    the guard bit of each nonzero one, so ``nz >> 15`` has a one in every
    field the generator uses. A module-level function, not a closure: a
    nested function that calls itself keeps its memo in a reference
    cycle."""
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
        out = [1]
        for d in pure:  # times 1 - t^d
            out += [0] * d
            for i in range(len(out) - 1, d - 1, -1):
                out[i] -= out[i - d]
    else:
        best = 0
        for s in layout.exponent_shifts:
            c = (mixed >> s) & _FIELD
            if c > best:
                best, shift = c, s
        pivot, field = 1 << shift, _FIELD << shift
        a = _numerator(frozenset([g for g in gens if not g & field] + [pivot]),
                       layout, memo)
        b = _numerator(frozenset(_minimal(
            [g - pivot if g & field else g for g in gens], guard)),
            layout, memo)
        out = a + [0] * (len(b) + 1 - len(a))
        for i, x in enumerate(b, 1):
            out[i] += x
        out = _poly_trim(out)
    memo[gens] = out
    return out


def series_coefficient(num, n, d):
    """The degree-d coefficient of num(t) / (1 - t)^n, with `num` a list of
    integer coefficients: 1 / (1 - t)^n has coefficients binom(n-1+i, i)."""
    return sum(c * binomial(n - 1 + d - i, d - i)
               for i, c in enumerate(num[:d + 1]))


def hilbert_series(J, horizon=None):
    """Coefficients of HS(S/J; t) up to the horizon (inclusive)."""
    if horizon is None:
        horizon = max(top_degree(J) + J.n, 10)
    # times 1 / (1 - t), n times: n prefix sums
    coeffs = (hilbert_numerator(J) + [0] * horizon)[:horizon + 1]
    for _ in range(J.n):
        coeffs = list(accumulate(coeffs))
    return coeffs


def hilbert_function(J, d):
    """dim of the degree-d piece of S/J."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return hilbert_series(J, horizon=d)[d]
