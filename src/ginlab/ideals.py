"""Monomial ideals: minimal generators, membership, Hilbert data."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .orders import binomial, mono_divides


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators, kept sorted in descending lex."""

    n: int
    gens: tuple  # exponent tuples, pairwise indivisible, descending lex

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.n:
                raise ValueError(f"generator {g} does not have {self.n} exponents")

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

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def hilbert_numerator(J):
    """Integer coefficients of N(t) with HS(S/J; t) = N(t) / (1-t)^n.

    Pivot recursion on a degree-one variable monomial: splitting along a
    pivot p gives N(J) = N(J + (p)) + t * N(J : p). The pivot variable is
    the one occurring most often among generators that are not pure
    powers. Memoized per top-level call.
    """
    return _poly_trim(_numerator(frozenset(J.gens), {}))


def _numerator(gens, memo):
    """N(t) of the ideal with the minimal generators `gens` (a frozenset),
    memoized in `memo`. A module-level function, not a closure: a nested
    function that calls itself keeps its memo in a reference cycle."""
    if not gens:
        return [1]
    if any(not any(g) for g in gens):
        return [0]  # unit ideal
    hit = memo.get(gens)
    if hit is not None:
        return hit
    pure = [g for g in gens if sum(1 for e in g if e) == 1]
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        out = [1]
        for g in pure:
            d = sum(g)
            factor = [1] + [0] * (d - 1) + [-1]
            out = _poly_mul(out, factor)
        memo[gens] = out
        return out
    n = len(next(iter(gens)))
    counts = [0] * n
    for g in mixed:
        for v, e in enumerate(g):
            if e:
                counts[v] += 1
    v = max(range(n), key=lambda i: counts[i])
    pivot = tuple(1 if i == v else 0 for i in range(n))
    plus = minimalize(n, list(gens) + [pivot]).gens
    colon = minimalize(n, [tuple(max(e - p, 0) for e, p in zip(g, pivot))
                           for g in gens]).gens
    a = _numerator(frozenset(plus), memo)
    b = _numerator(frozenset(colon), memo)
    out = [0] * max(len(a), len(b) + 1)
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i + 1] += x
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
    num = hilbert_numerator(J)
    return [series_coefficient(num, J.n, d) for d in range(horizon + 1)]


def hilbert_function(J, d):
    """dim of the degree-d piece of S/J."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return hilbert_series(J, horizon=d)[d]
