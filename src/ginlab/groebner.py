"""Buchberger's algorithm with Gebauer-Moeller pair elimination.

The kernel is generic over the coefficient field and the monomial order,
so the same code runs ground-field computations and parametric runs in
k[t, x] under an inverse block order. Over the rationals intermediate
results are kept primitive (integer coefficients, content stripped) to
control coefficient growth.

The kernel works in packed form (`poly.PackedRing`): a monomial is one
int with a 16-bit field per variable and per block degree, each field
topped by a guard bit, and a term carries the monomial's order key
``P - 2*(P & rev)`` (degrevlex fields count negatively). The key is
linear, so multiplying a term by a monomial adds keys; the division heap,
pair selection and sorting compare ints; ``a`` divides ``b`` iff
``((b | guard) - a) & guard == guard``. A product whose exponent or
degree would outgrow its field raises `orders.ExponentOverflow` first.
Over GF(p) coefficients are ints reduced inline with ``% p``; over Q they
are Fractions. Polynomials with exponent tuples go in and come out.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import count
from operator import itemgetter

from .orders import ExponentOverflow
from .poly import (Packed, PackedRing, Polynomial, block_leading_data,
                   specialize)


class BudgetExceeded(RuntimeError):
    """A configured wall-clock or pair-queue cap was hit; no partial output."""


@dataclass
class Budget:
    """A wall-clock and pair-queue cap for one command. The first `start`
    sets the deadline and later ones keep it, so every Buchberger run of
    the command shares it."""

    ms: float | None = None
    max_pairs: int | None = None
    _deadline: float | None = field(default=None, repr=False)

    def start(self):
        if self.ms is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.ms / 1000.0
        return self

    def check(self, npairs):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded("wall-clock budget exhausted")
        if self.max_pairs is not None and npairs > self.max_pairs:
            raise BudgetExceeded("pair-queue cap exceeded")


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    order: object
    reduced: bool = False

    def lead_monomials(self):
        return [g.lm() for g in self.generators]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def normal_form(f, G, order=None):
    """Remainder of f on full division by G.

    Deterministic reducer selection: G is scanned in ascending order of
    lead monomial and the first divisor wins. On Polynomials the result is
    a Polynomial under `order` (default f's). Inside `buchberger` f and G
    are `Packed` and `order` is their `PackedRing`; the result is `Packed`.
    """
    if isinstance(f, Polynomial):
        R = PackedRing(f.ring, order or f.order)
        return R.unpack(_reduce(R.pack(f), [R.pack(g) for g in G if g], R))
    return _reduce(f, G, order)


def _reduce(f, G, R):
    if not f or not G:
        return f
    layout = R.layout
    guard, rev, from_key = layout.guard, layout.rev, layout.from_key
    table = sorted(map(R.reducer, G), key=itemgetter(0))
    keys = [r[0] for r in table]
    p = R.p
    work = dict(f.terms)
    get = work.get
    heap = [-k for k in work]
    heapify(heap)
    rem = []
    while heap:
        k = -heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        m = from_key(k) if rev else k
        mg = m | guard
        # a lead above m cannot divide it
        for lead_key, lead, slack, tail in table[:bisect_right(keys, k)]:
            if (mg - lead) & guard == guard:  # lead divides m
                if (slack + m) & guard:
                    raise ExponentOverflow()
                q = k - lead_key
                for tk, tc in tail:
                    mk = tk + q
                    s = get(mk)
                    if s is None:
                        work[mk] = -c * tc % p if p else -(c * tc)
                        heappush(heap, -mk)
                    else:
                        s = (s - c * tc) % p if p else s - c * tc
                        if s:
                            work[mk] = s
                        else:
                            del work[mk]
                break
        else:
            rem.append((k, c))
    return Packed(rem)


def s_polynomial(f, g, order=None):
    """S(f, g) = L/lt(f) * f - L/lt(g) * g with L = lcm of the leads.

    On Polynomials the result is a Polynomial under `order` (default f's);
    inside `buchberger` f and g are `Packed` and `order` is their
    `PackedRing`.
    """
    if isinstance(f, Polynomial):
        if not f or not g:
            raise ValueError("s-polynomial of the zero polynomial")
        R = PackedRing(f.ring, order or f.order)
        return R.unpack(_s_poly(R.pack(f), R.pack(g), R))
    return _s_poly(f, g, order)


def _s_poly(f, g, R):
    layout, p = R.layout, R.p
    f_key, f_lead, f_slack, f_tail = R.reducer(f)
    g_key, g_lead, g_slack, g_tail = R.reducer(g)
    L = layout.lcm(f_lead, g_lead)
    if (f_slack + L) & layout.guard or (g_slack + L) & layout.guard:
        raise ExponentOverflow()
    L = layout.key(L)
    # the leading terms cancel
    qf, qg = L - f_key, L - g_key
    work = {k + qf: c for k, c in f_tail}
    for k, c in g_tail:
        k += qg
        s = work.get(k)
        if s is None:
            work[k] = -c % p if p else -c
        else:
            s = (s - c) % p if p else s - c
            if s:
                work[k] = s
            else:
                del work[k]
    return Packed(sorted(work.items(), reverse=True))


def _update_pairs(leads, pairs, h, layout, serial):
    """Gebauer-Moeller update of the pair set when a polynomial with packed
    lead h joins a basis with packed leads `leads`.

    A pair is (selection key, serial number, i, j, packed lcm). The
    selection key orders pairs by lcm degree, then by the monomial order;
    the serial number keeps creation order among equal keys, which is the
    pair list's order, so ``min(pairs)`` is the first pair of least key.
    """
    t = len(leads)
    guard = layout.guard
    lcms = [layout.lcm(g, h) for g in leads]
    seen = {}
    for i, L in enumerate(lcms):
        # drop L when another candidate lcm properly divides it
        Lg = L | guard
        if not any((Lg - Lj) & guard == guard and Lj != L for Lj in lcms):
            # among equal lcms keep a single representative (criterion F)
            seen.setdefault(L, i)
    new_pairs = []
    for L, i in seen.items():
        # Buchberger's coprimality criterion
        if L == leads[i] + h:
            continue
        sel = (layout.degree(L) << layout.bits) + layout.key(L)
        new_pairs.append((sel, next(serial), i, t, L))
    # prune old pairs via the chain criterion
    surviving = [pair for pair in pairs
                 if not ((pair[4] | guard) - h) & guard == guard
                 or lcms[pair[2]] == pair[4] or lcms[pair[3]] == pair[4]]
    return surviving + new_pairs


def buchberger(gens, order=None, budget=None):
    """Groebner basis of the ideal generated by `gens`.

    Pair selection follows the normal strategy: smallest lcm degree first,
    ties broken by the monomial order. The run is in packed form; the
    basis comes back as Polynomials.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("no nonzero generators")
    order = order or gens[0].order
    budget = (budget or Budget()).start()
    R = PackedRing(gens[0].ring, order)
    serial = count()
    G = []
    leads = []
    pairs = []

    def add(h):
        if h:
            h = R.primitive(h)
            lead = R.reducer(h)[1]
            pairs[:] = _update_pairs(leads, pairs, lead, R.layout, serial)
            G.append(h)
            leads.append(lead)

    for f in gens:
        add(normal_form(R.pack(f), G, R))
    while pairs:
        budget.check(len(pairs))
        best = min(pairs)
        pairs.remove(best)
        _, _, i, j, _ = best
        add(normal_form(s_polynomial(G[i], G[j], R), G, R))
    return GroebnerBasis(tuple(map(R.unpack, G)), order)


def _lead_key(g):
    return g.terms[0][0]


def reduce_basis(gb):
    """The unique reduced Groebner basis of the same ideal."""
    order = gb.order
    polys = [g for g in gb.generators if g]
    if not polys:
        return GroebnerBasis((), order, reduced=True)
    R = PackedRing(polys[0].ring, order)
    divides = R.layout.divides
    # minimalize: drop generators whose lead is divisible by another lead
    minimal = []
    for g in sorted(map(R.pack, polys), key=_lead_key):
        lead = R.reducer(g)[1]
        if not any(divides(R.reducer(h)[1], lead) for h in minimal):
            minimal = [h for h in minimal if not divides(lead, R.reducer(h)[1])]
            minimal.append(g)
    # tail-reduce until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            r = normal_form(minimal[i], others, R)
            if r.terms != minimal[i].terms:
                minimal[i] = r
                changed = True
    reduced = sorted(map(R.monic, minimal), key=_lead_key, reverse=True)
    return GroebnerBasis(tuple(map(R.unpack, reduced)), order, reduced=True)


def reduced_groebner_basis(gens, order=None, budget=None):
    return reduce_basis(buchberger(gens, order, budget))


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    survivors: tuple  # 0-based indices into the basis, empty when unstable


def stability_check(gb, point):
    """Kalkbrener-style specialization test for an inverse-block basis.

    Splits the basis by whether the block leading coefficient survives
    specialization at `point`, that is whether the block-lead x-monomial
    is still a term of the specialized member (its coefficient there is
    the block leading coefficient evaluated at `point`); the verdict is
    stable when every vanished member specializes into the ideal of the
    survivors.
    """
    order = gb.order
    main_order = getattr(order, "main_order", order)
    gens = list(gb.generators)
    if not gens:
        return StabilityVerdict(True, ())
    if gens[0].ring.nparams == 0:
        return StabilityVerdict(True, tuple(range(len(gens))))
    survivors = []
    sG = []
    vanished = []
    for idx, g in enumerate(gens):
        lm, _ = block_leading_data(g, main_order)
        sg = specialize(g, point)
        if lm in sg.as_dict():
            survivors.append(idx)
            sG.append(sg)
        else:
            vanished.append(sg)
    for sg in vanished:
        if normal_form(sg, sG, main_order):
            return StabilityVerdict(False, ())
    return StabilityVerdict(True, tuple(survivors))
