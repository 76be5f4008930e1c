"""Buchberger's algorithm with Gebauer-Moeller pair elimination.

The kernel is generic over the coefficient field and the monomial order,
so the same code runs ground-field computations and parametric runs in
k[t, x] under an inverse block order. Over the rationals intermediate
results are kept primitive (integer coefficients, content stripped) to
control coefficient growth.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from .orders import mono_div, mono_divides, mono_lcm, mono_mul
from .poly import Polynomial, block_leading_data, specialize


class BudgetExceeded(RuntimeError):
    """A configured wall-clock or pair-queue cap was hit; no partial output."""


@dataclass
class Budget:
    ms: float | None = None
    max_pairs: int | None = None
    _deadline: float | None = field(default=None, repr=False)

    def start(self):
        if self.ms is not None:
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


def _neg_key(k):
    if isinstance(k, tuple):
        return tuple(_neg_key(x) for x in k)
    return -k


def s_polynomial(f, g, order=None):
    """S(f, g) = L/lt(f) * f - L/lt(g) * g with L = lcm of the leads."""
    if not f or not g:
        raise ValueError("s-polynomial of the zero polynomial")
    order = order or f.order
    f = f.resorted(order)
    g = g.resorted(order)
    fld = f.ring.field
    L = mono_lcm(f.lm(), g.lm())
    a = f.mul_term(fld.inv(f.lc()), mono_div(L, f.lm()))
    b = g.mul_term(fld.inv(g.lc()), mono_div(L, g.lm()))
    return a - b


def normal_form(f, G, order=None):
    """Remainder of f on full division by G.

    Deterministic reducer selection: G is scanned in ascending order of
    lead monomial and the first divisor wins.
    """
    order = order or f.order
    f = f.resorted(order)
    if not f:
        return f
    divs = sorted((g.resorted(order) for g in G if g), key=lambda g: order.key(g.lm()))
    leads = [(g.lm(), g.lc(), g.terms) for g in divs]
    if not leads:
        return f
    fld = f.ring.field
    zero = fld.zero
    work = dict(f.terms)
    heap = [(_neg_key(order.key(m)), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for gm, gc, gterms in leads:
            q = mono_div(m, gm)
            if q is not None:
                factor = fld.div(c, gc)
                for tm, tc in gterms[1:]:
                    mm = mono_mul(tm, q)
                    s = fld.sub(work.get(mm, zero), fld.mul(factor, tc))
                    if s == zero:
                        work.pop(mm, None)
                    else:
                        if mm not in work:
                            heapq.heappush(heap, (_neg_key(order.key(mm)), mm))
                        work[mm] = s
                break
        else:
            rem[m] = c
    return Polynomial.from_dict(f.ring, order, rem)


def _update_pairs(G, pairs, h, order):
    """Gebauer-Moeller update of the pair set when h joins the basis."""
    t = len(G)
    hm = h.lm()
    # candidate new pairs (i, t)
    lcms = {i: mono_lcm(G[i].lm(), hm) for i in range(t)}
    keep = {}
    for i, L in lcms.items():
        dominated = False
        for j, Lj in lcms.items():
            if j == i:
                continue
            if mono_divides(Lj, L) and Lj != L:
                dominated = True
                break
        if not dominated:
            keep[i] = L
    # among equal lcms keep a single representative (criterion F)
    seen = {}
    for i in sorted(keep):
        L = keep[i]
        if L not in seen:
            seen[L] = i
    new_pairs = []
    for L, i in seen.items():
        # Buchberger's coprimality criterion
        if L == mono_mul(G[i].lm(), hm):
            continue
        new_pairs.append((i, t, L))
    # prune old pairs via the chain criterion
    surviving = []
    for (i, j, L) in pairs:
        if (mono_divides(hm, L)
                and mono_lcm(G[i].lm(), hm) != L
                and mono_lcm(G[j].lm(), hm) != L):
            continue
        surviving.append((i, j, L))
    return surviving + new_pairs


def buchberger(gens, order=None, budget=None):
    """Groebner basis of the ideal generated by `gens`.

    Pair selection follows the normal strategy: smallest lcm degree first,
    ties broken by the monomial order.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("no nonzero generators")
    order = order or gens[0].order
    budget = (budget or Budget()).start()
    G = []
    pairs = []
    for f in gens:
        h = normal_form(f, G, order)
        if h:
            h = h.primitive()
            pairs = _update_pairs(G, pairs, h, order)
            G.append(h)
    while pairs:
        budget.check(len(pairs))
        best = min(range(len(pairs)),
                   key=lambda k: (sum(pairs[k][2]), order.key(pairs[k][2])))
        i, j, _ = pairs.pop(best)
        s = s_polynomial(G[i], G[j], order)
        h = normal_form(s, G, order)
        if h:
            h = h.primitive()
            pairs = _update_pairs(G, pairs, h, order)
            G.append(h)
    return GroebnerBasis(tuple(G), order)


def reduce_basis(gb):
    """The unique reduced Groebner basis of the same ideal."""
    order = gb.order
    G = [g.resorted(order) for g in gb.generators if g]
    # minimalize: drop generators whose lead is divisible by another lead
    G.sort(key=lambda g: order.key(g.lm()))
    minimal = []
    for g in G:
        if not any(mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal = [h for h in minimal if not mono_divides(g.lm(), h.lm())]
            minimal.append(g)
    # tail-reduce until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            r = normal_form(minimal[i], others, order)
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    reduced = tuple(sorted((g.monic() for g in minimal),
                           key=lambda g: order.key(g.lm()), reverse=True))
    return GroebnerBasis(reduced, order, reduced=True)


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
