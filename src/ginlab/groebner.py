"""Buchberger's algorithm with Gebauer-Moeller pair elimination.

The kernel is generic over the coefficient field and the monomial order,
so the same code runs ground-field computations and parametric runs in
k[t, x] under an inverse block order. Over the rationals every basis
element is kept primitive (integer coefficients, content stripped, lc > 0)
to control coefficient growth.

The kernel works in packed form (`poly.PackedRing`, `orders.Layout`): a
term is (order key, int coefficient), so products add keys, the heap and
pair selection compare ints, and divisibility is one guard-bit test. A
product whose exponent or degree would outgrow its field raises
`orders.ExponentOverflow` first. Polynomials go in and come out.

Coefficients are ints in both fields, in one reduction loop: reduced
with ``% p`` over GF(p), and over Q fraction-free (pseudo-division;
Cox-Little-O'Shea, "Ideals, Varieties, and Algorithms", and
Geddes-Czapor-Labahn, "Algorithms for Computer Algebra", ch. 2; see
`PackedRing`). Over Q an S-polynomial cross-multiplies the two tails by
b/h and a/h, with h = gcd(a, b); over GF(p) the reducers' tails are
monic, and go in unscaled. Every scaling is a nonzero constant, so the
basis, and every count of pairs and normal forms, are the same as over
Fractions, and unpacking divides by the accumulated multiplier
(`poly.Packed.den`). The S-polynomial reaches `normal_form` as the dict
its terms were summed in, unsorted, and `normal_form` works in a dict:
between the two, the terms are neither sorted nor rebuilt.

The run's bookkeeping is incremental: the reducer table (`_Reducers`)
takes one `bisect` insertion per new element, and new pairs pass
Gebauer-Moeller's criteria (Gebauer-Moeller, "On an installation of
Buchberger's algorithm", J. Symbolic Comput. 6, 1988; `_update_pairs`).
Each pair's lcm is made once, from the quotient the criteria read, and
its selection key carries the lcm degree above the order key, so the
selection and the Hilbert rule below read a pair's degree with one shift.
The returned `GroebnerBasis` unpacks its elements only when `generators`
is read, so the gin routes, which read the leads and the Hilbert
numerator, unpack nothing.

Division keeps its heap small (Monagan-Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007) by
two zones. A lead divides only keys at least its own, as key(lead * q) =
key(lead) + key(q), so a term below the least lead key of the table is
irreducible. `normal_form` heaps only the keys at or above it; the rest
stay in the working dict, where a rescaling over Q reaches them, and
join the remainder in one sort when the heap is empty. Every key popped
is larger than all of them, so the remainder, the reducers chosen and
the step count are those of one heap over every term. In lex gins most
remainder terms lie below that key.

The Hilbert count. Let x = x_1..x_n be the run's main variables: the
main block of an inverse block order under `buchberger`'s
`stop_at_gin`, and every variable of the ring otherwise. Let every
generator be homogeneous in x of x-degree >= 1, with x-degrees
d_1..d_s, and let K be the field of the other variables' rational
functions, K = k(t), or K = k when x is every variable. Let I_K be the
ideal the generators span in S = K[x], and H the bracket series of
d_1..d_s in n variables, H = |prod(1 - t^d_i) / (1 - t)^n|, where |.|
zeroes every coefficient from the first non-positive one on.
Froeberg's inequality (R. Froeberg, "An inequality for Hilbert series
of graded algebras", Math. Scand. 56, 1985): for forms f_1..f_s of
degrees d_1..d_s over any field K,

    HS(S/(f_1, ..., f_s)) >= |prod(1 - t^d_i) / (1 - t)^n|

in the lexicographic order of power series: the two are equal, or in
the first degree where they differ the left side is larger. The field
may be any field, finite ones included: the proof uses only the exact
sequence 0 -> (0 : f)(-d) -> A(-d) -> A -> A/fA -> 0, which gives
HS(A/fA) >= (1 - t^d) HS(A) coefficientwise, and facts about |.| such
as |(1 - t^d) a| >= |(1 - t^d) b| whenever a >= b lexicographically.

The run keeps the Hilbert numerator of J, the ideal of the x-parts of
its leads (the x-leads; with x every variable, J = in(G)), up to date
as leads join, one colon ideal per lead (Bayer-Stillman; Bigatti,
"Computation of Hilbert-Poincare series", JPAA 1997), so each check
reads one coefficient (see `_HilbertCount`). Input that is not
homogeneous in x, or that has a generator constant in x, runs without
the count.

The stop. The run ends its pair loop as soon as HS(S/J) = H. That is
sound:

- The x-lead of any g in I is its lead in K[x]: the main part decides
  the order first, so the lead term of g carries the largest x-monomial
  of g. Every element of the run lies in I, so J is contained in
  in(I_K).
- Hence HF(S/J) >= HF(S/in I_K) coefficientwise.
- HF(S/in I_K) = HF(K[x]/I_K) >= H lexicographically: Froeberg's
  inequality, over the field K.
- If HS(S/J) = H, then HF(S/in I_K) <= H in every degree and >= H
  lexicographically, so it equals H in every degree. J is contained in
  in(I_K) with the same Hilbert function, so J = in(I_K): with K = k,
  the leads of G generate in(I) and G is a Groebner basis; under
  `stop_at_gin`, J is the gin (`generic.gin_parametric`).
- If the series never match, the run is exactly the full run.

Hilbert-driven pair elimination, when x is every variable. `buchberger`
takes pairs in nondecreasing lcm degree. Before a pair of degree d it
checks HF(S/in G)_e = H_e for every completed degree e < d, including
degrees without pairs, and drops all remaining degree-d pairs when also
HF(S/in G)_d = H_d. That is sound: in(G) is contained in in(I), so
HF(S/in G) >= HF(S/in I) = HF(S/I) in every degree; if HF(S/I) first
left H in a degree e <= d, it would be larger than H_e by the
inequality, and so would HF(S/in G)_e. Hence in(G) and in(I) agree
through degree d, and every dropped pair would have reduced to zero. The
basis is the same list, and only reductions to zero are skipped. The
first completed degree with HF(S/in G)_e != H_e switches the rule off,
and the count with it, for the rest of the run: in(G)_e = in(I)_e
there, so HF(S/I) != H. A run whose count held to the end returns its
numerator as `GroebnerBasis.hilbert_numerator`: HF(S/I) equals H in
every degree iff it equals `series.bracket_numerator` (the u-check of
`generic.is_u_generic`).

No pair is dropped by degree under `stop_at_gin`: pairs are selected by
total degree in k[t, x], not by x-degree, and over k[t] a pair left out
need not reduce to zero. So the result's x-leads generate in(I_K), but
its elements need not be a Groebner basis of I in k[t, x].
"""

from __future__ import annotations

import time
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import compress, count, zip_longest
from math import gcd
from operator import itemgetter

from .ideals import _minimal, _numerator, _poly_trim, packed_ideal
from .orders import FIELD_BITS, ExponentOverflow
from .poly import Packed, PackedRing
from .series import bracket_numerator


class BudgetExceeded(RuntimeError):
    """A configured wall-clock or pair-queue cap was hit; no partial output."""


class Budget:
    """A wall-clock and pair-queue cap for one command. The deadline is
    fixed when the budget is made, `ms` milliseconds on, and never moves,
    so every Buchberger run given the budget shares it."""

    def __init__(self, ms=None, max_pairs=None):
        self.max_pairs = max_pairs
        self._deadline = (None if ms is None
                          else time.monotonic() + ms / 1000.0)

    def check(self, npairs):
        self.check_time()
        if self.max_pairs is not None and npairs > self.max_pairs:
            raise BudgetExceeded("pair-queue cap exceeded")

    def check_time(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded("wall-clock budget exhausted")


class GroebnerBasis:
    """A Groebner basis: the nonzero packed elements `packed` of a run of
    `buchberger` or `reduce_basis` in the `PackedRing` R.
    `initial_ideal()` is J = in(G) in all n variables, or under
    `stop_at_gin` the ideal of the x-leads in the n main ones: `main` is
    the pair (layout of the main block, shift of its fields) that
    `orders.InverseBlock.main_part` gives, by default the ring's own
    layout and 0. `hilbert_numerator` is N(t) with HS(S/J) = N(t) /
    (1 - t)^n, kept by the Hilbert count of `buchberger`. It is None
    when the input did not allow the count or the count switched off.

    `generators`, and iteration, unpack the elements into Polynomials on
    first access, once. `len()`, `initial_ideal()` and `reduce_basis` read
    the packed elements, so a caller that reads only the initial ideal
    and the Hilbert numerator never unpacks.
    """

    __slots__ = ("hilbert_numerator", "_generators", "_ring", "_packed",
                 "_main")

    def __init__(self, R, packed, hilbert_numerator=None, main=None):
        self.hilbert_numerator = hilbert_numerator
        self._generators = None
        self._ring, self._packed = R, packed
        self._main = main or (R.layout, 0)

    @property
    def generators(self):
        if self._generators is None:
            self._generators = tuple(map(self._ring.unpack, self._packed))
        return self._generators

    def initial_ideal(self):
        """J, the `MonomialIdeal` of the leads, or of their x-parts under
        `stop_at_gin`, whose Hilbert numerator the run keeps."""
        main, low = self._main
        from_key = self._ring.layout.from_key
        return packed_ideal(main, (from_key(_lead_key(g)) >> low
                                   for g in self._packed))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self._packed)


class _Reducers:
    """The reducer table of a packed basis: its elements' reducer entries
    (`PackedRing.reducer`) sorted by lead key, and the keys alone for
    `bisect`. `add` inserts the entry of one more element after any equal
    key, so the table grown one element at a time equals the table sorted
    afresh."""

    __slots__ = ("entries", "keys")

    def __init__(self, R, G=()):
        self.entries = sorted(map(R.reducer, G), key=itemgetter(0))
        self.keys = [e[0] for e in self.entries]

    def add(self, entry):
        i = bisect_right(self.keys, entry[0])
        self.keys.insert(i, entry[0])
        self.entries.insert(i, entry)


def normal_form(f, reducers, R, budget=None):
    """Remainder of the packed f of the `PackedRing` R on full division
    by the reducer table `reducers` (`_Reducers`) of a packed basis.

    Deterministic reducer selection: the table is scanned in ascending
    order of lead monomial and the first divisor wins. Over Q the result
    is the remainder times a nonzero constant (see `PackedRing`). A
    `budget`'s deadline is checked every 1024 reduction steps, and at
    every rescaling over Q, which costs O(terms) itself. Only the terms
    at or above the least lead key pass through the heap (see the module
    docstring).

    f's terms are read in any order: a list of (key, coefficient) pairs
    or a dict from key to coefficient, as `s_polynomial` makes them. The
    remainder comes back in descending order, as every `Packed` does.
    """
    if not f:
        return f
    table, keys = reducers.entries, reducers.keys
    work = dict(f.terms)
    if not keys:
        return Packed(sorted(work.items(), reverse=True), f.den)
    layout = R.layout
    guard, rev, from_key = layout.guard, layout.rev, layout.from_key
    p = R.p
    den = f.den
    least = keys[0]
    get = work.get
    heap = [-k for k in work if k >= least]
    heapify(heap)
    rem = []
    steps = 0
    while heap:
        k = -heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        m = from_key(k) if rev else k
        mg = m | guard
        # a lead above m cannot divide it
        for lead_key, lead, slack, tail, a in table[:bisect_right(keys, k)]:
            if (mg - lead) & guard == guard:  # lead divides m
                if (slack + m) & guard:
                    raise ExponentOverflow()
                steps += 1
                if not steps & 1023 and budget is not None:
                    budget.check_time()
                if a != 1:
                    # over Q: after scaling by a / g the term is (c / g) * a
                    g = gcd(a, c)
                    c //= g
                    if a != g:
                        if budget is not None:
                            budget.check_time()
                        s = a // g
                        for mk in work:
                            work[mk] *= s
                        rem = [(rk, rc * s) for rk, rc in rem]
                        den *= s
                q = k - lead_key
                for tk, tc in tail:
                    mk = tk + q
                    s = get(mk)
                    if s is None:
                        work[mk] = -c * tc % p if p else -(c * tc)
                        if mk >= least:
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
    # what is left lies below every lead, and below every key popped
    rem += sorted(work.items(), reverse=True)
    return Packed(rem, den)


def s_polynomial(f, g, R, L):
    """S(f, g) = L/lt(f) * f - L/lt(g) * g of packed f and g of the
    `PackedRing` R, L the packed lcm of the leads, which the pair holds
    (`_update_pairs`). With integer leading coefficients a, b and h =
    gcd(a, b) it is (b/h * L/lead(f) * tail(f) - a/h * L/lead(g) *
    tail(g)) / (a*b/h); over GF(p) a = b = 1, and the tails go in
    unscaled. The terms come as the dict they were summed in, unsorted,
    for `normal_form` to take as they are."""
    layout, p = R.layout, R.p
    f_key, _, f_slack, f_tail, a = R.reducer(f)
    g_key, _, g_slack, g_tail, b = R.reducer(g)
    if (f_slack + L) & layout.guard or (g_slack + L) & layout.guard:
        raise ExponentOverflow()
    L = layout.key(L)
    # the leading terms cancel
    qf, qg = L - f_key, L - g_key
    if p:
        work = {k + qf: c for k, c in f_tail}
        for k, c in g_tail:
            k += qg
            s = work.get(k)
            if s is None:
                work[k] = p - c
            elif s != c:
                work[k] = (s - c) % p
            else:
                del work[k]
        return Packed(work)
    h = gcd(a, b)
    a, b = a // h, b // h
    work = {k + qf: c * b for k, c in f_tail}
    for k, c in g_tail:
        k += qg
        c *= a
        s = work.get(k)
        if s is None:
            work[k] = -c
        elif s != c:
            work[k] = s - c
        else:
            del work[k]
    return Packed(work, a * b * h)


def _colon(leads, h, layout):
    """The quotients q_i = leads[i] / gcd(leads[i], h) of packed monomials
    of `layout`, degree fields zero, made in one pass over the exponent
    fields, and the minimal ones among them (ascending): the minimal
    generators of (leads) : h. It is the unit ideal, 0 the first of them,
    iff some lead divides h."""
    guard, emask = layout.guard, layout.exponent_mask
    quotients = []
    for g in leads:
        # g - h in the fields where g >= h: each guard bit stays set there
        d = (g | guard) - h
        ge = d & guard
        quotients.append(d & (ge - (ge >> (FIELD_BITS - 1))) & emask)
    return quotients, _minimal(set(quotients), guard)


def _update_pairs(leads, pairs, h, layout, serial):
    """Gebauer-Moeller update of the pair set when a polynomial with packed
    lead h joins a basis with packed leads `leads`; it also returns the
    minimal generators of (leads) : h (see `_colon`).

    A pair is (sel, serial number, i, j, L), L the packed lcm and sel =
    ``(deg(L) << layout.bits) + key(L)``. The selection key sel orders
    pairs by lcm degree, then by the monomial order, and ``sel >>
    layout.bits`` reads deg(L) back, as 0 <= key(L) < 2**layout.bits:
    - key(L) <= L < 2**bits, as the key only subtracts;
    - key(L) >= 0: only a graded block reverses its exponent fields
      (degrevlex; see `orders.SingleBlock`), and there they lie below the
      block's degree field D and are each at most D. So a block of degree
      0 adds 0 to the key, and one of degree D >= 1, with w bits below its
      degree field, adds at least D * 2**w - (2**w - 1) > 0 times its
      lowest field's weight, as its reversed fields together hold less
      than 2**w.
    The serial number keeps creation order among equal keys, which is the
    pair list's order, so ``min(pairs)`` is the first pair of least key.

    The criteria read the quotients q_i of `_colon`: lcm(g, h) = h q, so
    lcms divide or equal as quotients do, and the lcm is h + q with q's
    block degrees added to h's degree fields. Criterion M keeps only the
    minimal ones, found by the ascending scan of `ideals._minimal`; the
    first index of an lcm stands for all (criterion F). Only the lcm of a
    pair that also passes Buchberger's coprimality criterion gets its
    degree fields, so only it can raise `ExponentOverflow`.
    """
    t = len(leads)
    guard, emask, bits = layout.guard, layout.exponent_mask, layout.bits
    quotients, colon = _colon(leads, h, layout)
    minimal = set(colon)
    new_pairs = []
    for i, q in enumerate(quotients):
        if q in minimal:
            minimal.remove(q)
            # Buchberger's coprimality criterion: gcd 1 iff q = leads[i]
            if q != leads[i] & emask:
                L = h + q + layout.block_degrees(q)
                if L & guard:
                    raise ExponentOverflow()
                sel = (layout.degree(L) << bits) + layout.key(L)
                new_pairs.append((sel, next(serial), i, t, L))
    # prune old pairs via the chain criterion
    surviving = [pair for pair in pairs
                 if not ((pair[4] | guard) - h) & guard == guard
                 or quotients[pair[2]] == (pair[4] - h) & emask
                 or quotients[pair[3]] == (pair[4] - h) & emask]
    return surviving + new_pairs, colon


class _HilbertCount:
    """HF(S/J) against the bracket series H while monomials join J, the
    ideal of the x-leads of G (see the module docstring). It counts on
    `layout`: the run's, where x is every variable, or the main block's.

    Both are series over (1 - t)^n with polynomial numerators; `excess`
    is the numerator of HS(S/J) - H. As (1 - t)^n is a unit of Z[[t]]
    with constant term 1, HF(S/J)_e = H_e for every e <= d iff excess_e =
    0 for every e <= d: the series first differ where `excess` is first
    nonzero. Adding a monomial m to J subtracts t^deg(m) N(J : m) from
    the numerator of J; if m is in J already, J : m is the unit ideal,
    whose numerator is 0. `_colon` gives the minimal generators of J : m,
    packed, so they go straight to `ideals._numerator`, the pivot
    recursion, with no second minimalization.
    """

    def __init__(self, layout, degrees):
        self.layout = layout
        self.expected = bracket_numerator(layout.nvars, degrees)
        self.excess = [-c for c in self.expected]
        self.excess[0] += 1  # the numerator of S/(0) is 1

    def add(self, colon, m):
        """Account for m joining J, `colon` being the minimal packed
        generators of J : m."""
        sub = _numerator(frozenset(colon), self.layout, {})
        excess = self.excess
        d = self.layout.degree(m)
        excess.extend([0] * (d + len(sub) - len(excess)))
        for i, c in enumerate(sub, d):
            excess[i] -= c

    def first_difference(self):
        """The least degree e with HF(S/J)_e != H_e, or None."""
        return next(compress(count(), self.excess), None)

    def numerator(self):
        """The Hilbert numerator of S/J, without trailing zeros."""
        return tuple(_poly_trim([a + b for a, b in zip_longest(
            self.excess, self.expected, fillvalue=0)]))


def _x_degree(g, nmain):
    """The degree of g in its first `nmain` variables if every term has
    the same one, else None."""
    degrees = {sum(m[:nmain]) for m, _ in g.terms}
    return degrees.pop() if len(degrees) == 1 else None


def buchberger(gens, order=None, budget=None, *, stop_at_gin=False):
    """Groebner basis of the ideal generated by `gens`, a nonempty list;
    a list of zero polynomials generates the zero ideal, whose basis is
    empty.

    Pair selection follows the normal strategy: smallest lcm degree first,
    ties broken by the monomial order. When every generator is
    homogeneous of degree >= 1, the run ends as soon as the bracket
    series certifies its leads, the pairs of a degree that the series
    proves complete are dropped unreduced, and the basis carries the
    Hilbert numerator of its initial ideal (see the module docstring);
    the basis is the same either way. The run is in packed form; the
    basis comes back as Polynomials.

    `stop_at_gin` is for an `orders.InverseBlock` order: when every
    generator is homogeneous of degree >= 1 in the main variables, the
    run ends as soon as the main-block parts of its leads (the x-leads)
    certify the initial ideal of the ideal over the fraction field of the
    parameters (see the module docstring). The result's x-leads then
    generate that initial ideal, but its elements need not be a Groebner
    basis in k[t, x]. Without the certificate the run is the full one.
    """
    if not gens:
        raise ValueError("no generators")
    order = order or gens[0].order
    budget = budget or Budget()
    R = PackedRing(gens[0].ring, order)
    layout = R.layout
    gens = [g for g in gens if g]
    # the count's layout, and the shift that takes a lead to its x-part
    main, low = order.main_part(layout) if stop_at_gin else (layout, 0)
    xdegrees = [_x_degree(g, main.nvars) for g in gens]
    # falsy: a generator not homogeneous in x (None) or constant in x (0)
    hilbert = _HilbertCount(main, xdegrees) if all(xdegrees) else None
    serial = count()
    G = []
    leads = []
    xleads = []  # under stop_at_gin: the x-leads so far
    pairs = []
    table = _Reducers(R)

    def add(h):
        if h:
            h = R.primitive(h)
            entry = R.reducer(h)
            lead = entry[1]
            pairs[:], colon = _update_pairs(leads, pairs, lead, layout,
                                            serial)
            if hilbert is not None:
                m = lead >> low
                if low:  # the x-part, against the x-leads so far
                    _, colon = _colon(xleads, m, main)
                    xleads.append(m)
                hilbert.add(colon, m)
            G.append(h)
            leads.append(lead)
            table.add(entry)

    bits = layout.bits
    best, reduced = None, 0
    try:
        for f in gens:
            add(normal_form(R.pack(f), table, R, budget))
        while pairs:
            if hilbert is not None:
                e = hilbert.first_difference()
                if e is None:
                    break
            budget.check(len(pairs))
            best = min(pairs)
            if hilbert is not None and not low:
                d = best[0] >> bits  # the lcm degree (see `_update_pairs`)
                if e < d:
                    hilbert = None
                elif e > d:
                    # no pair is of degree below d: keep those above it
                    above = (d + 1) << bits
                    pairs[:] = [p for p in pairs if p[0] >= above]
                    continue
            pairs.remove(best)
            _, _, i, j, L = best
            add(normal_form(s_polynomial(G[i], G[j], R, L), table, R,
                            budget))
            reduced += 1
    except BudgetExceeded as exc:
        degree = 0 if best is None else best[0] >> bits
        raise BudgetExceeded(
            f"{exc} after {reduced} S-polynomials (basis {len(G)}, "
            f"{len(pairs)} pairs left, degree {degree})") from None
    numerator = None if hilbert is None else hilbert.numerator()
    return GroebnerBasis(R, G, numerator, (main, low))


def _lead_key(g):
    return g.terms[0][0]


def reduce_basis(gb):
    """The unique reduced Groebner basis of the same ideal, reduced from
    the packed elements of `gb` without unpacking."""
    R, G = gb._ring, gb._packed
    # minimalize: the first of equal leads stays, divisible leads go
    first = {}
    for g in G:
        first.setdefault(R.reducer(g)[1], g)
    minimal = sorted(map(first.get, _minimal(first, R.layout.guard)),
                     key=_lead_key)
    # tail-reduce in one pass: the leads never change, so a tail reduced
    # against them stays reduced
    for i in range(len(minimal)):
        others = _Reducers(R, minimal[:i] + minimal[i + 1:])
        minimal[i] = R.primitive(normal_form(minimal[i], others, R))
    reduced = sorted(map(R.monic, minimal), key=_lead_key, reverse=True)
    return GroebnerBasis(R, reduced, gb.hilbert_numerator, gb._main)
