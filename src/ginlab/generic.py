"""The two routes to the initial ideal of generic homogeneous ideals:
random specialization of coefficient templates, and a single parametric
Groebner run under an inverse block order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from math import comb
from operator import mul

from .fields import QQ, PrimeField
from .groebner import buchberger
from .ideals import MonomialIdeal, _ideal, top_degree
from .orders import DEGLEX, DEGREVLEX, LEX, InverseBlock, mono_divides
from .poly import Polynomial, Ring, xring
from .series import _check_degrees, _lex_monomials, bracket_numerator
from .values import Frozen

GF32003 = PrimeField(32003)
SCHEMA = 1  # the version of the JSON records that ginlab prints


# ---------------------------------------------------------------------------
# deterministic RNG: splitmix64, fixed across platforms and versions

_MASK = (1 << 64) - 1


def _splitmix64(seed):
    """The 64-bit splitmix stream seeded with `seed`: the only randomness
    source in sampling."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


# ---------------------------------------------------------------------------
# templates

class GenericInstance(Frozen):
    n: int
    degrees: tuple
    field: object = QQ
    main_order: object = LEX

    def __post_init__(self):
        # any sequence of degrees, kept as a tuple: the value stays hashable
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if not self.degrees:
            raise ValueError("need at least one generator degree")
        _check_degrees(self.n, self.degrees)

    @property
    def s(self):
        return len(self.degrees)

    @property
    def nparams(self):
        """The number of coefficients of the full templates."""
        return sum(comb(self.n + d - 1, d) for d in self.degrees)

    @property
    def run_order(self):
        """The main order the routes run Buchberger under: `main_order`,
        or LEX for DEGLEX, whose degree pieces are ordered alike. Both
        routes give the same gin under either. An ideal spanned by forms,
        as the sampled templates span theirs, is the sum of its degree
        pieces, and its initial ideal in degree d is spanned by the leads
        of its forms of degree d, which depend only on how the order ranks
        the monomials of degree d: deglex ranks them as lex does. So a
        trial's initial ideal, its Hilbert numerator and its Plucker key
        (`_plucker_key` compares monomials of one degree only) are the same
        under DEGLEX and LEX. The parametric family is homogeneous in x, so
        the same holds of the ideal it spans over k(t) and of its x-leads,
        which the main block orders first (`gin_parametric`). A record
        still names `main_order`."""
        return LEX if self.main_order == DEGLEX else self.main_order

    @cached_property
    def order(self):
        """The inverse block order of the parametric route, `run_order` on
        the main block and degrevlex on the parameters (see
        `gin_parametric`), built once."""
        return InverseBlock(self.run_order, DEGREVLEX, self.n)

    @cached_property
    def monomials(self):
        """Per template degree d: the degree-d monomials in descending main
        order, and for each its position in descending lex, the order in
        which a coefficient point lists them. Sorted once, by one
        layout's keys: a key is linear, the sum of the keys of the
        monomial's variables, each packed once."""
        n, layout = self.n, self.main_order.layout(self.n)
        weights = [layout.key(layout.pack(x))  # of x1, ..., xn
                   for x in _lex_monomials(n, 1)[::-1]]
        out = {}
        for d in set(self.degrees):
            lex = _lex_monomials(n, d)[::-1]  # descending lex
            rank = sorted(range(len(lex)), reverse=True,
                          key=lambda k: sum(map(mul, lex[k], weights)))
            out[d] = ([lex[k] for k in rank], rank)
        return out


def normal_form_family(inst):
    """The generators of the parametric route: one monic generator per
    pivot, with a parameter on each standard monomial after the pivots.

    The degrees are taken in nondecreasing order. For a degree d held by
    k generators, the standard monomials are the degree-d monomials that
    no pivot of a smaller degree divides, in descending main order; the
    first k of them are the pivots of degree d (fewer when fewer exist:
    the missing generators lie in the ideal of the earlier ones and are
    dropped). Each generator is its pivot plus one fresh parameter times
    each standard monomial that is not a pivot; all of those are smaller
    than every pivot of degree d. So within a degree the family is in
    reduced row echelon form, and no term of a generator is divisible by
    the pivot of an earlier generator. Parameters are numbered generator
    by generator and, within one, in descending main order of their
    monomials; `inst.order` ranks them by degrevlex.
    """
    n = inst.n
    pivots, rows = [], []
    for d in sorted(set(inst.degrees)):
        standard = [m for m in inst.monomials[d][0]
                    if not any(mono_divides(p, m) for p in pivots)]
        k = inst.degrees.count(d)
        pivots += standard[:k]
        rows += [(p, standard[k:]) for p in standard[:k]]
    names = list(xring(n, inst.field).names)
    for i, (_, tail) in enumerate(rows):
        names += [f"t{i + 1}_{k + 1}" for k in range(len(tail))]
    nparams = len(names) - n
    ring = Ring(inst.field, tuple(names))
    one = inst.field.of(1)
    out = []
    offset = 0
    for pivot, tail in rows:
        # already descending: the main part decides, and the pivot comes
        # before the tail's monomials, which are in descending main order
        terms = [(pivot + (0,) * nparams, one)]
        for k, m in enumerate(tail):
            t = [0] * nparams
            t[offset + k] = 1
            terms.append((m + tuple(t), one))
        out.append(Polynomial(ring, inst.order, terms))
        offset += len(tail)
    return out


# ---------------------------------------------------------------------------
# sampling route

def sample_point(inst, seed, bound=None):
    """The coefficient point for one trial: nonzero integers in
    [-bound, bound], drawn by a splitmix64 stream seeded with `seed`."""
    if bound is None:
        bound = inst.field.char - 1 if inst.field.char else 99
    if bound < 1:
        raise ValueError("coefficient bound must be >= 1")
    span = 2 * bound
    draws = islice(_splitmix64(seed), inst.nparams)
    # uniform over the nonzero integers in [-bound, bound]
    return tuple(u - bound if u < bound else u - bound + 1
                 for u in (z % span for z in draws))


def ideal_at_point(inst, point):
    """Specialize the templates at an explicit coefficient point."""
    if len(point) != inst.nparams:
        raise ValueError(f"point needs {inst.nparams} coordinates")
    ring = xring(inst.n, inst.field)
    of = inst.field.of
    out = []
    offset = 0
    for d in inst.degrees:
        # the terms in descending main order, as `Polynomial` takes them
        monos, rank = inst.monomials[d]
        coeffs = map(of, map(point[offset:offset + len(monos)].__getitem__,
                             rank))
        out.append(Polynomial(ring, inst.main_order,
                              [(m, c) for m, c in zip(monos, coeffs) if c]))
        offset += len(monos)
    return out


def sample_ideal(inst, seed, bound=None):
    return ideal_at_point(inst, sample_point(inst, seed, bound))


def is_u_generic(gb, inst):
    """Compare the Hilbert series of a sampled ideal with the bracket
    series of `inst`, in every degree.

    `gb` is the ideal's Groebner basis from `buchberger`, which keeps the
    Hilbert numerator of its initial ideal (HS(S/I) = HS(S/in I)); the
    series agree iff that numerator equals `series.bracket_numerator`. A
    basis without a numerator comes from a run whose Hilbert function
    left the bracket series in a completed degree, so it does not match.

    Returns "yes" on a match, for every s, and "no" otherwise. A match
    proves that the generic Hilbert series is the bracket series H, in
    the characteristic of `inst.field`:

    - Macaulay ranks are lower semicontinuous, so the generic Hilbert
      function is coefficientwise <= that of any point;
    - Froeberg's inequality makes it >= H lexicographically;
    - so a point whose series is H leaves the generic series only H.
    """
    expected = tuple(bracket_numerator(inst.n, inst.degrees))
    return "yes" if gb.hilbert_numerator == expected else "no"


# ---------------------------------------------------------------------------
# results

class GinResult(Frozen):
    ideal: MonomialIdeal
    route: str  # "sampling" | "parametric"
    inst: GenericInstance
    seeds: tuple = ()
    agreement: int | None = None
    u_generic: tuple = ()

    def to_json(self):
        inst = self.inst
        out = {
            "schema": SCHEMA,
            "n": inst.n,
            "s": inst.s,
            "degrees": list(inst.degrees),
            "order": inst.main_order.name,
            "route": self.route,
            "ideal": self.ideal.to_json(),
            "field": inst.field.name,
        }
        if self.route == "sampling":
            out["seeds"] = list(self.seeds)
            out["agreement"] = self.agreement
            out["u_generic"] = list(self.u_generic)
        return out


def trial_seeds(seed, trials):
    """The per-trial sampling seeds that `seed` and `trials` determine."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return tuple(islice(_splitmix64(seed), trials))


def _plucker_key(J, order):
    """J's key in the Plucker order of `order`: per degree, the number of
    its minimal generators, then their order keys in descending order."""
    layout = order.layout(J.n)
    keys = [[] for _ in range(top_degree(J) + 1)]
    for g in J.gens:
        keys[sum(g)].append(layout.key(layout.pack(g)))
    return [(len(k), sorted(k, reverse=True)) for k in keys]


def _section(gens, ring):
    """The forms `gens` at x_{k+1} = ... = x_n = 0, in `ring`, the ring of
    x_1..x_k, under DEGREVLEX: the terms that use a dropped variable are
    dropped, and the rest keep their descending order, since degrevlex
    ranks monomials without x_{k+1}..x_n as it ranks them in k variables."""
    k = ring.nvars
    return [Polynomial(ring, DEGREVLEX,
                       [(m[:k], c) for m, c in f.terms if not any(m[k:])])
            for f in gens]


def gin_by_sampling(inst, trials=5, seed=0, bound=None, budget=None):
    """The largest initial ideal of sampled trials in the Plucker order
    (`_plucker_key`), and the number of trials that reached it.

    Each trial reads its initial ideal off the packed leads of one
    Groebner basis (any Groebner basis has the same leading ideal) and its
    u-genericity verdict off the Hilbert numerator the same run kept.

    Every trial's initial ideal is at most the gin in that order, over
    any field (GF(p) included, where the gin is the char-p one), so a
    trial that reaches the gin is selected, and two distinct ideals never
    tie:

    - Two keys, compared as lists, first differ at the lowest degree
      where the ideals' minimal generators differ. There the larger
      count wins, and on equal counts the first key that differs in the
      descending lists is the largest monomial of the symmetric
      difference: the ideal that holds it wins.
    - I_{a,d}, the degree-d part of the ideal at the point a, is the row
      space of the multiplication matrix M_d(a), whose columns are the
      degree-d monomials in descending order and whose entries are linear
      in a. in(I_a)_d is the set of its echelon pivot columns: the first
      column subset, in column order, of size rank M_d(a) that has full
      rank.
    - Let e be the lowest degree where in(I_a) and the gin differ; below
      e their degree pieces agree, so their degree-e pieces differ
      exactly as their degree-e minimal generators do.
    - rank M_e(a) is at most the generic rank, which the gin's points
      attain. If it is below, the gin has more degree-e generators.
    - If the ranks are equal, the minor of M_e(a) on the columns of
      in(I_a)_e is a nonzero polynomial in the coefficients. It is
      nonzero on an open set, which meets the open set where the gin is
      the initial ideal (Bayer-Stillman 1987; Eisenbud, Commutative
      Algebra, section 15.9). There the first full-rank column subset
      is gin_e, so gin_e comes first in column order: it holds the
      largest monomial of the symmetric difference.

    The section. Under DEGREVLEX with s < n, a trial first runs on its
    own forms at x_{s+1} = ... = x_n = 0 (`_section`), s forms in s
    variables. When that run passes the u-check, the trial's ideal is the
    section's initial ideal with n - s zero exponents appended, and its
    label is "yes"; otherwise the trial runs on its n-variable forms, as
    if there were no section. Each trial gives the ideal and the label of
    its full run, over any field and at every point, not only at a
    generic one. Let F be the field, I_k, in S_k = F[x_1..x_k], the ideal
    of the trial's forms at x_{k+1} = ... = x_n = 0, and H_k =
    prod(1 - t^d_i) / (1 - t)^k, for s <= k <= n; for such k the bracket
    series is H_k with nothing truncated, and `bracket_numerator(n, d)` =
    `bracket_numerator(s, d)` = prod(1 - t^d_i).

    - The section passes the u-check iff HS(S_s/I_s) = H_s. Take k > s,
      and assume HS(S_{k-1}/I_{k-1}) = H_{k-1} = (1 - t) H_k.
    - S_k/(I_k + (x_k)) is S_{k-1}/I_{k-1}, so the exact sequence
      0 -> ((I_k : x_k)/I_k)(-1) -> (S_k/I_k)(-1) -> S_k/I_k
      -> S_{k-1}/I_{k-1} -> 0, the middle map multiplication by x_k,
      gives (1 - t) D = -t K, where D = HS(S_k/I_k) - H_k and
      K = HS((I_k : x_k)/I_k) >= 0 coefficientwise. So
      D = -t K / (1 - t) <= 0 coefficientwise.
    - Froeberg's inequality, over any field (the `groebner` docstring),
      makes D >= 0 lexicographically. So D = 0, hence K = 0: x_k is a
      nonzerodivisor on S_k/I_k.
    - Under degrevlex, with x_k the last variable, in(I_k : x_k) =
      in(I_k) : x_k and in(I_k + (x_k)) = in(I_k) + (x_k) (Eisenbud,
      Commutative Algebra, Prop. 15.12). With I_k : x_k = I_k, a minimal
      generator of in(I_k) that x_k divided would be a multiple of its
      quotient by x_k, which lies in in(I_k) : x_k = in(I_k); so none
      uses x_k. The monomials of in(I_k) + (x_k) without x_k are those of
      in(I_{k-1}): degrevlex ranks a monomial that x_k divides below
      every monomial of its degree that x_k does not, so a form of
      I_k + (x_k) whose lead x_k does not divide has the lead of its
      value at x_k = 0, which lies in I_{k-1}; and every form of I_{k-1}
      lies in I_k + (x_k). So in(I_k) has the minimal generators of
      in(I_{k-1}).
    - By induction over k, in(I_n) has the minimal generators of
      in(I_s), and HS(S_n/I_n) = H_s / (1 - t)^(n - s) = H_n, so the full
      run's label is "yes" too. A trial whose section fails the u-check
      is its full run. So every trial gives the ideal and the label of
      its full run, and the selection, `agreement` and `u_generic` are
      unchanged.
    """
    n, s, order = inst.n, inst.s, inst.run_order
    section = xring(s, inst.field) if order == DEGREVLEX and s < n else None
    pad = (0,) * (n - s)
    seeds = trial_seeds(seed, trials)
    ideals = []
    flags = []
    for t in seeds:
        gens = sample_ideal(inst, t, bound)
        if section is not None:
            gb = buchberger(_section(gens, section), order, budget)
            if is_u_generic(gb, inst) == "yes":
                ideals.append(_ideal(n, tuple(g + pad for g in
                                              gb.initial_ideal().gens)))
                flags.append("yes")
                continue
        gb = buchberger(gens, order, budget)
        ideals.append(gb.initial_ideal())
        flags.append(is_u_generic(gb, inst))
    best = ideals[0]
    if len(set(ideals)) > 1:  # the key runs only when the trials disagree
        best = max(set(ideals), key=lambda J: _plucker_key(J, order))
    return GinResult(best, "sampling", inst, seeds=seeds,
                     agreement=ideals.count(best), u_generic=tuple(flags))


def gin_parametric(inst, budget=None):
    """Initial ideal of generic ideals from one Groebner run over k[t, x]
    with the main order dominant and degrevlex on the parameters as
    tie-break.

    The run starts from `normal_form_family(inst)`, not from the full
    templates (one parameter per monomial), and has the same answer:

    - Let A be the space of coefficient points of the full templates.
      The gin is in(I_a) for every point a of a nonempty Zariski-open
      U in A (Bayer-Stillman 1987; Eisenbud, Commutative Algebra,
      section 15.9).
    - Map a point a to the family: divide each of its generators, in
      nondecreasing degree, by the family members built before it; the
      remainder lies in the span of the standard monomials. Then bring
      the remainders of one degree to reduced row echelon form, dropping
      the zero rows. Division by the earlier members is a linear
      projection onto the standard span. It is onto, and it is the
      identity on the family. The echelon step gives a family point
      phi(a) wherever the remainders have full rank on the pivot
      columns, which is an open V in A holding the whole family. Every
      step is an invertible change of generators, so I_phi(a) = I_a.
    - By Groebner stability, in(I_b) equals the initial ideal J of the
      family's generic member (the one this run computes) for every b
      in a nonempty open W of the family. phi^-1(W) is open in A and
      nonempty, since it contains W. A is irreducible, so U meets
      phi^-1(W); at a point a of both, gin = in(I_a) = in(I_phi(a)) = J.

    The main block is the most significant in that order, so the x-part
    of an element's lead is its block lead, and its packed form is the
    lead's top fields. These x-parts generate the initial ideal of the
    family over k(t) (Becker-Weispfenning, Groebner Bases, section 6),
    which no parameter order changes, so the route fixes one: degrevlex.
    No x-part is 1: every term of the family has x-degree d_i >= 1, and
    so has every term of every element of the ideal it generates. The run
    stops once its x-leads have the bracket series of the family's
    degrees (`buchberger`'s `stop_at_gin`); then they already generate
    that initial ideal, the basis's `initial_ideal()`."""
    gb = buchberger(normal_form_family(inst), inst.order, budget,
                    stop_at_gin=True)
    return GinResult(gb.initial_ideal(), "parametric", inst)
