"""Independent routes that only the tests use to check the library.

- `parse_poly`: a polynomial from text such as "x1^2 - 1/2*x2", the
  way the tests write their input
- `lead_monomial`, `lead_coefficient`, `lead_monomials`, `degree` and
  `is_homogeneous`: the leading term and the degrees of a polynomial,
  and the leading monomials of a Groebner basis, read off their public
  fields
- `param_count`: the number of parameter variables of a ring, given
  where its main variables end
- `packed_key`: the order key of an exponent tuple packed by the order's
  layout, the int the Groebner kernel compares
- `monomials_of_degree`: every monomial of a degree, in descending lex
  order, from `combinations_with_replacement`; the reference for the
  colex unranker `ginlab.series._lex_monomials`, and the enumerator of
  every brute-force oracle below
- `series_coefficient`: one coefficient of num(t) / (1 - t)^n as a
  binomial convolution, the reference for the prefix sums of
  `ginlab.ideals.power_series`
- `tuple_minimalize` and `tuple_contains`: minimal generators and
  membership on exponent tuples, the reference for the packed scans of
  `ginlab.ideals` and the membership test of every brute-force oracle
- `Arith`: field arithmetic on the coefficients of a ginlab field, for
  the tuple kernel and the row reductions below
- `hilbert_function_bruteforce`: count standard monomials one by one
- `tuple_hilbert_numerator`: the Hilbert numerator by the pivot
  recursion on exponent tuples, with tuple minimalization at every split
- `hilbert_function_homogeneous`: dim (S/I)_d of a polynomial ideal as
  the corank of its degree-d Macaulay matrix (the criterion-8 oracle)
- `u_generic_by_macaulay`: the u-genericity verdict from those coranks
- `is_groebner`: Buchberger's S-polynomial criterion
- `lexsegment_by_enumeration`: the lexsegment ideal of a Hilbert function
  by listing every monomial and testing it for divisibility
- `macaulay_bound` and `persistence_degree`: the Macaulay bound by the
  greedy representation, and the degree from which the bracket series
  follows it n times in a row, the reference for the stop degree of
  `ginlab.series.lexsegment_of_froeberg`
- `is_lexsegment_by_enumeration`: the verdict and witness of
  `ginlab.is_lexsegment`, by listing every monomial up to maxdeg
- `is_weakly_revlex_by_scan`: the verdict and witness of
  `ginlab.is_weakly_revlex`, by testing every monomial of each
  generator's degree against it
- `is_borel_fixed_by_scan`: the verdict and witness of
  `ginlab.is_borel_fixed`, by testing every allowed shift of every
  minimal generator
- `is_stable_by_scan`: whether a monomial ideal is stable, by moving
  every member in the box of divisors of the generators' lcm
- `full_trials`: the initial ideal and u-label of each trial of
  `ginlab.gin_by_sampling`, by `buchberger` on its n-variable forms,
  the reference for the section route of degrevlex trials
- `full_templates`: the parametric generators with one parameter per
  monomial, F_i = sum over the degree-d_i monomials m_k of t_{i,k} m_k,
  whose coordinates are the points that `ginlab.sample_point` draws
- `block_leading_data`: the block lead of a parametric polynomial and its
  parameter coefficient, by grouping its terms by x-part (the split
  point is given: a ring does not record it)
- `borel_action_check`: Borel-fixedness by its definition, the action
  of x_j -> x_j + c*x_i on each graded piece, by exact row reduction
- `specialize` and `stability_check`: parameter values substituted into
  a polynomial, and the specialization-stability test of a parametric
  basis (the paper's stability method, which no command runs)
- the tuple Groebner kernel (`tuple_normal_form`, `tuple_s_polynomial`,
  `tuple_buchberger`, `tuple_reduce_basis`): the same algorithm as
  `ginlab.groebner` on exponent tuples, tuple order keys (`tuple_key`)
  and field-object arithmetic, the reference for the packed kernel

No oracle imports a private name of ginlab: a reference must not share
kernel code with what it checks.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd, lcm

from ginlab.fields import QQ
from ginlab.generic import is_u_generic, sample_ideal, trial_seeds
from ginlab.groebner import buchberger
from ginlab.ideals import MonomialIdeal, hilbert_series, top_degree
from ginlab.orders import (DEGLEX, DEGREVLEX, LEX, InverseBlock, binom_p_leq,
                           mono_divides)
from ginlab.poly import Polynomial, Ring
from ginlab.props import PropertyVerdict
from ginlab.series import (InadmissibleHilbertFunction, default_horizon,
                           froeberg_series, regularity_index)


class Arith:
    """Arithmetic in a ginlab field `fld`, on its elements: Fractions over
    Q, ints in [0, p) over GF(p)."""

    def __init__(self, fld):
        self.p, self.zero, self.one = fld.char, fld.of(0), fld.of(1)

    def _r(self, x):
        return x % self.p if self.p else x

    def add(self, a, b):
        return self._r(a + b)

    def sub(self, a, b):
        return self._r(a - b)

    def mul(self, a, b):
        return self._r(a * b)

    def neg(self, a):
        return self._r(-a)

    def inv(self, a):
        return pow(a, -1, self.p) if self.p else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))


def lead_monomial(f):
    """The leading monomial of the nonzero polynomial `f`."""
    return f.terms[0][0]


def lead_coefficient(f):
    """The leading coefficient of the nonzero polynomial `f`."""
    return f.terms[0][1]


def lead_monomials(gb):
    """The leading monomials of the elements of the Groebner basis `gb`."""
    return [lead_monomial(g) for g in gb.generators]


def param_count(ring, nmain):
    """The number of parameter variables of `ring`: those after its first
    `nmain`, the main ones."""
    return ring.nvars - nmain


def degree(f):
    """The largest total degree of a term of the polynomial `f`, -1 for
    zero."""
    return max((sum(m) for m, _ in f.terms), default=-1)


def is_homogeneous(f):
    """Whether every term of the polynomial `f` has one total degree."""
    return len({sum(m) for m, _ in f.terms}) <= 1


def packed_key(order, m):
    """The order key of the exponent tuple m, packed by the order's
    layout: the int that the Groebner kernel compares."""
    layout = order.layout(len(m))
    return layout.key(layout.pack(m))


def parse_poly(text, ring, order):
    """Parse `c*x1^e1*...*xn^en` terms joined by + / -."""
    text = text.replace("-", "+-").replace(" ", "")
    if text.startswith("+-"):
        text = text[1:]
    name_index = {nm: i for i, nm in enumerate(ring.names)}
    terms = []
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(1)
        exps = [0] * ring.nvars
        for factor in chunk.split("*"):
            if factor[0].isdigit() or "/" in factor:
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                nm, e = factor.split("^")
                e = int(e)
            else:
                nm, e = factor, 1
            if nm not in name_index:
                raise ValueError(f"unknown variable {nm!r}")
            exps[name_index[nm]] += e
        terms.append((tuple(exps), sign * coeff))
    return Polynomial.from_terms(ring, order, terms)


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


def series_coefficient(num, n, d):
    """The degree-d coefficient of num(t) / (1 - t)^n, with `num` a list of
    integer coefficients: 1 / (1 - t)^n has coefficients binom(n-1+i, i)."""
    return sum(c * comb(n - 1 + d - i, d - i)
               for i, c in enumerate(num[:d + 1]))


def tuple_minimalize(n, monomials):
    """The minimal generators that `ginlab.MonomialIdeal` keeps, on
    exponent tuples in descending lex, without that constructor: in
    ascending degree, keep each monomial that no monomial kept before it
    divides."""
    mins = []
    for m in sorted(set(monomials), key=sum):
        if not any(mono_divides(g, m) for g in mins):
            mins.append(m)
    return tuple(sorted(mins, reverse=True))


def tuple_contains(J, m):
    """`ginlab.contains` on exponent tuples: some generator divides m."""
    if len(m) != J.n:
        raise ValueError(f"monomial has {len(m)} exponents, "
                         f"ideal is in {J.n} variables")
    return any(mono_divides(g, m) for g in J.gens)


def hilbert_function_bruteforce(J, d):
    """Count degree-d monomials outside J by direct enumeration."""
    return sum(1 for m in monomials_of_degree(J.n, d)
               if not tuple_contains(J, m))


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


def tuple_hilbert_numerator(J):
    """`ginlab.hilbert_numerator` on exponent tuples: N(J) = N(J + (p)) +
    t * N(J : p) for the variable p occurring most often among the
    generators that are not pure powers, both sides minimalized as
    tuples. Memoized per top-level call."""
    return _poly_trim(_tuple_numerator(frozenset(J.gens), {}))


def _tuple_numerator(gens, memo):
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
    plus = tuple_minimalize(n, list(gens) + [pivot])
    colon = tuple_minimalize(
        n, [tuple(max(e - p, 0) for e, p in zip(g, pivot)) for g in gens])
    a = _tuple_numerator(frozenset(plus), memo)
    b = _tuple_numerator(frozenset(colon), memo)
    out = [0] * max(len(a), len(b) + 1)
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i + 1] += x
    out = _poly_trim(out)
    memo[gens] = out
    return out


def _rank(rows, fld):
    """Rank of a matrix over the field `fld` by Gaussian elimination."""
    fld = Arith(fld)
    rows = [list(r) for r in rows]
    zero = fld.zero
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != zero),
                   None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][col])
        rows[rank] = [fld.mul(inv, x) for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f != zero:
                rows[r] = [fld.sub(a, fld.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def hilbert_function_homogeneous(gens, d):
    """dim (S/I)_d as corank of the Macaulay matrix of all degree-d shifts."""
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    n = ring.nvars
    fld = ring.field
    basis = monomials_of_degree(n, d)
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    for f in gens:
        if not f:
            continue
        if not is_homogeneous(f):
            raise ValueError("generators must be homogeneous")
        df = degree(f)
        if df > d:
            continue
        for tau in monomials_of_degree(n, d - df):
            row = [fld.of(0)] * len(basis)
            for m, c in f.terms:
                row[index[mono_mul(m, tau)]] = c
            rows.append(row)
    return len(basis) - _rank(rows, fld)


def u_generic_by_macaulay(gens, inst):
    """The verdict of `ginlab.is_u_generic`, from Macaulay coranks of the
    generators instead of the Hilbert series of their initial ideal."""
    D = default_horizon(inst.n, inst.degrees)
    expected = froeberg_series(inst.n, inst.degrees, D)
    for d in range(D + 1):
        if hilbert_function_homogeneous(gens, d) != expected[d]:
            return "no"
    return "yes"


def is_groebner(G, order=None):
    """Buchberger post-check: every pairwise S-polynomial reduces to 0."""
    gens = list(G)
    order = order or gens[0].order
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = tuple_s_polynomial(gens[i], gens[j], order)
            if tuple_normal_form(s, gens, order):
                return False
    return True


def lexsegment_by_enumeration(n, hf, horizon=None):
    """`ginlab.lexsegment_of_hf` on a finite window, by enumeration.

    In degree d the ideal's piece is the (dim S_d - hf_d) lex-largest
    monomials; each is tested for divisibility by the generators so far,
    and the multiples of those generators are counted by a Hilbert series
    in every degree. Returns the ideal and the finite-window flag: true
    when a generator lies in the last n degrees of the window.
    """
    coeffs = tuple(hf)
    D = len(coeffs) - 1 if horizon is None else min(horizon, len(coeffs) - 1)
    if not coeffs or coeffs[0] != 1:
        raise InadmissibleHilbertFunction("Hilbert function must start with 1")
    gens = []
    last_gen_degree = 0
    for d in range(1, D + 1):
        dim = comb(n - 1 + d, d)
        q = dim - coeffs[d]
        if q < 0:
            raise InadmissibleHilbertFunction(
                f"coefficient {coeffs[d]} at degree {d} exceeds dim S_{d} = {dim}")
        segment = monomials_of_degree(n, d)[:q]
        new = [m for m in segment if not any(mono_divides(g, m) for g in gens)]
        in_ideal = len(segment) - len(new)
        # every degree-d multiple of an earlier generator must sit inside
        # the segment, otherwise no lexsegment ideal matches hf
        earlier = MonomialIdeal(n, tuple_minimalize(n, gens))
        multiples = dim - hilbert_series(earlier, horizon=d)[d]
        if multiples != in_ideal:
            raise InadmissibleHilbertFunction(
                f"degree-{d} piece is not a lex segment for the given function")
        if new:
            last_gen_degree = d
        gens.extend(new)
    J = MonomialIdeal(n, tuple_minimalize(n, gens))
    if tuple(hilbert_series(J, horizon=D)[: D + 1]) != coeffs[: D + 1]:
        raise InadmissibleHilbertFunction(
            "constructed lexsegment ideal does not reproduce the Hilbert function")
    return J, bool(J.gens) and last_gen_degree > D - n


def macaulay_bound(a, d):
    """a^<d>, from the textbook greedy d-th Macaulay representation of a."""
    out = 0
    while a > 0:
        k = d
        while comb(k + 1, d) <= a:
            k += 1
        a -= comb(k, d)
        out += comb(k + 1, d + 1)
        d -= 1
    return out


def persistence_degree(n, degrees, limit):
    """The first e >= max(1, r), r the regularity index, at which the
    bracket series h persists: the Macaulay bound, iterated from h_e, gives
    h_{e+1}, ..., h_{e+n}. Both sides are polynomials of degree < n in the
    shift from there on, so n agreeing values prove that the lexsegment
    ideal of h has no generator past e (Gotzmann persistence). None if no
    e <= limit persists."""
    e = max(1, regularity_index(n, degrees))
    h = froeberg_series(n, degrees, limit + n)
    while e <= limit:
        a = h[e]
        for t in range(1, n + 1):
            a = macaulay_bound(a, e + t - 1)
            if a != h[e + t]:
                break
        else:
            return e
        e += 1
    return None


def is_lexsegment_by_enumeration(J):
    """`ginlab.is_lexsegment`: scan each degree up to maxdeg in descending
    lex order; a member after a missing monomial is the witness."""
    for d in range(1, top_degree(J) + 1):
        gap = None
        for m in monomials_of_degree(J.n, d):
            if tuple_contains(J, m):
                if gap is not None:
                    return PropertyVerdict(False, (m, gap))
            elif gap is None:
                gap = m
    return PropertyVerdict(True)


def is_weakly_revlex_by_scan(J):
    """`ginlab.is_weakly_revlex`: for each generator g, in J's order, scan
    the monomials of g's degree in descending lex order; the first one
    that is revlex-larger than g and missing from J is the witness."""
    for g in J.gens:
        key = tuple_key(DEGREVLEX, g)
        for m in monomials_of_degree(J.n, sum(g)):
            if tuple_key(DEGREVLEX, m) > key and not tuple_contains(J, m):
                return PropertyVerdict(False, (g, m))
    return PropertyVerdict(True)


def is_borel_fixed_by_scan(J, p=0):
    """`ginlab.is_borel_fixed`: every shift (x_i / x_j)^s m of every
    minimal generator m with x_j^t || m, i < j and s <= t allowed by the
    characteristic-p binomial order must lie in J; the first that does not
    is the witness."""
    binom_p_leq(0, 0, p)
    for m in J.gens:
        for j, t in enumerate(m):
            if t == 0:
                continue
            for i in range(j):
                for s in range(1, t + 1):
                    if not binom_p_leq(s, t, p):
                        continue
                    shifted = list(m)
                    shifted[j] -= s
                    shifted[i] += s
                    if not tuple_contains(J, tuple(shifted)):
                        return PropertyVerdict(False, (m, tuple(shifted)))
    return PropertyVerdict(True)


def borel_action_check(J, i, j, c, horizon=None):
    """Whether the substitution x_j -> x_j + c*x_i (i < j, c != 0) maps
    each graded piece of J onto itself, through degree `horizon` (default
    the top generator degree): the images of the degree-d members must
    lie in their span and have full rank over Q."""
    if i >= j:
        raise ValueError("need i < j")
    c = Fraction(c)
    if c == 0:
        raise ValueError("need c != 0")
    D = horizon if horizon is not None else top_degree(J)
    for d in range(1, D + 1):
        members = [m for m in monomials_of_degree(J.n, d)
                   if tuple_contains(J, m)]
        index = {m: k for k, m in enumerate(members)}
        rows = []
        for m in members:
            row = [Fraction(0)] * len(members)
            for mono, coeff in _substitute(m, i, j, c).items():
                if mono not in index:
                    return False
                row[index[mono]] = coeff
            rows.append(row)
        if _rank(rows, QQ) != len(members):
            return False
    return True


def _substitute(m, i, j, c):
    """Expand m under x_j -> x_j + c*x_i as {monomial: coefficient}."""
    e = m[j]
    out = {}
    for k in range(e + 1):
        mono = list(m)
        mono[j] = e - k
        mono[i] += k
        out[tuple(mono)] = comb(e, k) * c ** k
    return out


def is_stable_by_scan(J):
    """Whether x_j w / x_m lies in J for every member w of J, m the
    largest index of a variable dividing w and j < m, scanning the
    members that divide the lcm of the generators. That box is enough: if
    the move of a member w = g * v (g a generator) leaves J, x_m divides
    g and not v, for otherwise the move is g times a move of v; so the
    same move of g leaves J too."""
    top = [max((g[i] for g in J.gens), default=0) for i in range(J.n)]
    for w in product(*(range(e + 1) for e in top)):
        if not tuple_contains(J, w):
            continue
        support = [i for i, e in enumerate(w) if e]
        for j in range(support[-1] if support else 0):
            moved = list(w)
            moved[support[-1]] -= 1
            moved[j] += 1
            if not tuple_contains(J, tuple(moved)):
                return False
    return True


def full_trials(inst, trials=5, seed=0, bound=None):
    """The initial ideals and u-labels of the trials of
    `gin_by_sampling(inst, trials, seed, bound)`, each from `buchberger`
    on the trial's forms in all n variables."""
    ideals, labels = [], []
    for t in trial_seeds(seed, trials):
        gb = buchberger(sample_ideal(inst, t, bound), inst.main_order)
        ideals.append(gb.initial_ideal())
        labels.append(is_u_generic(gb, inst))
    return ideals, tuple(labels)


def full_templates(inst):
    """F_i = sum over degree-d_i monomials m_k of t_{i,k} * m_k, with k
    indexing monomials in descending lex, in k[x, t] under `inst.order`."""
    names = [f"x{i + 1}" for i in range(inst.n)]
    for i, d in enumerate(inst.degrees):
        r = comb(inst.n + d - 1, d)
        names += [f"t{i + 1}_{k + 1}" for k in range(r)]
    ring = Ring(inst.field, tuple(names))
    out = []
    offset = 0
    for d in inst.degrees:
        monos = monomials_of_degree(inst.n, d)
        terms = []
        for k, m in enumerate(monos):
            full = list(m) + [0] * inst.nparams
            full[inst.n + offset + k] = 1
            terms.append((tuple(full), 1))
        out.append(Polynomial.from_terms(ring, inst.order, terms))
        offset += len(monos)
    return out


def block_leading_data(F, main_order, nmain):
    """Leading x-monomial of F in k[t][x], x its first `nmain` variables,
    and its parameter coefficient.

    Returns (lead_monomial over the main variables, lead_coefficient as a
    polynomial over the parameter ring).
    """
    if not F:
        raise ValueError("block leading data of the zero polynomial")
    ring = F.ring
    groups = {}
    for m, c in F.terms:
        groups.setdefault(m[:nmain], []).append((m[nmain:], c))
    lead = max(groups, key=lambda m: tuple_key(main_order, m))
    tring = Ring(ring.field, ring.names[nmain:])
    coeff = Polynomial.from_terms(tring, LEX, groups[lead])
    return lead, coeff


def specialize(F, point, nmain):
    """F with its parameters, the variables after the first `nmain`, set
    to `point` (one value per parameter, in ring order), over the main
    variables, under the main order of an inverse block order."""
    ring, fld = F.ring, F.ring.field
    if len(point) != param_count(ring, nmain):
        raise ValueError(f"point has {len(point)} coordinates, "
                         f"ring has {param_count(ring, nmain)} parameters")
    values = [fld.of(v) for v in point]
    terms = []
    for m, c in F.terms:
        for v, e in zip(values, m[nmain:]):
            for _ in range(e):
                c = Arith(fld).mul(c, v)
        terms.append((m[:nmain], c))
    order = F.order.main_order if isinstance(F.order, InverseBlock) else F.order
    return Polynomial.from_terms(Ring(fld, ring.names[:nmain]), order, terms)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    survivors: tuple  # 0-based indices into the basis, empty when unstable


def stability_check(gens, point):
    """Kalkbrener-style specialization test for a basis `gens` under an
    inverse block order (their own order). Under any other order the
    basis has no parameters, and it is stable at the empty point.

    Splits the basis by whether the block leading coefficient survives
    specialization at `point`, that is whether the block-lead x-monomial
    is still a term of the specialized member (its coefficient there is
    the block leading coefficient evaluated at `point`); the verdict is
    stable when every vanished member specializes into the ideal of the
    survivors. Under the inverse block order the main block is the most
    significant, so the x-part of a member's lead is its block lead.
    """
    gens = list(gens)
    order = gens[0].order if gens else None
    if not isinstance(order, InverseBlock):
        if point:
            raise ValueError(
                "a basis with parameters needs an inverse block order")
        return StabilityVerdict(True, tuple(range(len(gens))))
    survivors, kept, vanished = [], [], []
    for idx, g in enumerate(gens):
        sg = specialize(g, point, order.nmain)
        if lead_monomial(g)[: order.nmain] in dict(sg.terms):
            survivors.append(idx)
            kept.append(sg)
        else:
            vanished.append(sg)
    if any(tuple_normal_form(sg, kept, order.main_order) for sg in vanished):
        return StabilityVerdict(False, ())
    return StabilityVerdict(True, tuple(survivors))


# ---------------------------------------------------------------------------
# the tuple Groebner kernel

def tuple_key(order, m):
    """The order's sort key of an exponent tuple, built from tuples."""
    if isinstance(order, InverseBlock):
        return (tuple_key(order.main_order, m[: order.nmain]),
                tuple_key(order.param_order, m[order.nmain:]))
    if order == LEX:
        return m
    if order == DEGLEX:
        return (sum(m), m)
    if order == DEGREVLEX:
        # same degree: smaller exponent in the last differing variable wins
        return (sum(m), tuple(-e for e in reversed(m)))
    raise ValueError(f"no tuple key for {order!r}")


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_div(m1, m2):
    """m1 / m2, or None when m2 does not divide m1."""
    q = tuple(a - b for a, b in zip(m1, m2))
    if any(e < 0 for e in q):
        return None
    return q


def mono_lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))


def _neg_key(k):
    if isinstance(k, tuple):
        return tuple(_neg_key(x) for x in k)
    return -k


def _from_dict(ring, order, d):
    items = [(m, c) for m, c in d.items() if c]
    items.sort(key=lambda t: tuple_key(order, t[0]), reverse=True)
    return Polynomial(ring, order, items)


def _resorted(f, order):
    return _from_dict(f.ring, order, dict(f.terms))


def monic(f):
    """f divided by its leading coefficient."""
    fld = Arith(f.ring.field)
    inv = fld.inv(lead_coefficient(f)) if f else fld.one
    return Polynomial(f.ring, f.order,
                      [(m, fld.mul(inv, c)) for m, c in f.terms])


def primitive(f):
    """f with its rational content stripped: integer coefficients with
    gcd 1 and lc > 0; monic over a prime field."""
    if not f or f.ring.field.char:
        return monic(f)
    coeffs = [c for _, c in f.terms]
    den = lcm(*(c.denominator for c in coeffs))
    s = Fraction(-den if coeffs[0] < 0 else den,
                 gcd(*(c.numerator for c in coeffs)))
    return Polynomial(f.ring, f.order, [(m, s * c) for m, c in f.terms])


def tuple_s_polynomial(f, g, order=None):
    """S(f, g) = L/lt(f) * f - L/lt(g) * g with L = lcm of the leads."""
    if not f or not g:
        raise ValueError("s-polynomial of the zero polynomial")
    order = order or f.order
    f = _resorted(f, order)
    g = _resorted(g, order)
    fld = Arith(f.ring.field)
    L = mono_lcm(lead_monomial(f), lead_monomial(g))
    d = {}
    for h, sign in ((f, fld.one), (g, fld.neg(fld.one))):
        q = mono_div(L, lead_monomial(h))
        factor = fld.mul(sign, fld.inv(lead_coefficient(h)))
        for m, c in h.terms:
            mm = mono_mul(m, q)
            d[mm] = fld.add(d.get(mm, fld.zero), fld.mul(factor, c))
    return _from_dict(f.ring, order, d)


def tuple_normal_form(f, G, order=None):
    """Remainder of f on full division by G.

    Deterministic reducer selection: G is scanned in ascending order of
    lead monomial and the first divisor wins.
    """
    order = order or f.order
    f = _resorted(f, order)
    if not f:
        return f
    divs = sorted((_resorted(g, order) for g in G if g),
                  key=lambda g: tuple_key(order, lead_monomial(g)))
    leads = [(lead_monomial(g), lead_coefficient(g), g.terms) for g in divs]
    if not leads:
        return f
    fld = Arith(f.ring.field)
    zero = fld.zero
    work = dict(f.terms)
    heap = [(_neg_key(tuple_key(order, m)), m) for m in work]
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
                            heapq.heappush(
                                heap, (_neg_key(tuple_key(order, mm)), mm))
                        work[mm] = s
                break
        else:
            rem[m] = c
    return _from_dict(f.ring, order, rem)


def _tuple_update_pairs(G, pairs, h, order):
    """Gebauer-Moeller update of the pair set when h joins the basis."""
    t = len(G)
    hm = lead_monomial(h)
    lcms = {i: mono_lcm(lead_monomial(G[i]), hm) for i in range(t)}
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
    seen = {}
    for i in sorted(keep):
        L = keep[i]
        if L not in seen:
            seen[L] = i
    new_pairs = []
    for L, i in seen.items():
        if L == mono_mul(lead_monomial(G[i]), hm):
            continue
        new_pairs.append((i, t, L))
    surviving = []
    for (i, j, L) in pairs:
        if (mono_divides(hm, L)
                and mono_lcm(lead_monomial(G[i]), hm) != L
                and mono_lcm(lead_monomial(G[j]), hm) != L):
            continue
        surviving.append((i, j, L))
    return surviving + new_pairs


def tuple_buchberger(gens, order=None):
    """The Groebner basis `ginlab.buchberger` computes, as a tuple of
    Polynomials in the same order."""
    gens = [g for g in gens if g]
    order = order or gens[0].order
    G = []
    pairs = []
    for f in gens:
        h = tuple_normal_form(f, G, order)
        if h:
            h = primitive(h)
            pairs = _tuple_update_pairs(G, pairs, h, order)
            G.append(h)
    while pairs:
        best = min(range(len(pairs)),
                   key=lambda k: (sum(pairs[k][2]),
                                  tuple_key(order, pairs[k][2])))
        i, j, _ = pairs.pop(best)
        s = tuple_s_polynomial(G[i], G[j], order)
        h = tuple_normal_form(s, G, order)
        if h:
            h = primitive(h)
            pairs = _tuple_update_pairs(G, pairs, h, order)
            G.append(h)
    return tuple(G)


def tuple_reduce_basis(G, order):
    """The reduced Groebner basis `ginlab.reduce_basis` computes."""
    G = sorted((_resorted(g, order) for g in G if g),
               key=lambda g: tuple_key(order, lead_monomial(g)))
    minimal = []
    for g in G:
        lead = lead_monomial(g)
        if not any(mono_divides(lead_monomial(h), lead) for h in minimal):
            minimal = [h for h in minimal
                       if not mono_divides(lead, lead_monomial(h))]
            minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            r = tuple_normal_form(minimal[i], others, order)
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    return tuple(sorted(map(monic, minimal),
                        key=lambda g: tuple_key(order, lead_monomial(g)),
                        reverse=True))
