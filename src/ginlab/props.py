"""Classification predicates on monomial ideals: lexsegment, weakly
reverse lexicographic, and Borel-fixed.

Each property is stated on the minimal generators, and `J.gens` are
exactly those: a `MonomialIdeal` holds no other, so no predicate
minimalizes or checks them again. Every failing verdict carries a
witness that can be re-validated with `contains` alone. A holding
verdict lists no monomials where a certificate decides it: Macaulay bounds for a lexsegment ideal, and the
adjacent Borel moves of the minimal generators for strong stability,
hence for the Borel test in characteristic 0 and, with one more monomial
per generator and variable, for the weakly revlex test of a strongly
stable ideal (every degrevlex gin in characteristic 0 is one). Where a
predicate lists the monomials of a degree, to find a witness or to
decide an ideal no certificate covers, it takes them from
`series._lex_monomials`, the one monomial enumerator.
"""

from __future__ import annotations

from .ideals import contains
from .orders import EXP_MAX, ExponentOverflow, binom_p_leq, mono_str
from .series import _lex_monomials, _macaulay_digits, _macaulay_shift
from .values import Frozen


class PropertyVerdict(Frozen):
    holds: bool
    witness: tuple | None = None  # (member-or-generator, missing monomial)

    def __bool__(self):
        return self.holds

    def to_json(self, prop):
        out = {"property": prop, "holds": self.holds}
        if self.witness is not None:
            member, missing = self.witness
            out["witness"] = {"member": mono_str(member),
                              "missing": mono_str(missing),
                              "member_exponents": list(member),
                              "missing_exponents": list(missing)}
        return out


def is_lexsegment(J):
    """Whether each graded piece of J is a descending-lex prefix of the
    monomials of its degree.

    J is a lexsegment ideal iff, for each minimal generator g, every
    monomial of g's degree that is lex-greater than g lies in J: if
    J_{d-1} is a lex segment, so is S_1 J_{d-1} (Macaulay), and J_d is
    its union with the upper lex segments ending at the degree-d
    generators. Degrees above maxdeg need no check for the same reason.

    No monomial is listed to decide this. With h = HF(S/J)_{d-1}, the
    monomials of degree d outside S_1 J_{d-1} are the h^<d-1>
    lex-smallest (the Macaulay bound; n for d = 1), and J_d is a lex
    segment iff its k generators are the k largest of those: the
    monomials of ascending lex rank h^<d-1> - k .. h^<d-1> - 1, unranked
    as in `series.lexsegment_of_hf`. A degree without generators is
    S_1 J_{d-1}, a lex segment, and applying the bound t times to the
    digits of h_e is `_macaulay_shift(digits, t)`. So only the generator
    degrees are visited, with one Macaulay representation each; the
    degree-1 monomials, n = C(n, 1), start the walk as the digits [n].

    The witness, at the first failing degree d, is a member that follows
    a missing monomial in descending lex: the first monomial of S_d
    outside J, and the first member after it. The lower degrees are lex
    segments, so the degree-d members outside S_{d-e} J_e (all but the
    `bound` lex-smallest) are the k generators. So the missing one is the
    largest of the `bound` that is no generator, among their k + 1
    largest (ranks h - 1 .. bound - 1; h >= 1, as the degree fails), and
    the member is the largest generator below it.
    """
    n = J.n
    by_degree = {}
    for g in J.gens:
        by_degree.setdefault(sum(g), set()).add(g)
    e, digits = 1, [n]  # h_e = sum C(c_j, j) over the digits
    for d in sorted(by_degree):
        # degree-d monomials outside S_{d-e} J_e
        bound = _macaulay_shift(digits, d - e)
        gens = by_degree[d]
        h = bound - len(gens)
        e, digits = d, _macaulay_digits(h, d)
        if gens != set(_lex_monomials(n, d, h, bound, digits)):
            gap = max(set(_lex_monomials(n, d, h - 1, bound)) - gens)
            return PropertyVerdict(False, (max(g for g in gens if g < gap),
                                           gap))
    return PropertyVerdict(True)


def is_weakly_revlex(J):
    """Whether every monomial of a minimal generator's degree that is
    revlex-larger than it lies in J; the witness is the first failing
    generator and the lex-largest monomial it misses. A degree above
    EXP_MAX, too large for a packed degree field, raises
    `ExponentOverflow` first.

    A strongly stable J (`_strongly_stable`) is decided by one monomial
    per generator g and index i >= 2 with g_i > 0, with S = g_1 + ... +
    g_(i-1):

        w = x_(i-1)^(S+1) x_i^(g_i - 1) x_(i+1)^g_(i+1) ... x_n^g_n.

    Each w is a monomial of g's degree above g, so a weakly revlex J
    holds them all. Conversely, a monomial m of g's degree is above g in
    degrevlex iff, at the last index i where they differ, m_i = e < g_i
    (i >= 2, as the degrees agree). So m = x^a x_i^e t, where t =
    x_(i+1)^g_(i+1) ... x_n^g_n and x^a is a monomial in x_1 .. x_(i-1)
    of degree A = S + g_i - e. Every such x^a arises from x_(i-1)^A by
    moves x_(i-1) -> x_k, k < i - 1, so in a strongly stable J all of
    them lie in J iff x_(i-1)^A x_i^e t does. That member for e - 1 is
    the move x_i -> x_(i-1) of the one for e, so e = g_i - 1, which is
    w, implies all smaller e. When J is not strongly stable, or some w
    is missing, each degree's monomials are listed in descending revlex
    order (the reversed tuples of the ascending lex list) and decided
    once, as far as each generator needs, to find the witness.
    """
    if any(sum(g) > EXP_MAX for g in J.gens):
        raise ExponentOverflow()
    if _strongly_stable(J) and all(
            contains(J, (0,) * (i - 1) + (sum(g[:i]) + 1, g[i] - 1)
                     + g[i + 1:])
            for g in J.gens for i in range(1, J.n) if g[i]):
        return PropertyVerdict(True)
    walks = {}  # degree -> [monomials in descending revlex, how many decided]
    for g in J.gens:
        d = sum(g)
        if d not in walks:
            walks[d] = [[m[::-1] for m in _lex_monomials(J.n, d)], 0]
        walk = walks[d]
        i = walk[0].index(g)
        missing = [m for m in walk[0][walk[1]:i] if not contains(J, m)]
        if missing:
            return PropertyVerdict(False, (g, max(missing)))
        walk[1] = max(walk[1], i)
    return PropertyVerdict(True)


def _strongly_stable(J):
    """Whether x_i u / x_j lies in J for every member u, x_j | u, i < j.

    The adjacent moves x_(j-1) m / x_j of the minimal generators decide
    that. Suppose they all stay in J, and let u = g w be in J, with g a
    minimal generator and x_j | u. If x_j | w, then x_(j-1) u / x_j =
    g (x_(j-1) w / x_j) is in J (move w); otherwise x_j | g, and
    x_(j-1) u / x_j = (x_(j-1) g / x_j) w is in J (move g). So J is
    closed under adjacent moves. For i < j, x_i u / x_j is the j - i
    adjacent moves x_j -> x_(j-1) -> ... -> x_i, each applied to a
    member that the variable it moves divides."""
    return all(contains(J, _shift(m, j - 1, j, 1))
               for m in J.gens for j in range(1, len(m)) if m[j])


def is_borel_fixed(J, p=0):
    """Combinatorial Borel criterion at characteristic p.

    For each minimal generator m, each variable x_j dividing m with exact
    exponent t, each i < j, and each 1 <= s <= t allowed by the
    characteristic-p binomial order, the shift (x_i / x_j)^s m must stay
    in the ideal.

    When p = 0, or every exponent of J is below p, every s <= t is
    allowed (t is one base-p digit), and the criterion is strong
    stability, which the adjacent moves of the minimal generators decide
    (`_strongly_stable`). The full scan runs only when this does not
    apply or the verdict fails, to name the first failing shift as the
    witness.
    """
    binom_p_leq(0, 0, p)  # validate the characteristic up front
    if not p or all(e < p for m in J.gens for e in m):
        if _strongly_stable(J):
            return PropertyVerdict(True)
    for m in J.gens:
        for j, t in enumerate(m):
            for i in range(j):
                for s in range(1, t + 1):
                    if binom_p_leq(s, t, p):
                        shifted = _shift(m, i, j, s)
                        if not contains(J, shifted):
                            return PropertyVerdict(False, (m, shifted))
    return PropertyVerdict(True)


def _shift(m, i, j, s):
    """(x_i / x_j)^s m."""
    shifted = list(m)
    shifted[j] -= s
    shifted[i] += s
    return tuple(shifted)
