import random
import re
import time
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ginlab as gl
from ginlab import generic, groebner
from ginlab.generic import GF32003
from ginlab.groebner import Budget, BudgetExceeded
from ginlab.orders import EXP_MAX, ExponentOverflow
from ginlab.poly import Packed, PackedRing, Polynomial, Ring
from ginlab.series import bracket_numerator

from conftest import GIN_32_22, INI_I, INI_J, POINT_A
from test_acceptance import CRIT4_GRID
from oracles import (_tuple_update_pairs, block_leading_data, degree,
                     full_templates, hilbert_function_homogeneous,
                     is_groebner, lead_monomial, lead_monomials, mono_lcm,
                     mono_mul, monomials_of_degree, packed_key, parse_poly,
                     stability_check,
                     tuple_buchberger, tuple_hilbert_numerator,
                     tuple_minimalize, tuple_normal_form, tuple_reduce_basis,
                     tuple_s_polynomial)

R2 = gl.xring(2)
R3 = gl.xring(3)


def normal_form(f, G, order=None, budget=None):
    """The kernel's `normal_form` on Polynomials: pack, reduce, unpack."""
    R = PackedRing(f.ring, order or f.order)
    table = groebner._Reducers(R, [R.pack(g) for g in G if g])
    return R.unpack(groebner.normal_form(R.pack(f), table, R, budget))


def packed_s_polynomial(f, g, order=None):
    """The `PackedRing` of f and g, and the kernel's `s_polynomial` of
    them packed. The kernel reads the lcm of the leads from the pair; here
    it is packed from the tuple lcm."""
    R = PackedRing(f.ring, order or f.order)
    F, G = R.pack(f), R.pack(g)
    layout = R.layout
    L = mono_lcm(*(layout.unpack(R.reducer(P)[1]) for P in (F, G)))
    return R, groebner.s_polynomial(F, G, R, layout.pack(L))


def s_polynomial(f, g, order=None):
    """The kernel's `s_polynomial` on Polynomials: pack, build, unpack.
    Its terms come unsorted, for `normal_form`, so they are sorted before
    they are unpacked."""
    R, S = packed_s_polynomial(f, g, order)
    return R.unpack(Packed(sorted(S.terms.items(), reverse=True), S.den))


def test_normal_form_monomial_ideal():
    f = parse_poly("x1^2*x2", R3, gl.LEX)
    g = parse_poly("x1^2", R3, gl.LEX)
    assert not normal_form(f, [g])


def test_normal_form_empty_divisors():
    f = parse_poly("x1^2 + x2", R3, gl.LEX)
    assert normal_form(f, []) == f


def test_normal_form_substitution():
    # two division steps, same as substituting x1 -> x2
    f = parse_poly("x1^2", R2, gl.LEX)
    g = parse_poly("x1 - x2", R2, gl.LEX)
    assert normal_form(f, [g]) == parse_poly("x2^2", R2, gl.LEX)


def test_s_polynomial_identical_leads():
    f = parse_poly("x1^2 + x2", R2, gl.LEX)
    assert not s_polynomial(f, f)


def test_s_polynomial_coprime_leads_reduce_to_zero():
    f = parse_poly("x1^2 + x2^2", R3, gl.LEX)
    g = parse_poly("x2^2 + x3", R3, gl.LEX)
    s = s_polynomial(f, g)
    assert not normal_form(s, [f, g])


def test_s_polynomial_construction():
    f = parse_poly("x1 - x2", R3, gl.LEX)
    g = parse_poly("x2 - x3", R3, gl.LEX)
    # lcm(x1, x2) = x1*x2: S = x2*f - x1*g = x1*x3 - x2^2
    assert s_polynomial(f, g) == parse_poly("x1*x3 - x2^2", R3, gl.LEX)


@st.composite
def s_polynomial_cases(draw):
    """Two polynomials in 3 variables of degree <= 3 over Q, GF(7) or
    GF(32003), under lex, degrevlex or an inverse block order. Their
    leading coefficients are drawn like the others, so most are not 1."""
    field = draw(st.sampled_from([gl.QQ, gl.PrimeField(7),
                                  gl.PrimeField(32003)]))
    order = draw(st.sampled_from([gl.LEX, gl.DEGREVLEX, gl.InverseBlock(
        gl.LEX, gl.DEGREVLEX, 2)]))
    ring = Ring(field, ("x1", "x2", "x3"))
    mono = st.sampled_from([m for d in range(4)
                            for m in monomials_of_degree(3, d)])
    coeff = st.integers(-6, 6).filter(bool)
    if field == gl.QQ:
        coeff = st.one_of(coeff, st.sampled_from(RATIONALS))
    f, g = (Polynomial.from_terms(ring, order, draw(st.lists(
        st.tuples(mono, coeff), min_size=1, max_size=5))) for _ in range(2))
    assume(f and g)
    return f, g, order


def _s_case(field, order, f, g):
    ring = Ring(field, ("x1", "x2", "x3"))
    return parse_poly(f, ring, order), parse_poly(g, ring, order), order


@settings(max_examples=200, deadline=None)
# leading coefficients 2 and 3: over Q the tails are cross-multiplied by
# 3 and 2, over GF(7) they are made monic and go in unscaled
@example(_s_case(gl.QQ, gl.LEX, "2*x1*x2 + x3^2 - x2", "3*x1^2 - x2*x3"))
@example(_s_case(gl.PrimeField(7), gl.LEX, "2*x1*x2 + x3^2 - x2",
                 "3*x1^2 - x2*x3"))
# the tails cancel in x2*x3^2, over Q and mod 7
@example(_s_case(gl.QQ, gl.LEX, "2*x1*x2 + 2*x2*x3",
                 "3*x1*x3 + 3*x3^2 + x2*x3"))
@example(_s_case(gl.PrimeField(7), gl.LEX, "2*x1*x2 + 2*x2*x3",
                 "3*x1*x3 + 3*x3^2 + x2*x3"))
@given(s_polynomial_cases())
def test_s_polynomial_terms_as_a_dict_match_tuple_s_polynomial(case):
    """`s_polynomial` hands `normal_form` its terms in no set order: read
    as a dict from key to coefficient, over its denominator, they are
    those of the tuple kernel's S-polynomial."""
    f, g, order = case
    R, S = packed_s_polynomial(f, g, order)
    key, pack = R.layout.key, R.layout.pack
    assert {k: Fraction(c, S.den) for k, c in dict(S.terms).items()} == {
        key(pack(m)): c for m, c in tuple_s_polynomial(f, g, order).terms}


def test_s_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        s_polynomial(Polynomial(R2, gl.LEX, ()), parse_poly("x1", R2, gl.LEX))


def test_zero_generators_are_the_zero_ideal():
    zero = Polynomial(R2, gl.LEX, ())
    gb = gl.buchberger([zero, zero], gl.LEX)
    assert len(gb) == 0 and gb.generators == ()
    # HS(S/(0)) = 1 / (1 - t)^2
    assert gb.hilbert_numerator == (1,)
    assert len(gl.reduce_basis(gb)) == 0
    with pytest.raises(ValueError):
        gl.buchberger([], gl.LEX)


def test_buchberger_monomial_input_is_fixed_point():
    gens = [parse_poly("x1^2", R3, gl.LEX), parse_poly("x2*x3", R3, gl.LEX)]
    gb = gl.buchberger(gens, gl.LEX)
    assert (sorted(map(lead_monomial, gb))
            == sorted(map(lead_monomial, gens)))


def test_buchberger_lex_fixture(sample_ideal_a):
    gens, _ = sample_ideal_a
    gb = gl.reduce_basis(gl.buchberger(gens, gl.LEX))
    assert gl.MonomialIdeal(3, lead_monomials(gb)).gens == GIN_32_22


def test_buchberger_example_degrevlex_fixtures(example_uv_ideals):
    I, J = example_uv_ideals
    gbI = gl.reduce_basis(gl.buchberger(I, gl.DEGREVLEX))
    gbJ = gl.reduce_basis(gl.buchberger(J, gl.DEGREVLEX))
    assert set(gl.MonomialIdeal(3, lead_monomials(gbI)).gens) == set(INI_I)
    assert set(gl.MonomialIdeal(3, lead_monomials(gbJ)).gens) == set(INI_J)


def test_buchberger_post_check(sample_ideal_a):
    gens, _ = sample_ideal_a
    gb = gl.buchberger(gens, gl.LEX)
    assert is_groebner(list(gb), gl.LEX)


def test_reduce_basis_interreduction():
    gens = [parse_poly("x1", R2, gl.LEX), parse_poly("x1 + x2", R2, gl.LEX)]
    gb = gl.reduce_basis(gl.buchberger(gens, gl.LEX))
    assert {str(g) for g in gb} == {"x1", "x2"}


def test_reduce_basis_idempotent(example_uv_ideals):
    I, _ = example_uv_ideals
    gb = gl.reduce_basis(gl.buchberger(I, gl.DEGREVLEX))
    again = gl.reduce_basis(gb)
    assert tuple(again.generators) == tuple(gb.generators)


def test_initial_ideal_is_the_ideal_the_count_reads():
    # one block: the minimal leads, whose numerator the run kept; a
    # constant lead, the unit ideal, stays
    inst = gl.GenericInstance(3, (2, 2, 2), GF32003, gl.LEX)
    gb = gl.buchberger(gl.sample_ideal(inst, seed=0), inst.order)
    J = gb.initial_ideal()
    assert J.gens == tuple_minimalize(3, lead_monomials(gb))
    assert gl.hilbert_numerator(J) == list(gb.hilbert_numerator)
    assert gl.reduce_basis(gb).initial_ideal() == J
    gens = [parse_poly(f, R2, gl.LEX) for f in ("x1^2 + x2", "x1")]
    gb = gl.buchberger(gens, gl.LEX)
    assert sorted(lead_monomials(gb)) == [(0, 1), (1, 0), (2, 0)]
    assert gb.initial_ideal().gens == ((1, 0), (0, 1))
    assert gl.reduce_basis(gb).initial_ideal() == gb.initial_ideal()
    unit = gl.buchberger([parse_poly(f, R2, gl.LEX) for f in ("x1 - 1", "x1")],
                         gl.LEX)
    assert unit.initial_ideal().gens == ((0, 0),)
    # `stop_at_gin`: the x-leads, none of them 1, whose numerator the run
    # kept, and the parametric gin
    inst = gl.GenericInstance(3, (2, 2), GF32003, gl.DEGREVLEX)
    gb = gl.buchberger(generic.normal_form_family(inst), inst.order,
                       stop_at_gin=True)
    xleads = [m[:3] for m in lead_monomials(gb)]
    assert all(map(any, xleads))
    J = gb.initial_ideal()
    assert J.gens == tuple_minimalize(3, xleads)
    assert gl.hilbert_numerator(J) == list(gb.hilbert_numerator)
    assert J == gl.gin_parametric(inst).ideal
    assert gl.reduce_basis(gb).initial_ideal() == J


def test_reduced_basis_is_canonical():
    # random invertible linear changes of generators give the same basis
    rng = random.Random(42)
    base = [parse_poly("x1^2 - x2*x3", R3, gl.DEGREVLEX),
            parse_poly("x1*x2 + x3^2", R3, gl.DEGREVLEX)]
    reference = gl.reduce_basis(gl.buchberger(base, gl.DEGREVLEX))
    combine = lambda *scaled: Polynomial.from_terms(  # sum of a * f
        R3, gl.DEGREVLEX, [(m, a * c) for a, f in scaled for m, c in f.terms])
    for _ in range(5):
        a = rng.choice([1, -1, 2, 3])
        b = rng.randint(-3, 3)
        c = rng.choice([1, -1, 2])
        g1 = combine((a, base[0]), (b, base[1]))
        g2 = combine((c, base[1]))
        gb = gl.reduce_basis(gl.buchberger([g1, g2], gl.DEGREVLEX))
        assert tuple(gb.generators) == tuple(reference.generators)


def test_hilbert_series_invariant_under_initial_ideal(sample_ideal_a):
    gens, _ = sample_ideal_a
    gb = gl.reduce_basis(gl.buchberger(gens, gl.LEX))
    J = gl.MonomialIdeal(3, lead_monomials(gb))
    for d in range(7):
        assert (gl.hilbert_series(J, d)[d]
                == hilbert_function_homogeneous(gens, d))


def test_membership_is_order_independent(sample_ideal_a):
    gens, _ = sample_ideal_a
    # gens[0] * (x2 - 3*x3) + 5 * gens[1]
    terms = [(mono_mul(m, q), c * d) for m, c in gens[0].terms
             for q, d in (((0, 1, 0), 1), ((0, 0, 1), -3))]
    terms += [(m, 5 * c) for m, c in gens[1].terms]
    for order in (gl.LEX, gl.DEGLEX, gl.DEGREVLEX):
        gb = gl.reduce_basis(gl.buchberger(gens, order))
        combo = Polynomial.from_terms(R3, order, terms)
        assert not normal_form(combo, list(gb), order)


def test_budget_exhaustion_raises():
    inst = gl.GenericInstance(3, (2, 2))
    with pytest.raises(BudgetExceeded):
        gl.buchberger(full_templates(inst), inst.order, Budget(ms=0.0001))


def test_budget_exceeded_says_how_far_the_run_got(monkeypatch):
    """The detail gives the S-polynomials reduced, the basis size, the
    pairs left and the lcm degree of the last pair taken."""
    spolys = []
    real_sp = groebner.s_polynomial

    def counting_sp(*args):
        spolys.append(1)
        return real_sp(*args)

    monkeypatch.setattr(groebner, "s_polynomial", counting_sp)
    inst = gl.GenericInstance(3, (2, 2, 2), field=gl.generic.GF32003)
    gens = gl.sample_ideal(inst, seed=0)
    assert len(gl.buchberger(gens, gl.LEX)) == 7
    spolys.clear()
    # the queue holds 3 pairs, then 4 after two S-polynomials of degree 3
    with pytest.raises(BudgetExceeded, match=re.escape(
            "pair-queue cap exceeded after 2 S-polynomials (basis 5, "
            "4 pairs left, degree 3)")):
        gl.buchberger(gens, gl.LEX, Budget(max_pairs=3))
    assert len(spolys) == 2


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def test_budget_deadline_is_fixed_when_it_is_made(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(groebner, "time", clock)
    budget = Budget(ms=1000)
    clock.now = 0.9
    budget.check(0)
    # a run given the budget later does not move its deadline
    g = parse_poly("x1 - x2", R2, gl.LEX)
    gl.buchberger([g], gl.LEX, budget)
    clock.now = 1.1
    with pytest.raises(BudgetExceeded):
        budget.check(0)
    with pytest.raises(BudgetExceeded):  # read before the first pair
        gl.buchberger([parse_poly("x1*x2 - 1", R2, gl.LEX),
                       parse_poly("x1^2 - x2", R2, gl.LEX)], gl.LEX, budget)


class TickingClock(FakeClock):
    """A clock that moves on by `tick` seconds after each reading."""

    def __init__(self, tick):
        super().__init__()
        self.tick = tick
        self.readings = 0

    def monotonic(self):
        self.readings += 1
        self.now += self.tick
        return self.now - self.tick


def test_deadline_is_checked_inside_one_long_normal_form(monkeypatch):
    clock = TickingClock(0.6)
    monkeypatch.setattr(groebner, "time", clock)
    g = parse_poly("x1 - x2", R2, gl.LEX)
    # x1^k -> x1^(k-1)*x2 -> ... -> x2^k takes k reduction steps
    budget = Budget(ms=1000)  # reading 1: deadline 1.0
    assert normal_form(parse_poly("x1^1023", R2, gl.LEX), [g],
                          budget=budget) == parse_poly("x2^1023", R2, gl.LEX)
    assert clock.readings == 1  # no check in 1023 steps
    # before any pair, the second generator reduces against the first in
    # 3000 steps, read at steps 1024 (0.6 s) and 2048 (1.2 s)
    clock.now = 0.0
    with pytest.raises(BudgetExceeded):
        gl.buchberger([g, parse_poly("x1^3000", R2, gl.LEX)], gl.LEX,
                      Budget(ms=1000))
    assert clock.readings == 4


def test_deadline_is_read_at_every_rescaling_over_q():
    """Over Q a reduction step may rescale the whole working polynomial,
    and within one normal form of this system the coefficients grow so
    fast that 1024 steps took 44 s past a 250 ms budget. The deadline is
    read at every rescaling too."""
    ring = Ring(gl.QQ, ("x1", "x2", "x3", "x4"))
    order = gl.InverseBlock(gl.LEX, gl.LEX, 3)
    gens = [parse_poly(text, ring, order) for text in (
        "-2*x3^3 + 5/4*x3^2 - 1/2*x3*x4^2",
        "3/7*x1*x2 + 3/7*x1*x3^2 + 2*x3^2*x4 + 1/2",
        "-2*x1^3 - x1*x3^2 - 2*x2*x3")]
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        gl.buchberger(gens, order, Budget(ms=250))
    assert time.monotonic() - start < 10


def test_one_deadline_covers_every_sampling_trial(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(groebner, "time", clock)
    runs = []

    def slow_buchberger(*args):
        gb = groebner.buchberger(*args)
        runs.append(gb)
        clock.now += 0.6  # every run takes 0.6 s of a 1 s budget
        return gb

    monkeypatch.setattr(generic, "buchberger", slow_buchberger)
    inst = gl.GenericInstance(3, (2, 2), field=gl.generic.GF32003)
    with pytest.raises(BudgetExceeded):
        gl.gin_by_sampling(inst, trials=3, seed=0, budget=Budget(ms=1000))
    assert len(runs) == 2  # the second run ends past the deadline


# ---------------------------------------------------------------------------
# the packed kernel against the tuple kernel of tests/oracles.py

FIELDS = [gl.QQ, gl.PrimeField(2), gl.PrimeField(32003)]
ORDERS = [gl.LEX, gl.DEGLEX, gl.DEGREVLEX, "block"]


#: non-integer coefficients of the systems over Q
RATIONALS = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7), Fraction(5, 4),
             Fraction(-2, 3)]


@st.composite
def systems(draw):
    """2-3 polynomials in n <= 4 variables of degree <= 3, not homogeneous
    in general, over one field and under one order (an inverse block
    order splits off the last variable as a parameter); over Q the
    coefficients include non-integers."""
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from(ORDERS))
    if order == "block":
        order = gl.InverseBlock(draw(st.sampled_from([gl.LEX, gl.DEGREVLEX])),
                                draw(st.sampled_from([gl.LEX, gl.DEGREVLEX])),
                                n - 1)
    ring = Ring(field, tuple(f"x{i + 1}" for i in range(n)))
    mono = st.sampled_from([m for d in range(4)
                            for m in monomials_of_degree(n, d)])
    coeff = st.integers(-4, 4).filter(bool)
    if field == gl.QQ:
        coeff = st.one_of(coeff, st.sampled_from(RATIONALS))
    term = st.tuples(mono, coeff)
    polys = draw(st.lists(st.lists(term, min_size=2, max_size=4),
                          min_size=2, max_size=3))
    gens = [Polynomial.from_terms(ring, order, terms) for terms in polys]
    return [g for g in gens if g], order


@settings(max_examples=60, deadline=None)
@given(systems())
def test_packed_kernel_matches_tuple_kernel(system):
    gens, order = system
    assume(gens)
    try:
        gb = gl.buchberger(gens, order, Budget(ms=250))
    except BudgetExceeded:
        assume(False)
    basis = tuple(gb.generators)
    assert [g.terms for g in basis] == [
        g.terms for g in tuple_buchberger(gens, order)]
    reduced = [g.terms for g in tuple_reduce_basis(basis, order)]
    # from the packed run, and from the basis packed afresh
    assert [g.terms for g in gl.reduce_basis(gb).generators] == reduced
    R = PackedRing(basis[0].ring, order)
    assert [g.terms for g in gl.reduce_basis(gl.GroebnerBasis(
        R, [R.pack(g) for g in basis])).generators] == reduced
    for f in gens:
        for g in basis:
            assert (s_polynomial(f, g, order).terms
                    == tuple_s_polynomial(f, g, order).terms)
        assert (normal_form(f, basis[1:], order).terms
                == tuple_normal_form(f, basis[1:], order).terms)


#: lex, degrevlex and an inverse block order, for the two zones of
#: `normal_form`
ZONE_ORDERS = [gl.LEX, gl.DEGREVLEX, gl.InverseBlock(gl.DEGREVLEX, gl.LEX, 2)]
ZONE_MONOS = [m for d in range(4) for m in monomials_of_degree(3, d)]


@st.composite
def two_zone_cases(draw):
    """f and 1-3 reducers in 3 variables of degree <= 3, over GF(7),
    GF(32003) or Q, with leading coefficients other than 1. f's terms are
    drawn around the least lead: below it, the least lead itself, and
    multiples of the leads, whose tails then cross it."""
    field = draw(st.sampled_from([gl.QQ, gl.PrimeField(7),
                                  gl.PrimeField(32003)]))
    order = draw(st.sampled_from(ZONE_ORDERS))
    ring = Ring(field, ("x1", "x2", "x3"))
    coeff = st.sampled_from([1, -1, 2, 3, -5, Fraction(1, 2),
                             Fraction(-2, 3)])
    term = st.tuples(st.sampled_from(ZONE_MONOS), coeff)
    G = [Polynomial.from_terms(ring, order, terms) for terms in draw(
        st.lists(st.lists(term, min_size=1, max_size=4),
                 min_size=1, max_size=3))]
    G = [g for g in G if g]
    assume(G)
    key = lambda m: packed_key(order, m)
    least = min((lead_monomial(g) for g in G), key=key)
    below = [m for m in ZONE_MONOS if key(m) < key(least)]
    terms = draw(st.lists(st.tuples(st.sampled_from(below), coeff),
                          max_size=3)) if below else []
    if draw(st.booleans()):
        terms.append((least, draw(coeff)))
    for g in draw(st.lists(st.sampled_from(G), max_size=2)):
        q = draw(st.sampled_from(ZONE_MONOS[:4]))
        terms.append((mono_mul(lead_monomial(g), q), draw(coeff)))
    return Polynomial.from_terms(ring, order, terms), G, order


def _zone_case(field, order, f, G):
    ring = Ring(field, ("x1", "x2", "x3"))
    return (parse_poly(f, ring, order),
            [parse_poly(g, ring, order) for g in G], order)


@settings(max_examples=200, deadline=None)
# f wholly below the least lead x1
@example(_zone_case(gl.QQ, gl.LEX, "x2^2 + 3*x3", ["x1 - x2"]))
# a term equal to the least lead x2^2, one below it
@example(_zone_case(gl.PrimeField(7), gl.LEX, "x2^2 + x3^2",
                    ["x1*x2 - x3", "2*x2^2 + x3"]))
# tails on both sides of the least lead x2^2 (x1*x2 > x2^2 > x1*x3)
@example(_zone_case(gl.QQ, gl.DEGREVLEX, "x1^2*x2 + x2*x3",
                    ["x1*x2 - x2^2 + x3^2", "x2^2 - x1*x3"]))
# over Q the step x1 -> x2/2 rescales while x3 waits below x1
@example(_zone_case(gl.QQ, gl.LEX, "x1 + x3", ["2*x1 - x2"]))
@given(two_zone_cases())
def test_two_zone_normal_form_matches_tuple_normal_form(case):
    f, G, order = case
    assert (normal_form(f, G, order).terms
            == tuple_normal_form(f, G, order).terms)


def test_rational_results_are_exact_with_leading_coefficients_2_and_3():
    # pseudo-division scales by 2 and 3 inside the kernel; the public
    # results must still be the exact rational ones, term for term
    f = parse_poly("2*x1^2 + 1/3*x2^2 - x1*x3", R3, gl.LEX)
    g = parse_poly("3*x1*x2 + 5/4*x3^2 + x2", R3, gl.LEX)
    h = parse_poly("x1^3*x2 + 1/2*x2^3 + 7*x1*x2*x3 - x3", R3, gl.LEX)
    s = s_polynomial(f, g)
    assert s == parse_poly("-1/2*x1*x2*x3 - 1/3*x1*x2 - 5/12*x1*x3^2"
                           " + 1/6*x2^3", R3, gl.LEX)
    assert s.terms == tuple_s_polynomial(f, g).terms
    assert (normal_form(h, [f, g]).terms
            == tuple_normal_form(h, [f, g]).terms)
    assert (normal_form(h, [g, f]).terms
            == tuple_normal_form(h, [g, f]).terms)
    gb = gl.buchberger([f, g], gl.LEX)
    basis = tuple(gb.generators)
    assert [b.terms for b in basis] == [
        b.terms for b in tuple_buchberger([f, g], gl.LEX)]
    assert [b.terms for b in gl.reduce_basis(gb).generators] == [
        b.terms for b in tuple_reduce_basis(basis, gl.LEX)]
    assert all(type(c) is Fraction for b in basis for _, c in b.terms)


def test_the_kernel_builds_no_fraction(monkeypatch):
    """Over Q, one Buchberger run on integer input builds no Fraction
    between packing and unpacking: the Fractions it makes are the
    coefficients of the basis it returns, built when the basis is read."""
    inst = gl.GenericInstance(3, (2, 2))
    gens = full_templates(inst)
    made = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    if hasattr(Fraction, "_from_coprime_ints"):
        # Python 3.12+ builds arithmetic results without __new__
        real_coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            made.append(args)
            return real_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counting_coprime))
    basis = tuple(gl.buchberger(gens, inst.order))
    monkeypatch.undo()
    assert basis == tuple(tuple_buchberger(gens, inst.order))
    assert 0 < len(made) <= sum(len(g.terms) for g in basis)


@pytest.mark.parametrize("n,degrees,order,parametric", [
    (4, (2, 2, 2), gl.DEGREVLEX, False),
    (3, (2, 2, 2), gl.LEX, False),
    (2, (2, 2), gl.LEX, True),
    (2, (2, 3), gl.DEGREVLEX, True),
])
def test_packed_kernel_matches_tuple_kernel_on_generic_ideals(
        n, degrees, order, parametric):
    # generic ideals give S-pairs of equal lcm, so these cases also check
    # that ties are taken in the order the pairs were made
    if parametric:
        inst = gl.GenericInstance(n, degrees, main_order=order)
        gens, order = full_templates(inst), inst.order
    else:
        inst = gl.GenericInstance(n, degrees, gl.generic.GF32003, order)
        gens = gl.sample_ideal(inst, seed=5)
    assert [g.terms for g in gl.buchberger(gens, order)] == [
        g.terms for g in tuple_buchberger(gens, order)]


@st.composite
def lead_sequences(draw):
    """Up to 8 leads in n <= 5 variables with exponents <= 2, so that
    equal lcms and coprime leads are common, under lex, degrevlex or an
    inverse block order."""
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from(ORDERS if n > 1 else ORDERS[:3]))
    if order == "block":
        order = gl.InverseBlock(draw(st.sampled_from([gl.LEX, gl.DEGREVLEX])),
                                draw(st.sampled_from([gl.LEX, gl.DEGREVLEX])),
                                draw(st.integers(1, n - 1)))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                          min_size=1, max_size=8))
    return leads, order


@settings(max_examples=150, deadline=None)
# x1*x2 and x1*x3 give the same lcm with x2*x3; x4 is coprime to all
@example(([(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)], gl.LEX))
# main degree 0, so the degrevlex parameter block alone makes the keys,
# with their reversed fields counted negatively
@example(([(0, 0, 1, 1), (0, 0, 0, 2), (0, 0, 2, 0), (0, 0, 1, 0)],
          gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 2)))
@given(lead_sequences())
def test_update_pairs_matches_tuple_update_pairs(case):
    leads, order = case
    n = len(leads[0])
    ring = gl.xring(n)
    layout = order.layout(n)
    serial = count()
    packed, pairs, G, tuple_pairs = [], [], [], []
    for m in leads:
        h = layout.pack(m)
        pairs, colon = groebner._update_pairs(packed, pairs, h, layout,
                                              serial)
        # the minimal ones among a / gcd(a, h) over the old leads a, which
        # generate (leads) : h, with degree fields zero
        assert tuple(sorted(map(layout.unpack, colon), reverse=True)) == (
            tuple_minimalize(n, [tuple(x - min(x, y) for x, y
                                       in zip(lead_monomial(g), m))
                                 for g in G]))
        assert all(q == q & layout.exponent_mask for q in colon)
        packed.append(h)
        f = Polynomial.from_terms(ring, order, [(m, 1)])
        tuple_pairs = _tuple_update_pairs(G, tuple_pairs, f, order)
        G.append(f)
        assert [(i, j, layout.unpack(L))
                for _, _, i, j, L in pairs] == tuple_pairs
        # the selection key carries the lcm degree above its order key
        assert [sel >> layout.bits for sel, *_ in pairs] == [
            layout.degree(L) for *_, L in pairs]
        # the pair list is in creation order
        serials = [pair[1] for pair in pairs]
        assert serials == sorted(serials)


#: the five parametric cases of the gin_param benchmark workload, run as
#: `gin --route parametric --field Q` runs them: lex, with the parameters
#: under degrevlex
GIN_PARAM_CASES = [(3, (2, 2)), (4, (2, 2)), (2, (3, 3)), (2, (2, 2, 3)),
                   (2, (2, 3, 3))]


def _kernel_counts(monkeypatch, run):
    """Normal forms, zero reductions, S-polynomials and largest basis of
    the Buchberger runs that `run()` makes, counted at the wrap points of
    the benchmark's tracer."""
    real_nf, real_sp = groebner.normal_form, groebner.s_polynomial
    real_buchberger = gl.buchberger
    zero, spolys, sizes = [], [], []

    def counting_nf(*args, **kwargs):
        r = real_nf(*args, **kwargs)
        zero.append(not r)
        return r

    def counting_sp(*args, **kwargs):
        spolys.append(1)
        return real_sp(*args, **kwargs)

    def sizing(*args, **kwargs):
        gb = real_buchberger(*args, **kwargs)
        sizes.append(len(gb))
        return gb

    monkeypatch.setattr(groebner, "normal_form", counting_nf)
    monkeypatch.setattr(groebner, "s_polynomial", counting_sp)
    monkeypatch.setattr(generic, "buchberger", sizing)
    run(sizing)
    return len(zero), sum(zero), len(spolys), max(sizes)


def test_kernel_counts_on_the_parametric_cases(monkeypatch):
    """Buchberger on the full templates of the gin_param cases takes
    exactly these counts; a change to pair handling or reducer choice
    shows here."""
    def run(buchberger):
        for n, degrees in GIN_PARAM_CASES:
            inst = gl.GenericInstance(n, degrees)
            buchberger(full_templates(inst), inst.order)

    assert _kernel_counts(monkeypatch, run) == (356, 228, 344, 59)


def test_kernel_counts_of_the_parametric_route(monkeypatch):
    """`gin_parametric` on the gin_param cases, from the normal-form
    family: a change to the family or to the kernel shows here."""
    def run(buchberger):
        for n, degrees in GIN_PARAM_CASES:
            gl.gin_parametric(gl.GenericInstance(n, degrees))

    assert _kernel_counts(monkeypatch, run) == (21, 0, 9, 7)


def test_stop_without_a_certificate_is_the_full_run():
    # over K = k(t1, t2) the ideal is x1 * (x1, x2), whose series
    # 1 + 2t + t^2 + t^3 + ... never meets the bracket series 1 + 2t + t^2
    # of two quadrics, so the flagged run may not stop early
    ring = Ring(gl.QQ, ("x1", "x2", "t1", "t2"))
    order = gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 2)
    gens = [parse_poly("x1^2 + t1*x1*x2", ring, order),
            parse_poly("x1*x2 + t2*x1^2", ring, order)]
    full = gl.buchberger(gens, order).generators
    assert gl.buchberger(gens, order, stop_at_gin=True).generators == full


@pytest.mark.parametrize("order,counts", [(gl.LEX, (320, 1, 264, 55)),
                                          (gl.DEGREVLEX, (148, 0, 92, 11))])
def test_kernel_counts_on_the_criterion_4_grid(monkeypatch, order, counts):
    """Buchberger on the criterion-4 grid, sampled at seed 0 over
    GF(32003), takes exactly these counts: they pin each decision of the
    Hilbert-driven rule."""
    systems = [gl.sample_ideal(gl.GenericInstance(n, d, GF32003, order), 0)
               for n, d in CRIT4_GRID]

    def run(buchberger):
        for gens in systems:
            buchberger(gens, order)

    assert _kernel_counts(monkeypatch, run) == counts


def test_kernel_counts_of_degrevlex_gins_on_the_criterion_4_grid(monkeypatch):
    """`gin_by_sampling` under degrevlex on the criterion-4 grid, 5 trials
    at seed 0 over GF(32003), takes exactly these counts: every trial
    with s < n runs on its section, and a change to the route or to the
    kernel shows here."""
    def run(buchberger):
        for n, d in CRIT4_GRID:
            gl.gin_by_sampling(
                gl.GenericInstance(n, d, GF32003, gl.DEGREVLEX), seed=0)

    assert _kernel_counts(monkeypatch, run) == (740, 0, 460, 11)


@pytest.mark.parametrize("n,degrees", GIN_PARAM_CASES)
def test_packed_leads_are_the_block_leads(n, degrees):
    inst = gl.GenericInstance(n, degrees)
    gb = gl.buchberger(full_templates(inst), inst.order)
    assert [m[:n] for m in lead_monomials(gb)] == [
        block_leading_data(g, inst.main_order, n)[0] for g in gb.generators]


# ---------------------------------------------------------------------------
# the Hilbert-driven rule

@st.composite
def homogeneous_systems(draw):
    """1-4 homogeneous polynomials of degree <= 3 in n <= 4 variables,
    with coefficients from {0, +-1, 2}, so that many systems are far from
    generic; degree 0 gives a constant generator."""
    n = draw(st.integers(1, 4))
    field = draw(st.sampled_from([gl.QQ, gl.PrimeField(2), gl.PrimeField(3),
                                  GF32003]))
    order = draw(st.sampled_from(ORDERS if n > 1 else ORDERS[:3]))
    if order == "block":
        order = gl.InverseBlock(draw(st.sampled_from([gl.LEX, gl.DEGREVLEX])),
                                draw(st.sampled_from([gl.LEX, gl.DEGREVLEX])),
                                n - 1)
    ring = Ring(field, tuple(f"x{i + 1}" for i in range(n)))
    gens = []
    for d in draw(st.lists(st.sampled_from([0, 1, 2, 2, 3, 3]),
                           min_size=1, max_size=4)):
        monos = monomials_of_degree(n, d)
        coeffs = draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                               min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial.from_terms(ring, order, zip(monos, coeffs)))
    return gens, order


CONSTANTS = ([parse_poly("2", R2, gl.LEX)] * 2, gl.LEX)


@settings(max_examples=80, deadline=None)
@example(CONSTANTS)
@given(homogeneous_systems())
def test_hilbert_driven_kernel_matches_tuple_kernel(system):
    gens, order = system
    gens = [g for g in gens if g]
    assume(gens)
    try:
        gb = gl.buchberger(gens, order, Budget(ms=500))
    except BudgetExceeded:
        assume(False)
    assert [g.terms for g in gb] == [
        g.terms for g in tuple_buchberger(gens, order)]
    n = gens[0].ring.nvars
    numerator = tuple_hilbert_numerator(
        gl.MonomialIdeal(n, lead_monomials(gb)))
    degrees = [degree(g) for g in gens]
    if gb.hilbert_numerator is not None:
        assert list(gb.hilbert_numerator) == numerator
    elif min(degrees) >= 1:
        # the rule switched off, so the series is not the bracket series
        assert numerator != bracket_numerator(n, degrees)


@pytest.mark.parametrize("order", [gl.LEX, gl.DEGREVLEX])
def test_hilbert_rule_drops_pairs_on_the_criterion_4_grid(monkeypatch, order):
    systems = [gl.sample_ideal(gl.GenericInstance(n, d, GF32003, order), 0)
               for n, d in CRIT4_GRID]
    real = groebner.normal_form

    def run():
        zero = []  # per normal form: did it reduce to zero

        def counting(*args):
            r = real(*args)
            zero.append(not r)
            return r

        monkeypatch.setattr(groebner, "normal_form", counting)
        bases = [gl.buchberger(gens, order) for gens in systems]
        monkeypatch.setattr(groebner, "normal_form", real)
        return bases, len(zero), sum(zero)

    bases, calls, zeros = run()
    # the series differ in degree 0: the rule switches off at once
    monkeypatch.setattr(groebner._HilbertCount, "first_difference",
                        lambda self: 0)
    plain, plain_calls, plain_zeros = run()
    assert [[g.terms for g in gb] for gb in bases] == [
        [g.terms for g in gb] for gb in plain]
    assert all(gb.hilbert_numerator is not None for gb in bases)
    assert all(gb.hilbert_numerator is None for gb in plain)
    assert calls < plain_calls and zeros <= plain_zeros // 10


def test_complete_count_ends_the_run_before_the_pair_cap():
    # the x-lead count of this trial matches the bracket series while
    # pairs are left; the run ends there, before a budget check that
    # would see more than five pairs
    inst = gl.GenericInstance(3, (2, 2, 2), GF32003)
    gens = gl.sample_ideal(inst, seed=0)
    capped = gl.buchberger(gens, gl.LEX, Budget(max_pairs=5))
    assert [g.terms for g in capped] == [
        g.terms for g in gl.buchberger(gens, gl.LEX)]
    assert gl.is_u_generic(capped, inst) == "yes"


def test_one_hilbert_count_per_run(monkeypatch):
    built = []
    real = groebner._HilbertCount.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(groebner._HilbertCount, "__init__", counting)
    runs = 0
    for n, degrees in GIN_PARAM_CASES:
        for order in (gl.LEX, gl.DEGREVLEX):
            inst = gl.GenericInstance(n, degrees, GF32003, order)
            gl.gin_parametric(inst)
            # homogeneous in x and in all the variables
            full = full_templates(inst)
            gl.buchberger(full, inst.order)
            gl.buchberger(full, inst.order, stop_at_gin=True)
            gl.buchberger(gl.sample_ideal(inst, seed=0), order)
            runs += 4
    assert len(built) == runs


def test_hilbert_rule_switches_off_at_a_non_generic_point():
    inst = gl.GenericInstance(3, (2, 2, 2), gl.PrimeField(3))
    gens = gl.sample_ideal(inst, seed=2)
    gb = gl.buchberger(gens, gl.LEX)
    assert gb.hilbert_numerator is None
    assert gl.is_u_generic(gb, inst) == "no"
    assert [g.terms for g in gb] == [
        g.terms for g in tuple_buchberger(gens, gl.LEX)]


def test_product_past_the_field_width_raises():
    # x1^2 -> x1*x2^20000 -> x2^40000 under lex: the second step overflows
    f = parse_poly("x1^2", R2, gl.LEX)
    g = parse_poly("x1 - x2^20000", R2, gl.LEX)
    with pytest.raises(ExponentOverflow):
        normal_form(f, [g])
    with pytest.raises(ExponentOverflow):
        gl.buchberger([f, g], gl.LEX)
    # S = x2 - x1^19999*x2^20000, of degree 39999
    with pytest.raises(ExponentOverflow):
        s_polynomial(parse_poly("x1^20000 + x2", R2, gl.LEX),
                        parse_poly("x2^20000 + x1", R2, gl.LEX))
    # a pair's lcm, x1^20000*x2^20000*x3, has degree 40001
    layout = gl.LEX.layout(3)
    with pytest.raises(ExponentOverflow):
        groebner._update_pairs([layout.pack((20000, 0, 1))], [],
                               layout.pack((0, 20000, 1)), layout, count())
    assert normal_form(parse_poly("x1*x2", R2, gl.LEX), [g]) == parse_poly(
        "x2^20001", R2, gl.LEX)


#: orders with one block, where a reducer's slack is the largest degree
#: in every field, and an inverse block, where it is the field-wise maximum
SLACK_ORDERS = [gl.LEX, gl.DEGLEX, gl.DEGREVLEX,
                gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 2)]
BIG = st.one_of(st.integers(0, 3), st.integers(0, 20000))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SLACK_ORDERS),
       st.lists(st.tuples(BIG, BIG, BIG).filter(lambda m: sum(m) <= EXP_MAX),
                min_size=1, max_size=4),
       st.tuples(BIG, BIG, BIG))
def test_reducer_slack_flags_exactly_the_overflowing_products(order, monos,
                                                              q):
    """For m = lead(g) * q, ``slack + m`` sets a guard bit iff a monomial
    of g times q has an exponent or a block degree past EXP_MAX."""
    R = PackedRing(R3, order)
    g = Polynomial.from_terms(R3, order, [(m, 1) for m in monos])
    try:
        m = R.layout.pack(mono_mul(lead_monomial(g), q))
    except ExponentOverflow:
        assume(False)
    slack = R.reducer(R.pack(g))[2]

    def overflows(t):
        try:
            R.layout.pack(mono_mul(t, q))
        except ExponentOverflow:
            return True
        return False

    assert bool((slack + m) & R.layout.guard) == any(
        overflows(t) for t, _ in g.terms)


def test_products_at_the_field_width_edge():
    """Products of degree EXP_MAX reduce as in the tuple kernel (in
    `normal_form` every exponent stays far below it, so the degree field
    decides); one degree more raises, in `normal_form` and in
    `s_polynomial`."""
    g = parse_poly("x1 - x2^20000", R3, gl.LEX)
    f2 = parse_poly("x1*x2 - x3^20000", R3, gl.LEX)
    for k, fits in ((12767, True), (12768, False)):
        f = parse_poly(f"x1*x3^{k} + x3", R3, gl.LEX)
        h = parse_poly(f"x1*x3^{k} + x2", R3, gl.LEX)
        if fits:
            assert normal_form(f, [g]) == tuple_normal_form(f, [g])
            assert normal_form(f, [g]) == parse_poly(
                f"x2^20000*x3^{k} + x3", R3, gl.LEX)
            assert s_polynomial(f2, h) == tuple_s_polynomial(f2, h)
            assert s_polynomial(f2, h) == parse_poly(
                f"-x3^{20000 + k} - x2^2", R3, gl.LEX)
        else:
            with pytest.raises(ExponentOverflow):
                normal_form(f, [g])
            with pytest.raises(ExponentOverflow):
                s_polynomial(f2, h)
    # in a run, the lcm of x1 and the reduced lead must fit too
    f = parse_poly("x1*x3^12766 + x3", R3, gl.LEX)
    assert [b.terms for b in gl.buchberger([g, f], gl.LEX)] == [
        b.terms for b in tuple_buchberger([g, f], gl.LEX)]


def test_coprime_leads_with_an_lcm_past_the_field_width():
    """x1 and the reduced lead x2^20000*x3^12767 are coprime, so their
    pair is dropped before its lcm, of degree 32768, would be packed."""
    gens = [parse_poly("x1 - x2^20000", R3, gl.LEX),
            parse_poly("x1*x3^12767 + x3", R3, gl.LEX)]
    basis = [b.terms for b in gl.buchberger(gens, gl.LEX)]
    assert basis == [b.terms for b in tuple_buchberger(gens, gl.LEX)]
    assert basis == [parse_poly(g, R3, gl.LEX).terms for g in
                     ("x1 - x2^20000", "x2^20000*x3^12767 + x3")]


# ---------------------------------------------------------------------------
# stability check

def test_stability_no_parameters():
    gb = gl.reduce_basis(gl.buchberger(
        [parse_poly("x1", R2, gl.LEX), parse_poly("x2", R2, gl.LEX)], gl.LEX))
    v = stability_check(gb.generators, ())
    assert v.stable and v.survivors == (0, 1)


def test_stability_vanishing_generator():
    ring = Ring(gl.QQ, ("x1", "x2", "t1"))
    gens = lambda order: [
        Polynomial.from_terms(ring, order, [((1, 0, 1), 1)]),  # t1*x1
        Polynomial.from_terms(ring, order, [((0, 1, 0), 1)])]  # x2
    v = stability_check(gens(gl.InverseBlock(gl.LEX, gl.LEX, 2)), (0,))
    assert v.stable and v.survivors == (1,)
    # the block lead is the lead's x-part only under an inverse block order
    with pytest.raises(ValueError):
        stability_check(gens(gl.LEX), (0,))


def test_stability_generic_point_matches_sampling():
    inst = gl.GenericInstance(2, (2, 2))
    gb = gl.buchberger(full_templates(inst), inst.order)
    point = gl.sample_point(inst, seed=11, bound=99)
    v = stability_check(gb.generators, point)
    assert v.stable
    leads = []
    for i in v.survivors:
        lm, _ = block_leading_data(gb.generators[i], gl.LEX, 2)
        if any(lm):
            leads.append(lm)
    assert (gl.MonomialIdeal(2, leads).gens
            == gl.gin_by_sampling(inst, seed=3).ideal.gens
            == ((2, 0), (1, 1), (0, 3)))
