import random
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import ginlab as gl
from ginlab import ideals
from ginlab.ideals import (_minimal, _numerator, contains, hilbert_numerator,
                           hilbert_series, power_series, stable_numerator,
                           times_one_minus)
from ginlab.orders import (DEGLEX, DEGREVLEX, EXP_MAX, FIELD_BITS, LEX,
                           ExponentOverflow, InverseBlock)
from ginlab.props import is_borel_fixed, is_lexsegment, is_weakly_revlex
from ginlab.series import _lex_monomials

from conftest import GIN_32_22, INI_I, INI_J
from oracles import (hilbert_function_bruteforce, is_stable_by_scan,
                     series_coefficient, tuple_contains,
                     tuple_hilbert_numerator, tuple_minimalize)


def random_monomial_ideal(rng, n, max_gens=6, max_exp=4):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if any(g)]
    return gl.MonomialIdeal(n, gens if gens else [(1,) * n])


def test_minimalize():
    assert gl.MonomialIdeal(1, [(1,), (2,)]).gens == ((1,),)
    assert gl.MonomialIdeal(2, []).gens == ()
    assert gl.MonomialIdeal(3, list(GIN_32_22)).gens == GIN_32_22


def test_minimalize_idempotent():
    rng = random.Random(0)
    for _ in range(20):
        J = random_monomial_ideal(rng, 3)
        assert gl.MonomialIdeal(J.n, J.gens).gens == J.gens


def test_contains():
    J = gl.MonomialIdeal(3, [(2, 0, 0)])
    assert gl.contains(J, (2, 0, 1))
    J4 = gl.MonomialIdeal(4, [g + (0,) for g in GIN_32_22])
    assert not gl.contains(J4, (1, 0, 1, 2))
    zero = gl.MonomialIdeal(2, [])
    assert not gl.contains(zero, (3, 1))


def test_contains_generators():
    rng = random.Random(1)
    for _ in range(20):
        J = random_monomial_ideal(rng, 3)
        assert all(gl.contains(J, g) for g in J.gens)


@pytest.mark.parametrize("gens,dropped", [
    ([[2, 0, 0], [1, 1, 0], [0, 3, 2], [0, 0, 5]], 0),  # minimal already
    ([[2, 0, 0], [3, 1, 0], [1, 1, 0], [1, 1, 0], [0, 3, 2], [0, 0, 5],
      [1, 0, 7]], 2),
])
def test_loaded_ideal_checks_once_and_keeps_a_valid_index(gens, dropped,
                                                          monkeypatch):
    checks = []
    check = ideals._check
    monkeypatch.setattr(ideals, "_check",
                        lambda n, g: checks.append(n) or check(n, g))
    J = gl.MonomialIdeal.from_json({"n": 3, "gens": gens})
    assert len(checks) == 1
    assert len(J.gens) == len({tuple(g) for g in gens}) - dropped
    fresh = gl.MonomialIdeal(J.n, J.gens)  # its index is built anew
    assert fresh == J
    for m in product(range(8), repeat=3):
        assert contains(J, m) == contains(fresh, m) == tuple_contains(J, m)


def test_contains_dimension_check():
    with pytest.raises(ValueError):
        gl.contains(gl.MonomialIdeal(2, [(1, 0)]), (1, 0, 0))


@st.composite
def membership_cases(draw):
    """(n, generators, queries) in n <= 4 variables, exponents up to
    40000. Generators may repeat or be multiples of others; queries
    include multiples of generators and monomials whose every exponent
    is above every generator exponent."""
    n = draw(st.integers(1, 4))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 40000))
    mono = st.tuples(*[exponent] * n)
    gens = draw(st.lists(mono, max_size=8))
    multiples = [tuple(a + b for a, b in zip(g, draw(mono)))
                 for g in draw(st.lists(st.sampled_from(gens), max_size=4))
                 ] if gens else []
    top = max((e for g in gens for e in g), default=0)
    above = st.tuples(*[st.integers(top + 1, top + 10**6)] * n)
    queries = draw(st.lists(mono, max_size=6)) + draw(st.lists(above,
                                                              max_size=2))
    return n, gens + multiples, queries + multiples


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_packed_membership_matches_tuple_scans(case):
    n, gens, queries = case
    J = gl.MonomialIdeal(n, gens)
    assert J.gens == tuple_minimalize(n, gens)
    for m in queries + gens:
        assert gl.contains(J, m) == tuple_contains(J, m)


@st.composite
def redundant_generators(draw):
    """(n, generators) in n <= 4 variables, exponents <= 3, in any order,
    with repeats and multiples of other generators among them."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(mono, max_size=6))
    multiples = [tuple(a + b for a, b in zip(g, draw(mono)))
                 for g in draw(st.lists(st.sampled_from(gens), max_size=4))
                 ] if gens else []
    return n, draw(st.permutations(gens + multiples + gens[:2]))


@settings(max_examples=200, deadline=None)
@example((3, [(1, 3, 2), (1, 3, 1), (1, 0, 0)]))  # (x1), weakly revlex
@example((2, [(3, 2), (3, 0), (2, 0), (1, 0)]))  # (x1), a lexsegment
@example((2, [(0, 1), (1, 0)]))  # (x1, x2), in either order
@given(redundant_generators())
def test_an_ideal_is_its_minimal_generators(case):
    n, gens = case
    J = gl.MonomialIdeal(n, gens)
    minimal = tuple_minimalize(n, gens)
    assert J.gens == minimal
    assert J == gl.MonomialIdeal(n, gens[::-1])
    # the same ideal built from the oracle's generators packs its own index
    K = ideals._ideal(n, minimal)
    assert J == K and hash(J) == hash(K)
    for answer in (is_lexsegment, is_weakly_revlex, is_borel_fixed,
                   lambda I: is_borel_fixed(I, 2), hilbert_numerator):
        assert answer(J) == answer(K)


def test_hilbert_numerator_zero_ideal():
    assert hilbert_numerator(gl.MonomialIdeal(3, [])) == [1]


def test_hilbert_series_fixtures():
    J = gl.MonomialIdeal(3, list(GIN_32_22))
    assert hilbert_series(J, 6) == [1, 3, 4, 4, 4, 4, 4]
    I = gl.MonomialIdeal(3, list(INI_I))
    assert hilbert_series(I, 6) == [1, 3, 3, 1, 0, 0, 0]
    Jv = gl.MonomialIdeal(3, list(INI_J))
    assert hilbert_series(Jv, 6) == [1, 3, 3, 1, 0, 0, 0]


def test_hilbert_function_values():
    assert hilbert_series(gl.MonomialIdeal(3, []), 2)[2] == 6
    J = gl.MonomialIdeal(3, list(GIN_32_22))
    # standard monomials in degree 3: x2^3, x2^2 x3, x2 x3^2, x3^3
    assert hilbert_series(J, 3)[3] == 4
    unit = gl.MonomialIdeal(2, [(0, 0)])
    assert hilbert_series(unit, 4) == [0] * 5


def test_top_degree():
    assert gl.top_degree(gl.MonomialIdeal(3, list(GIN_32_22))) == 4
    assert gl.top_degree(gl.MonomialIdeal(1, [(1,)])) == 1
    assert gl.top_degree(gl.MonomialIdeal(3, list(INI_J))) == 4
    assert gl.top_degree(gl.MonomialIdeal(2, [])) == 0


def test_hilbert_function_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        J = random_monomial_ideal(rng, n)
        for d in range(9):
            assert hilbert_series(J, d)[d] == hilbert_function_bruteforce(J, d)


def test_numerator_consistent_with_series():
    rng = random.Random(9)
    for _ in range(10):
        J = random_monomial_ideal(rng, 3)
        series = hilbert_series(J, 8)
        for d in range(9):
            assert hilbert_series(J, d)[d] == series[d]


def test_lex_monomials_complete_and_ascending():
    for n in range(1, 5):
        for d in range(5):
            monos = _lex_monomials(n, d)
            assert len(monos) == comb(n - 1 + d, d)
            assert all(len(m) == n and sum(m) == d for m in monos)
            assert all(a < b for a, b in zip(monos, monos[1:]))


@pytest.mark.parametrize("gens", [
    [(-1, 2)], [(1.5, 2)], [(True, 2)], [("1", 2)], [(1, 2, 3)], [(1,)],
], ids=repr)
def test_monomial_ideal_rejects_bad_exponents(gens):
    with pytest.raises(ValueError):
        gl.MonomialIdeal(2, tuple(gens))
    # the loader runs the same check
    with pytest.raises((ValueError, TypeError)):
        gl.MonomialIdeal.from_json({"n": 2, "gens": [list(g) for g in gens]})


def test_monomial_ideal_needs_a_variable():
    with pytest.raises(ValueError):
        gl.MonomialIdeal(0, ())


@st.composite
def monomial_ideals(draw):
    """(n, generators): n <= 5, exponents <= 5; the generators may repeat
    or divide each other, and may be none (the zero ideal) or include 1
    (the unit ideal), pure powers and lone variables."""
    n = draw(st.integers(1, 5))
    exponent = st.integers(0, 5)
    var = st.integers(0, n - 1)
    power = st.builds(lambda v, e: tuple(e if i == v else 0 for i in range(n)),
                      var, st.integers(1, 5))
    lone = st.builds(lambda v: tuple(int(i == v) for i in range(n)), var)
    k = draw(st.integers(0, 10))
    gens = (draw(st.lists(st.tuples(*[exponent] * n).filter(any),
                          min_size=k, max_size=k))
            + draw(st.lists(power, max_size=2))
            + draw(st.lists(lone, max_size=1)))
    if draw(st.integers(0, 9)) == 0:  # 1 swallows the rest, so rarely
        gens.append((0,) * n)
    return n, gens


def _order(n, which):
    # from n = 2 on the inverse block order has two blocks, so two degree
    # fields: on top of the degrevlex main block and at the bottom of the
    # lex parameter block
    return {"lex": LEX, "deglex": DEGLEX, "degrevlex": DEGREVLEX,
            "inverse-block": InverseBlock(DEGREVLEX, LEX, (n + 1) // 2)}[which]


@settings(max_examples=150, deadline=None)
@given(monomial_ideals(),
       st.sampled_from(["lex", "deglex", "degrevlex", "inverse-block"]))
def test_packed_numerator_matches_tuple_recursion(ideal, which):
    n, gens = ideal
    layout = _order(n, which).layout(n)
    J = gl.MonomialIdeal(n, gens)
    expected = tuple_hilbert_numerator(J)
    packed = [layout.pack(g) & layout.exponent_mask for g in gens]
    minimal = frozenset(_minimal(packed, layout.guard))
    assert _numerator(minimal, layout, {}) == expected
    assert hilbert_numerator(J) == expected


@settings(max_examples=60, deadline=None)
@given(monomial_ideals(), st.integers(0, 14))
def test_hilbert_series_by_prefix_sums(ideal, horizon):
    n, gens = ideal
    J = gl.MonomialIdeal(n, gens)
    num = hilbert_numerator(J)
    assert hilbert_series(J, horizon) == [
        series_coefficient(num, n, d) for d in range(horizon + 1)]


def _first_nonzero(coeffs):
    return next((i for i, c in enumerate(coeffs) if c), None)


NUMERATORS = st.lists(st.integers(-5, 5), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(NUMERATORS, st.integers(0, 5), st.integers(0, 12))
def test_power_series_is_first_nonzero_where_the_numerator_is(num, n, horizon):
    # (1 - t)^n is a unit of Z[[t]] with constant term 1
    assert _first_nonzero(power_series(num, n, horizon)) == _first_nonzero(
        num[:horizon + 1])


@settings(max_examples=100, deadline=None)
@given(NUMERATORS, st.integers(0, 5), st.integers(0, 12))
def test_times_one_minus_undoes_power_series(num, n, horizon):
    expanded = power_series(num, n, horizon)
    assert times_one_minus(expanded, [1] * n)[:horizon + 1] == (
        num + [0] * horizon)[:horizon + 1]


def test_inverse_block_layout_has_two_degree_fields():
    layout = _order(4, "inverse-block").layout(4)
    assert layout.bits == FIELD_BITS * (4 + 2)
    assert len(layout.exponent_shifts) == 4


@pytest.mark.parametrize("gens", [[(EXP_MAX + 1, 0)], [(1, EXP_MAX + 1)],
                                  [(20000, 20000)]], ids=repr)
def test_hilbert_data_past_the_field_width_raise(gens):
    J = gl.MonomialIdeal(2, gens)
    with pytest.raises(ExponentOverflow):
        hilbert_numerator(J)
    with pytest.raises(ExponentOverflow):
        hilbert_series(J, 3)
    # the tuple operations have no such limit
    assert gl.contains(J, (40000, 40000))
    assert hilbert_numerator(gl.MonomialIdeal(2, [(EXP_MAX, 0)])) == (
        [1] + [0] * (EXP_MAX - 1) + [-1])


def _stable_closure(n, gens):
    """The smallest stable ideal containing the monomials `gens`: add the
    moves x_j w / x_m(w) of the generators until every one lies in it."""
    todo, kept = list(gens), list(gens)
    while todo:
        w = todo.pop()
        support = [i for i, e in enumerate(w) if e]
        for j in range(support[-1] if support else 0):
            moved = list(w)
            moved[support[-1]] -= 1
            moved[j] += 1
            moved = tuple(moved)
            if not any(all(a <= b for a, b in zip(g, moved)) for g in kept):
                kept.append(moved)
                todo.append(moved)
    return gl.MonomialIdeal(n, kept)


def _certificate(J):
    layout = LEX.layout(J.n)
    return stable_numerator(J.n, [layout.pack(g) for g in J.gens])


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_stable_ideals_take_the_eliahou_kervaire_sum(ideal):
    n, gens = ideal
    J = _stable_closure(n, gens)
    assert all(contains(J, g) for g in gens)
    expected = tuple_hilbert_numerator(J)
    assert _certificate(J) == expected
    assert hilbert_numerator(J) == expected


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_stability_certificate_is_exact(ideal):
    n, gens = ideal
    J = gl.MonomialIdeal(n, gens)
    assert (_certificate(J) is not None) == is_stable_by_scan(J)


def test_stability_certificate_needs_minimal_generators():
    # x1 * x2 is redundant, and the sum over both would count it twice;
    # the constructor drops it, so the certificate never sees it
    J = gl.MonomialIdeal(2, ((1, 1), (1, 0)))
    assert J.gens == ((1, 0),)
    assert _certificate(J) == [1, -1]
    assert hilbert_numerator(J) == [1, -1]


def test_stable_numerator_of_lexsegment_ideals():
    for n, degrees in [(3, (2, 2)), (4, (3, 3, 3)), (5, (2, 2, 3))]:
        L, _ = gl.series.lexsegment_of_froeberg(n, degrees)
        layout = LEX.layout(n)
        packed = [layout.pack(g) for g in L.gens]
        assert stable_numerator(n, packed) == _numerator(
            frozenset(P & layout.exponent_mask for P in packed), layout, {})


def test_power_pivot_keeps_the_recursion_shallow():
    # pivoting on x1 alone would recurse 3000 levels deep
    J = gl.MonomialIdeal(2, [(3000, 1), (0, 2)])
    assert _certificate(J) is None  # x1 * x2 is missing: not stable
    assert hilbert_numerator(J) == (
        [1, 0, -1] + [0] * 2998 + [-1, 1])
