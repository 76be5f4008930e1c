import random
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

import ginlab as gl
from ginlab import series
from ginlab.series import (InadmissibleHilbertFunction, bracket_numerator,
                           bracket_truncate, froeberg_series,
                           gotzmann_number, lexsegment_bound,
                           lexsegment_of_froeberg, lexsegment_of_hf,
                           regularity_index)
from ginlab.ideals import hilbert_series, top_degree
from ginlab.props import is_lexsegment

from conftest import GIN_32_22
from oracles import (lexsegment_by_enumeration, macaulay_bound,
                     monomials_of_degree, persistence_degree,
                     series_coefficient)
from test_acceptance import CRIT4_GRID
from test_ideals import random_monomial_ideal


def test_bracket_truncate():
    s = (1, 2, 0, -2, -1)
    assert bracket_truncate(s) == (1, 2, 0, 0, 0)
    pos = (1, 3, 6, 10)
    assert bracket_truncate(pos) == pos
    assert bracket_truncate([0, 5, 5]) == (0, 0, 0)
    assert bracket_truncate(bracket_truncate(s)) == bracket_truncate(s)


def test_froeberg_known_values():
    assert froeberg_series(3, (2, 2), 5) == (1, 3, 4, 4, 4, 4)
    assert froeberg_series(3, (2, 2, 2), 5) == (1, 3, 3, 1, 0, 0)
    # (1-t^2)^3/(1-t)^2 = 1 + 2t - 2t^3 - t^4, bracketed at index 2
    assert froeberg_series(2, (2, 2, 2), 4) == (1, 2, 0, 0, 0)


def test_bracket_numerator_expands_to_the_bracket_series():
    assert bracket_numerator(3, (2, 2)) == [1, 0, -2, 0, 1]
    # (1 + 2t)(1 - t)^2: the bracket series 1 + 2t of (2, (2, 2, 2))
    assert bracket_numerator(2, (2, 2, 2)) == [1, 0, -3, 2]
    assert bracket_numerator(1, (1, 2)) == [1, -1]  # S/(x1)
    for n in range(1, 5):
        for s in range(1, 5):
            for degrees in [(2,) * s, (3,) * s, (1, 3, 2, 2)[:s]]:
                top = sum(degrees) + n + 3
                window = froeberg_series(n, degrees, top)
                product = [1]
                for d in degrees:
                    product = [a - b for a, b in
                               zip(product + [0] * d, [0] * d + product)]
                assert window == bracket_truncate(
                    series_coefficient(product, n, e) for e in range(top + 1))
                num = bracket_numerator(n, degrees)
                assert tuple(series_coefficient(num, n, e)
                             for e in range(top + 1)) == window
                assert len(num) <= sum(degrees) + 1 and num[-1]


def test_froeberg_regular_sequence_stays_positive():
    # s <= n: no truncation should ever fire
    for n, degrees in [(2, (2,)), (3, (2, 3)), (3, (2, 2, 2)), (4, (3, 3))]:
        if len(degrees) < n:
            s = froeberg_series(n, degrees, 20)
            assert all(c > 0 for c in s)


def test_lexsegment_quadrics_fixture():
    J, uncertain = lexsegment_of_hf(3, (1, 3, 4, 4, 4, 4, 4, 4))
    assert J.gens == GIN_32_22
    assert not uncertain


def test_lexsegment_artinian_fixture():
    J, _ = lexsegment_of_hf(3, (1, 3, 3, 1, 0, 0, 0, 0))
    assert set(J.gens) == {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0),
                           (0, 2, 1), (0, 1, 2), (0, 0, 4)}
    assert hilbert_series(J, 5) == [1, 3, 3, 1, 0, 0]


def test_lexsegment_two_variables():
    J, _ = lexsegment_of_hf(2, (1, 2, 1, 0, 0, 0))
    assert set(J.gens) == {(2, 0), (1, 1), (0, 3)}


def test_lexsegment_output_is_lexsegment():
    rng = random.Random(3)
    for _ in range(15):
        J = random_monomial_ideal(rng, 3)
        D = gl.top_degree(J) + 6
        L, _ = lexsegment_of_hf(3, hilbert_series(J, D))
        assert is_lexsegment(L).holds


def test_lexsegment_inadmissible_input():
    with pytest.raises(InadmissibleHilbertFunction):
        lexsegment_of_hf(2, (1, 2, 9))
    with pytest.raises(InadmissibleHilbertFunction):
        lexsegment_of_hf(2, (0, 2, 1))
    with pytest.raises(InadmissibleHilbertFunction):
        lexsegment_of_hf(2, (1, 2, -1))


def test_lex_monomials_unrank_consecutive_ranks():
    """Every window of ranks, unranked from its first rank and then by
    colex steps, is that slice of the ascending-lex enumeration."""
    for n in range(1, 6):
        for d in range(7):
            ascending = monomials_of_degree(n, d)[::-1]
            N = len(ascending)
            assert series._lex_monomials(n, d) == ascending
            assert series._lex_monomials(n, d, 0, N) == ascending
            for lo in range(N + 1):
                for hi in (lo, lo + 1, lo + 3, N):
                    assert (series._lex_monomials(n, d, lo, min(hi, N))
                            == ascending[lo:hi])


def test_macaulay_generator_maximality():
    # the lexsegment ideal has, degree by degree, at least as many minimal
    # generators as any monomial ideal with the same Hilbert series
    rng = random.Random(5)
    for _ in range(15):
        J = random_monomial_ideal(rng, 3)
        D = gl.top_degree(J) + 7
        L, uncertain = lexsegment_of_hf(3, hilbert_series(J, D))
        if uncertain:
            continue
        for d in range(1, D + 1):
            lex_count = sum(1 for g in L.gens if sum(g) == d)
            src_count = sum(1 for g in J.gens if sum(g) == d)
            assert lex_count >= src_count


def test_maxgbdeg_bound_values():
    assert top_degree(lexsegment_of_hf(3, (1, 3, 4, 4, 4, 4, 4, 4))[0]) == 4
    assert top_degree(lexsegment_of_hf(3, (1, 3, 3, 1, 0, 0, 0, 0))[0]) == 4
    assert top_degree(lexsegment_of_hf(2, (1, 2, 1, 0, 0, 0))[0]) == 3


def test_lexsegment_of_froeberg_matches_explicit_hf():
    J, uncertain = lexsegment_of_froeberg(3, (2, 2))
    assert J.gens == GIN_32_22 and not uncertain


@st.composite
def admissible_prefix(draw):
    """n and an admissible Hilbert function h_0..h_D (h_1 <= n and
    h_{d+1} <= h_d^<d>), each coefficient drawn below its bound."""
    n = draw(st.integers(1, 4))
    h, bound = [1], n
    for d in range(1, draw(st.integers(0, 9)) + 1):
        h.append(draw(st.integers(0, bound)))
        bound = macaulay_bound(h[-1], d)
    return n, h, bound


@settings(max_examples=60, deadline=None)
@given(admissible_prefix())
def test_lexsegment_matches_enumeration_on_admissible_sequences(case):
    n, h, _ = case
    assert lexsegment_of_hf(n, h) == lexsegment_by_enumeration(n, h)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                min_size=1, max_size=6),
       st.integers(0, 4))
def test_lexsegment_matches_enumeration_on_monomial_ideals(n, exps, extra):
    gens = [tuple(e[:n]) for e in exps if any(e[:n])]
    J = gl.MonomialIdeal(n, gens)
    hf = hilbert_series(J, top_degree(J) + extra)
    assert lexsegment_of_hf(n, hf) == lexsegment_by_enumeration(n, hf)


@settings(max_examples=60, deadline=None)
@given(admissible_prefix(), st.integers(1, 50))
def test_coefficient_above_macaulay_bound_is_inadmissible(case, excess):
    n, h, bound = case
    d = len(h)
    assume(bound < comb(n - 1 + d, d))
    h = h + [min(bound + excess, comb(n - 1 + d, d))]
    with pytest.raises(InadmissibleHilbertFunction):
        lexsegment_of_hf(n, h)
    with pytest.raises(InadmissibleHilbertFunction):
        lexsegment_by_enumeration(n, h)


def test_froeberg_lexsegment_builds_once(monkeypatch):
    calls = Counter()

    def counting(name):
        fn = getattr(series, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(series, name, wrapped)

    counting("lexsegment_of_hf")
    counting("hilbert_series")
    for n, degrees in [(3, (2, 2)), (4, (2, 3)), (5, (2, 2, 2, 2))]:
        calls.clear()
        lexsegment_of_froeberg(n, degrees)
        assert calls == {"lexsegment_of_hf": 1, "hilbert_series": 1}


@pytest.mark.parametrize(
    "n, degrees",
    CRIT4_GRID + [(5, (2, 2)), (5, (2, 2, 2)), (5, (2, 2, 2, 2))],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_certified_horizon_matches_enumeration_at_twice_it(n, degrees):
    J, uncertain = lexsegment_of_froeberg(n, degrees)
    assert not uncertain
    E = max(1, regularity_index(n, degrees), top_degree(J))
    L, _ = lexsegment_by_enumeration(n, froeberg_series(n, degrees, 2 * E))
    assert L == J


def test_explicit_horizon_flag_is_exact():
    full, _ = lexsegment_of_froeberg(3, (2, 2))
    assert top_degree(full) == 4
    for H in range(7):
        J, uncertain = lexsegment_of_froeberg(3, (2, 2), horizon=H)
        assert J.gens == tuple(g for g in full.gens if sum(g) <= H)
        assert uncertain == (H < 4)


#: every (n, sorted degrees) with n <= 6, s <= 5 and degrees in {1, 2, 3}
GOTZMANN_GRID = [(n, degrees) for n in range(1, 7) for s in range(1, 6)
                 for degrees in combinations_with_replacement((1, 2, 3), s)]


def test_stop_degree_is_the_persistence_degree():
    """E = max(1, r, G) is the first degree from which the bracket series
    persists, and when G > r the bound is the top degree of the ideal built
    through that degree. The oracle gives up past degree 1500, where E
    lies for four cases (E = 2997 to 41085)."""
    assert len(GOTZMANN_GRID) == 330
    past_limit = 0
    for n, degrees in GOTZMANN_GRID:
        r, G = regularity_index(n, degrees), gotzmann_number(n, degrees)
        E = max(1, r, G)
        e = persistence_degree(n, degrees, limit=1500)
        assert e == (E if E <= 1500 else None), (n, degrees)
        past_limit += e is None
        if e is not None and G > r:
            L, _ = lexsegment_of_hf(n, froeberg_series(n, degrees, e))
            assert lexsegment_bound(n, degrees) == (top_degree(L), False)
    assert past_limit == 4


def test_gotzmann_number_values():
    # P = 4 for n=3 (2,2): 4 terms C(d - i + 1, 0)
    assert gotzmann_number(3, (2, 2)) == 4
    # a conic, P(d) = 2d + 1 = C(d + 1, 1) + C(d, 1)
    assert gotzmann_number(3, (2,)) == 2
    # a space quartic of genus 1, P(d) = 4d: four terms C(d + 2 - i, 1)
    # sum to 4d - 2, and two terms 1 make up the rest
    assert gotzmann_number(4, (2, 2)) == 6
    # a canonical curve of genus 4, P(d) = 6d - 3: six linear terms, six 1s
    assert gotzmann_number(4, (2, 3)) == 12
    # Artinian: P = 0, no term
    assert gotzmann_number(3, (2, 2, 2)) == 0
    assert gotzmann_number(1, (1,)) == 0
