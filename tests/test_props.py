import random

import pytest
from hypothesis import example, given, settings, strategies as st

import ginlab as gl
from ginlab import props
from ginlab.generic import GF32003
from ginlab.props import is_borel_fixed, is_lexsegment, is_weakly_revlex
from ginlab.series import _macaulay_digits

from conftest import GIN_32_22, INI_I, INI_J
from oracles import (borel_action_check, is_borel_fixed_by_scan,
                     is_lexsegment_by_enumeration, is_weakly_revlex_by_scan,
                     monomials_of_degree, packed_key)
from test_ideals import random_monomial_ideal


def test_is_lexsegment_examples():
    assert is_lexsegment(gl.MonomialIdeal(3, list(GIN_32_22))).holds
    J4 = gl.MonomialIdeal(4, [g + (0,) for g in GIN_32_22])
    v = is_lexsegment(J4)
    assert not v.holds
    member, missing = v.witness
    assert missing == (1, 0, 1, 2)  # x1*x3*x4^2 is absent
    assert member == (0, 4, 0, 0)
    assert is_lexsegment(gl.MonomialIdeal(3, [])).holds


def test_is_lexsegment_matches_enumeration():
    """Verdict and witness equal the degree-by-degree scan, on random
    monomial ideals and on lexsegment ideals with one generator dropped."""
    rng = random.Random(31)
    ideals = [random_monomial_ideal(rng, rng.randint(1, 5), max_exp=3)
              for _ in range(400)]
    for n in range(1, 5):
        for degrees in ([2], [3], [2, 2], [2, 3], [3, 3], [2, 2, 2],
                        [2, 2, 3], [3, 3, 3]):
            L, _ = gl.series.lexsegment_of_froeberg(n, degrees)
            assert is_lexsegment(L).holds
            if len(L.gens) > 1:
                gens = list(L.gens)
                del gens[rng.randrange(len(gens))]
                ideals.append(gl.MonomialIdeal(n, gens))
    verdicts = [is_lexsegment(J) for J in ideals]
    assert verdicts == [is_lexsegment_by_enumeration(J) for J in ideals]
    assert {v.holds for v in verdicts} == {True, False}


def test_is_lexsegment_visits_generator_degrees_only(monkeypatch):
    """One Macaulay representation per generator degree, however far
    apart the degrees lie; the verdicts stay those of the scan."""
    calls = []

    def counted(a, d):
        calls.append(d)
        return _macaulay_digits(a, d)

    monkeypatch.setattr(gl.props, "_macaulay_digits", counted)
    J = gl.MonomialIdeal(2, [(40000, 0)])
    assert is_lexsegment(J).holds
    assert calls == [40000]
    for n, gens in [(2, [(3, 0), (2, 9), (1, 30)]),
                    (3, [(2, 0, 0), (1, 1, 0), (1, 0, 7), (0, 12, 0)]),
                    (2, [(3, 0), (1, 9)]),  # x1^2 x2^8 is missing
                    (3, [(2, 0, 0), (1, 0, 1), (0, 12, 0)])]:
        J = gl.MonomialIdeal(n, gens)
        calls.clear()
        assert is_lexsegment(J) == is_lexsegment_by_enumeration(J)
        assert len(calls) <= len({sum(g) for g in gens})


def test_is_weakly_revlex_examples():
    assert is_weakly_revlex(gl.MonomialIdeal(3, list(INI_I))).holds
    v = is_weakly_revlex(gl.MonomialIdeal(3, list(INI_J)))
    assert not v.holds
    assert v.witness == ((1, 0, 1), (0, 2, 0))  # x2^2 beats x1*x3, missing
    assert is_weakly_revlex(gl.MonomialIdeal(4, [(1, 0, 0, 0)])).holds
    # strongly stable, so the certificate runs, fails, and the scan names
    # the witness
    J = gl.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0)])
    assert props._strongly_stable(J)
    assert is_weakly_revlex(J).witness == ((1, 0, 1), (0, 2, 0))


def test_is_borel_fixed_examples():
    assert is_borel_fixed(gl.MonomialIdeal(3, list(GIN_32_22)), 0).holds
    v = is_borel_fixed(gl.MonomialIdeal(2, [(0, 1)]), 0)
    assert not v.holds and v.witness == ((0, 1), (1, 0))
    frob = gl.MonomialIdeal(2, [(2, 0), (0, 2)])
    assert is_borel_fixed(frob, 2).holds       # binom(2,1) = 0 mod 2
    assert not is_borel_fixed(frob, 0).holds   # s = 1 gives x1*x2, missing


def test_is_borel_fixed_rejects_composite():
    with pytest.raises(ValueError):
        is_borel_fixed(gl.MonomialIdeal(2, [(1, 0)]), 6)


def test_borel_action_trivial_cases():
    assert borel_action_check(gl.MonomialIdeal(2, [(1, 0)]), 0, 1, 1)
    assert not borel_action_check(gl.MonomialIdeal(2, [(0, 1)]), 0, 1, 1)


def test_borel_action_on_known_ideal():
    J = gl.MonomialIdeal(3, list(GIN_32_22))
    assert borel_action_check(J, 0, 1, 1, horizon=4)


def test_borel_action_validates_arguments():
    J = gl.MonomialIdeal(2, [(1, 0)])
    with pytest.raises(ValueError):
        borel_action_check(J, 1, 0, 1)
    with pytest.raises(ValueError):
        borel_action_check(J, 0, 1, 0)


def _strongly_stable_closure(gens):
    """Every monomial that single moves x_i m / x_j (i < j) reach from
    `gens`."""
    seen, todo = set(gens), list(gens)
    while todo:
        m = todo.pop()
        for j, t in enumerate(m):
            for i in range(j if t else 0):
                shifted = m[:i] + (m[i] + 1,) + m[i + 1:j] + (t - 1,) + m[j + 1:]
                if shifted not in seen:
                    seen.add(shifted)
                    todo.append(shifted)
    return seen


@st.composite
def monomial_ideals(draw):
    """(J, p): a monomial ideal in n <= 5 variables, either on random
    generators with exponents <= 4 or the strongly stable ideal of a few
    monomials of degree <= 4, and a characteristic."""
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from([0, 2, 3, 32003]))
    if draw(st.booleans()):
        exps = st.tuples(*[st.integers(0, 4)] * n)
        gens = draw(st.lists(exps, min_size=1, max_size=6))
    else:
        exps = st.tuples(*[st.integers(0, 2)] * n).filter(
            lambda m: sum(m) <= 4)
        gens = _strongly_stable_closure(
            draw(st.lists(exps, min_size=1, max_size=3)))
    gens = [g for g in gens if any(g)] or [(1,) * n]
    return gl.MonomialIdeal(n, gens), p


@settings(max_examples=300, deadline=None)
@example((gl.MonomialIdeal(2, [(2, 0), (0, 2)]), 2))
@example((gl.MonomialIdeal(2, [(3, 0), (0, 3)]), 3))
@example((gl.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 1, 1)]), 3))
@given(monomial_ideals())
def test_is_borel_fixed_matches_full_scan(case):
    J, p = case
    assert is_borel_fixed(J, p) == is_borel_fixed_by_scan(J, p)


@settings(max_examples=300, deadline=None)
@example((gl.MonomialIdeal(3, list(INI_J)), 0))
# strongly stable, and x2^2, above x1*x3, is missing: the certificate
# fails and the scan names the witness
@example((gl.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0)]),
          0))
# x2^2 and x1*x3 both miss for x2*x3: the lex-larger x1*x3 is the witness
@example((gl.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 1, 1)]), 0))
@given(monomial_ideals())
def test_is_weakly_revlex_matches_full_scan(case):
    """Deciding each monomial once gives the verdict and the witness of
    the scan that tests every monomial for every generator."""
    J, _ = case
    assert is_weakly_revlex(J) == is_weakly_revlex_by_scan(J)


@pytest.mark.parametrize("n,degrees,order,tests", [
    (4, (2, 2, 2, 2), gl.DEGREVLEX, 17),
    (4, (3, 3), gl.LEX, 56),
    (4, (2, 3, 3), gl.LEX, 68),
])
def test_borel_fast_path_tests_adjacent_moves_only(n, degrees, order, tests,
                                                   monkeypatch):
    # one membership test per generator m and variable x_j | m, j >= 2:
    # the move x_{j-1} m / x_j; testing every x_i m / x_j, i < j, took
    # 35, 108 and 132
    J = gl.gin_by_sampling(gl.GenericInstance(n, degrees, GF32003, order),
                           trials=1).ideal
    calls = []
    contains = props.contains
    monkeypatch.setattr(props, "contains",
                        lambda J, m: calls.append(m) or contains(J, m))
    assert is_borel_fixed(J, 0).holds
    assert len(calls) == tests == sum(1 for g in J.gens for e in g[1:] if e)


@pytest.mark.parametrize("n,degrees", [
    (4, (2, 2, 2)), (4, (2, 2, 3)), (4, (3, 3)), (4, (3, 3, 3)),
    (4, (2, 2, 2, 2)), (5, (2, 2)),
])
def test_weakly_revlex_certificate_lists_no_monomials(n, degrees,
                                                      monkeypatch):
    # the degrevlex gins are strongly stable and weakly revlex: one
    # adjacent move and one certificate monomial per generator g and
    # variable x_j | g, j >= 2, and no degree listed
    J = gl.gin_by_sampling(gl.GenericInstance(n, degrees, GF32003,
                                              gl.DEGREVLEX), trials=1).ideal
    calls = []
    contains = props.contains
    monkeypatch.setattr(props, "contains",
                        lambda J, m: calls.append(m) or contains(J, m))

    def listed(*args):
        raise AssertionError("a degree was listed")

    monkeypatch.setattr(props, "_lex_monomials", listed)
    assert is_weakly_revlex(J).holds
    assert len(calls) <= 2 * sum(1 for g in J.gens for e in g[1:] if e)


def test_criterion_action_agreement():
    rng = random.Random(2024)
    for _ in range(25):
        J = random_monomial_ideal(rng, 3, max_gens=4, max_exp=3)
        expected = is_borel_fixed(J, 0).holds
        D = gl.top_degree(J) + 1
        got = all(borel_action_check(J, i, j, c, D)
                  for i in range(3) for j in range(i + 1, 3) for c in (1, 2))
        assert got == expected


def test_implication_chain():
    rng = random.Random(99)
    ideals = [random_monomial_ideal(rng, 3) for _ in range(30)]
    ideals += [gl.MonomialIdeal(3, list(g)) for g in (GIN_32_22, INI_I, INI_J)]
    for J in ideals:
        if is_lexsegment(J).holds:
            assert is_borel_fixed(J, 0).holds
        if is_weakly_revlex(J).holds:
            assert is_borel_fixed(J, 0).holds


def test_witnesses_revalidate():
    rng = random.Random(31)
    for _ in range(40):
        J = random_monomial_ideal(rng, 3, max_gens=4, max_exp=3)
        for verdict, order in ((is_lexsegment(J), gl.LEX),
                               (is_weakly_revlex(J), gl.DEGREVLEX)):
            if verdict.holds:
                continue
            member, missing = verdict.witness
            assert sum(member) == sum(missing)
            assert packed_key(order, missing) > packed_key(order, member)
            assert not gl.contains(J, missing)
        v = is_borel_fixed(J, 0)
        if not v.holds:
            gen, shifted = v.witness
            assert gl.contains(J, gen) and not gl.contains(J, shifted)


def test_segment_multiplication_stays_segment():
    # products of lex segments with all variables remain lex segments;
    # this justifies checking is_lexsegment only up to maxdeg
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(1, 5)
        monos = monomials_of_degree(n, d)
        q = rng.randint(0, len(monos))
        segment = monos[:q]
        image = set()
        for m in segment:
            for v in range(n):
                image.add(tuple(e + (1 if i == v else 0)
                                for i, e in enumerate(m)))
        nxt = monomials_of_degree(n, d + 1)
        prefix = set(nxt[:len(image)])
        assert image == prefix
