import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import ginlab as gl
from ginlab import generic
from ginlab.fields import PrimeField
from ginlab.generic import (GF32003, _plucker_key, ideal_at_point,
                            normal_form_family, sample_ideal, sample_point)
from ginlab.groebner import buchberger
from ginlab.orders import InverseBlock, mono_divides
from ginlab.poly import PackedRing, Polynomial

from conftest import GIN_32_22, POINT_A
from oracles import (full_templates, full_trials, hilbert_function_homogeneous,
                     lead_coefficient, lead_monomial, lead_monomials,
                     monomials_of_degree, param_count, parse_poly,
                     tuple_key, u_generic_by_macaulay)


def test_template_shapes():
    inst = gl.GenericInstance(3, (2, 2))
    assert inst.nparams == 12
    assert all(len(F.terms) == 6 for F in full_templates(inst))
    inst4 = gl.GenericInstance(4, (2, 2))
    assert inst4.nparams == 20
    single = gl.GenericInstance(1, (3,))
    (F,) = full_templates(single)
    assert F.terms == (((3, 1), 1),)


def test_instance_degrees_may_be_a_list():
    # the degrees are kept as a tuple, so the instance is a hashable value
    inst = gl.GenericInstance(2, [2, 2])
    assert inst.degrees == (2, 2)
    assert inst == gl.GenericInstance(2, (2, 2))
    assert hash(inst) == hash(gl.GenericInstance(2, (2, 2)))


def test_templates_have_distinct_parameters():
    inst = gl.GenericInstance(3, (2, 3))
    seen = set()
    for F in full_templates(inst):
        for m, _ in F.terms:
            tpart = m[inst.n:]
            assert sum(tpart) == 1
            seen.add(tpart.index(1))
    assert len(seen) == inst.nparams


def test_replay_fixed_point(sample_ideal_a):
    gens, _ = sample_ideal_a
    assert len(gens) == 2
    # leading coefficients of the two specialized quadrics
    assert lead_coefficient(gens[0]) == 8 and lead_coefficient(gens[1]) == 1


def test_sampling_determinism():
    inst = gl.GenericInstance(3, (2, 2), field=GF32003)
    a = gl.sample_ideal(inst, seed=5)
    b = gl.sample_ideal(inst, seed=5)
    assert a == b
    assert gl.sample_ideal(inst, seed=6) != a


def test_sample_point_range():
    inst = gl.GenericInstance(2, (2,))
    pt = sample_point(inst, seed=1, bound=9)
    assert all(p != 0 and -9 <= p <= 9 for p in pt)
    # 60 coordinates with bound 2: every nonzero value in [-2, 2] shows
    wide = gl.GenericInstance(4, (3, 3, 3))
    assert set(sample_point(wide, seed=0, bound=2)) == {-2, -1, 1, 2}


def test_single_monomial_template_sampling():
    inst = gl.GenericInstance(1, (2,))
    (f,) = gl.sample_ideal(inst, seed=0)
    assert lead_monomial(f) == (2,) and lead_coefficient(f) != 0
    assert len(f.terms) == 1


def test_macaulay_hilbert_function(sample_ideal_a):
    gens, _ = sample_ideal_a
    assert hilbert_function_homogeneous(gens, 2) == 4
    x = [parse_poly(v, gl.xring(3), gl.LEX) for v in ("x1", "x2", "x3")]
    assert hilbert_function_homogeneous(x, 1) == 0
    assert hilbert_function_homogeneous(
        [parse_poly("x1^2", gl.xring(3), gl.LEX)], 5) > 0


def test_macaulay_rejects_inhomogeneous():
    f = parse_poly("x1^2 + x2", gl.xring(2), gl.LEX)
    with pytest.raises(ValueError):
        hilbert_function_homogeneous([f], 2)


def test_is_u_generic(sample_ideal_a):
    gens, inst = sample_ideal_a
    assert gl.is_u_generic(gl.buchberger(gens, gl.LEX), inst) == "yes"
    # a degenerate repeated generator has too large a Hilbert function
    bad = [gens[0], gens[0]]
    assert gl.is_u_generic(gl.buchberger(bad, gl.LEX), inst) == "no"


def test_is_u_generic_example_ideals(example_uv_ideals):
    I, J = example_uv_ideals
    inst = gl.GenericInstance(3, (2, 2, 2))
    assert gl.is_u_generic(gl.buchberger(I, gl.DEGREVLEX), inst) == "yes"
    assert gl.is_u_generic(gl.buchberger(J, gl.DEGREVLEX), inst) == "yes"


def test_u_check_matches_macaulay_oracle():
    # sparse points from {0, +-1, 2} make some ideals non-u-generic
    rng = random.Random(2024)
    fields = [gl.QQ, gl.PrimeField(2), gl.PrimeField(5), GF32003]
    verdicts = []
    while len(verdicts) < 60:
        n = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        order = rng.choice([gl.LEX, gl.DEGREVLEX])
        inst = gl.GenericInstance(n, degrees, rng.choice(fields), order)
        point = tuple(rng.choice((0, 1, -1, 2)) for _ in range(inst.nparams))
        gens = ideal_at_point(inst, point)
        if not any(gens):
            continue
        verdict = gl.is_u_generic(gl.buchberger(gens, order), inst)
        assert verdict == u_generic_by_macaulay(gens, inst), (inst, point)
        verdicts.append((verdict, inst.s > inst.n))
    # a match says "yes" for s > n too
    assert {"yes", "no"} == {v for v, _ in verdicts}
    assert ("yes", True) in verdicts


def test_gin_by_sampling_known_cases():
    inst = gl.GenericInstance(3, (2, 2), field=GF32003)
    res = gl.gin_by_sampling(inst, seed=0)
    assert res.ideal.gens == GIN_32_22
    assert res.agreement == 5
    assert set(res.u_generic) == {"yes"}

    inst4 = gl.GenericInstance(4, (2, 2), field=GF32003)
    res4 = gl.gin_by_sampling(inst4, seed=0)
    assert res4.ideal.gens == tuple(g + (0,) for g in GIN_32_22)

    inst2 = gl.GenericInstance(2, (2, 2), field=GF32003)
    assert gl.gin_by_sampling(inst2, seed=0).ideal.gens == ((2, 0), (1, 1), (0, 3))


def test_gin_parametric_small_cases():
    assert (gl.gin_parametric(gl.GenericInstance(2, (2, 2))).ideal.gens
            == ((2, 0), (1, 1), (0, 3)))
    assert gl.gin_parametric(gl.GenericInstance(1, (2,))).ideal.gens == ((2,),)


def test_route_agreement():
    for n, degrees in [(1, (2,)), (2, (2, 2)), (2, (2, 3)), (3, (2, 2))]:
        par = gl.gin_parametric(gl.GenericInstance(n, degrees))
        sam = gl.gin_by_sampling(gl.GenericInstance(n, degrees, field=GF32003),
                                 seed=17)
        assert par.ideal == sam.ideal


#: seed 0 cases whose trials disagree, and where a plurality vote tied:
#: GF(32003) at coefficient bound 1 (the two golden `--bound 1` records
#: that had exit 1), and the small fields at their default bound
SELECTION_CASES = [
    (3, (2, 2, 2), gl.LEX, GF32003, 1),
    (3, (3, 3), gl.DEGREVLEX, GF32003, 1),
    (3, (3, 3), gl.DEGREVLEX, PrimeField(3), None),
    (3, (2, 2, 2), gl.DEGREVLEX, PrimeField(3), None),
    (3, (2, 2), gl.LEX, PrimeField(5), None),
]


@pytest.mark.parametrize("n,degrees,order,field,bound", SELECTION_CASES)
def test_sampling_selects_the_largest_trial_which_is_the_gin(
        n, degrees, order, field, bound):
    inst = gl.GenericInstance(n, degrees, field, order)
    res = gl.gin_by_sampling(inst, seed=0, bound=bound)
    # the parametric route over the same field, Q standing in for a large p
    exact = gl.QQ if field == GF32003 else field
    gin = gl.gin_parametric(gl.GenericInstance(n, degrees, exact, order)).ideal
    assert res.ideal == gin
    trials = []
    for s in res.seeds:
        gb = buchberger(sample_ideal(inst, s, bound), order)
        trials.append(gb.initial_ideal())
    assert len(set(trials)) > 1
    # no trial lies above the gin in the Plucker order
    assert all(_plucker_key(J, order) <= _plucker_key(gin, order)
               for J in trials)
    assert res.agreement == trials.count(gin) < len(trials)


def _ideal3(*gens):
    return gl.MonomialIdeal.from_json({"n": 3, "gens": gens})


def test_plucker_order_counts_generators_first():
    # two quadrics beat one, though x1^2 is the largest monomial of the
    # difference; one linear form beats both, though it is x3
    more = _ideal3((0, 2, 0), (0, 1, 1))
    fewer = _ideal3((2, 0, 0), (1, 2, 0), (0, 3, 0), (0, 0, 3))
    linear = _ideal3((0, 0, 1))
    for order in (gl.LEX, gl.DEGREVLEX):
        keys = [_plucker_key(J, order) for J in (linear, more, fewer)]
        assert keys == sorted(keys, reverse=True)


def test_plucker_order_then_takes_the_largest_monomial_of_the_difference():
    # three quadrics each; they differ in x1*x3 against x2^2, which lex
    # puts first and degrevlex puts second
    lexlike = _ideal3((2, 0, 0), (1, 1, 0), (1, 0, 1))
    revlexlike = _ideal3((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 3))
    assert _plucker_key(lexlike, gl.LEX) > _plucker_key(revlexlike, gl.LEX)
    assert (_plucker_key(lexlike, gl.DEGREVLEX)
            < _plucker_key(revlexlike, gl.DEGREVLEX))
    # the largest monomial decides, though the other one is the smallest
    # of all four, in both orders
    top, bottom = _ideal3((2, 0, 0), (0, 0, 2)), _ideal3((1, 1, 0), (0, 2, 0))
    for order in (gl.LEX, gl.DEGREVLEX):
        assert _plucker_key(top, order) > _plucker_key(bottom, order)


def _plucker_greater(A, B, order):
    """Whether A > B in the Plucker order, by its definition."""
    top = max(map(sum, A.gens + B.gens), default=0)
    for d in range(top + 1):
        a = {g for g in A.gens if sum(g) == d}
        b = {g for g in B.gens if sum(g) == d}
        if a != b:
            if len(a) != len(b):
                return len(a) > len(b)
            return max(a ^ b, key=lambda m: tuple_key(order, m)) in a
    return False


#: the quadrics and cubics in three variables: random ideals drawn from
#: them often tie in their count of generators of the first degree where
#: they differ
_LOW = monomials_of_degree(3, 2) + monomials_of_degree(3, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_LOW), max_size=6),
       st.lists(st.sampled_from(_LOW), max_size=6),
       st.sampled_from([gl.LEX, gl.DEGLEX, gl.DEGREVLEX]))
def test_plucker_key_sorts_as_the_definition(a, b, order):
    A, B = gl.MonomialIdeal(3, a), gl.MonomialIdeal(3, b)
    assert ((_plucker_key(A, order) > _plucker_key(B, order))
            == _plucker_greater(A, B, order))
    assert (_plucker_key(A, order) == _plucker_key(B, order)) == (A == B)


@pytest.mark.parametrize("n,degrees,order,nparams,ngens", [
    (3, (2, 2, 2), gl.LEX, 9, 3),
    (3, (2, 2, 2), gl.DEGREVLEX, 9, 3),
    (3, (2, 2), gl.LEX, 8, 2),
    (2, (2, 3, 3), gl.LEX, 2, 3),
    (3, (3, 2), gl.DEGREVLEX, 11, 2),
    (4, (2, 2, 3), gl.LEX, 28, 3),
    # x1^3 lies in (x1^2), and (x1, x2) holds every quadric
    (1, (2, 3), gl.LEX, 0, 1),
    (2, (1, 1, 2), gl.DEGREVLEX, 0, 2),
])
def test_normal_form_family_shape(n, degrees, order, nparams, ngens):
    inst = gl.GenericInstance(n, degrees, main_order=order)
    family = normal_form_family(inst)
    assert len(family) == ngens
    assert all(param_count(F.ring, n) == nparams for F in family)
    pivots = [lead_monomial(F)[:n] for F in family]
    # monic at its pivot, which no earlier generator's pivot divides
    for k, F in enumerate(family):
        assert lead_monomial(F) == pivots[k] + (0,) * nparams
        assert lead_coefficient(F) == 1
        assert {sum(m[:n]) for m, _ in F.terms} == {sum(pivots[k])}
        assert not any(mono_divides(p, pivots[k]) for p in pivots[:k])
    # every other term is one fresh parameter on a monomial no pivot divides
    seen = []
    for F in family:
        for m, c in F.terms[1:]:
            assert c == 1 and sum(m[n:]) == 1
            assert not any(mono_divides(p, m[:n]) for p in pivots)
            seen.append(m[n:].index(1))
    assert sorted(seen) == list(range(nparams))
    assert [sum(p) for p in pivots] == sorted(sum(p) for p in pivots)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [gl.LEX, gl.DEGLEX, gl.DEGREVLEX])
@pytest.mark.parametrize("field", [gl.QQ, GF32003])
def test_normal_form_family_is_built_normalized(n, order, field):
    # the family skips `from_terms`, so its terms must already be in the
    # order and the coefficient type that `from_terms` gives
    for degrees in [(2,), (1, 2), (2, 2), (2, 3), (2, 2, 2), (3, 3)]:
        for F in normal_form_family(
                gl.GenericInstance(n, degrees, field, order)):
            G = Polynomial.from_terms(F.ring, F.order, F.terms)
            assert F.terms == G.terms
            assert [type(c) for _, c in F.terms] == [
                type(c) for _, c in G.terms]


@pytest.mark.parametrize("order", [gl.LEX, gl.DEGLEX, gl.DEGREVLEX])
@pytest.mark.parametrize("field,bound", [(GF32003, None), (gl.QQ, None),
                                         (gl.PrimeField(5), 7)])
def test_ideal_at_point_is_built_normalized(order, field, bound):
    # the sampled generators skip `from_terms`, so they must have its
    # terms, in its order and with its coefficient types; over GF(5) a
    # bound of 7 draws multiples of 5, whose terms drop out
    dropped = 0
    for n, degrees in [(1, (2, 3)), (2, (2, 2)), (3, (2, 3)), (4, (2, 2, 3))]:
        inst = gl.GenericInstance(n, degrees, field, order)
        ring = gl.xring(n, field)
        for seed in range(3):
            point = sample_point(inst, seed, bound)
            offset = 0
            for d, F in zip(degrees, ideal_at_point(inst, point)):
                monos = monomials_of_degree(n, d)  # the point's order
                G = Polynomial.from_terms(
                    ring, order, zip(monos, point[offset:offset + len(monos)]))
                assert F.terms == G.terms
                assert [type(c) for _, c in F.terms] == [
                    type(c) for _, c in G.terms]
                dropped += len(monos) - len(F.terms)
                offset += len(monos)
    assert (dropped > 0) == (field.char == 5)


#: (n, degrees, degrees sampled, field, order) of the parametric route
#: checked against sampling
ROUTE_CASES = [
    (3, (2, 2, 2), (2, 2, 2), gl.QQ, gl.LEX),
    (3, (2, 2, 2), (2, 2, 2), gl.QQ, gl.DEGREVLEX),
    (3, (3, 2), (2, 3), gl.QQ, gl.LEX),
    (3, (3, 2), (2, 3), GF32003, gl.DEGREVLEX),
    (1, (2, 3), (2, 3), gl.QQ, gl.LEX),
    (2, (1, 1, 2), (1, 1, 2), gl.QQ, gl.DEGREVLEX),
    (3, (2, 2), (2, 2), gl.QQ, gl.DEGLEX),
    (3, (2, 2, 2), (2, 2, 2), gl.QQ, gl.DEGLEX),
    (3, (2, 3), (2, 3), gl.QQ, gl.DEGLEX),
    (4, (2, 2), (2, 2), gl.QQ, gl.DEGLEX),
    (2, (3, 3), (3, 3), gl.QQ, gl.DEGLEX),
]


@pytest.mark.parametrize("n,degrees,sampled,field,order", ROUTE_CASES)
def test_parametric_route_matches_sampling(n, degrees, sampled, field, order):
    par = gl.gin_parametric(gl.GenericInstance(n, degrees, field, order))
    sam = gl.gin_by_sampling(gl.GenericInstance(n, sampled, GF32003, order),
                             seed=3)
    assert sam.agreement == 5
    assert par.ideal == sam.ideal


@pytest.mark.parametrize("n,degrees,field,order", [
    (n, degrees, field, order) for n, degrees, _, field, order in ROUTE_CASES
] + [(4, (2, 2, 2), gl.QQ, gl.DEGREVLEX), (3, (2, 2, 2), GF32003, gl.LEX)])
def test_stopped_run_has_the_x_leads_of_the_full_run(n, degrees, field, order):
    # `gin_parametric` stops its run once the x-leads certify the gin;
    # the full run of the same family must lead to the same ideal
    inst = gl.GenericInstance(n, degrees, field, order)
    full = buchberger(normal_form_family(inst), inst.order)
    xleads = [m[:n] for m in lead_monomials(full) if any(m[:n])]
    assert gl.gin_parametric(inst).ideal == gl.MonomialIdeal(n, xleads)


def test_gin_routes_never_unpack_a_basis(monkeypatch):
    # both routes read only the packed leads and the Hilbert numerator
    def refuse(self, F):
        raise AssertionError("a gin route unpacked a basis element")

    monkeypatch.setattr(PackedRing, "unpack", refuse)
    gin = ((2, 0), (1, 1), (0, 3))
    assert gl.gin_parametric(gl.GenericInstance(2, (2, 2))).ideal.gens == gin
    for field in (GF32003, gl.QQ):
        inst = gl.GenericInstance(2, (2, 2), field=field)
        assert gl.gin_by_sampling(inst, seed=0).ideal.gens == gin
    inst = gl.GenericInstance(3, (2, 2), GF32003, gl.DEGREVLEX)
    assert gl.gin_by_sampling(inst, seed=0).ideal.gens == (
        (2, 0, 0), (1, 1, 0), (0, 3, 0))


def _spy_on_buchberger(monkeypatch):
    """The (variable count, order) of every `buchberger` call that the
    gin routes make from now on."""
    calls = []
    real = generic.buchberger

    def spy(gens, order, *args, **kwargs):
        calls.append((gens[0].ring.nvars, order))
        return real(gens, order, *args, **kwargs)

    monkeypatch.setattr(generic, "buchberger", spy)
    return calls


_section_cases = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, 3), min_size=1, max_size=n - 1)))


@settings(max_examples=200, deadline=None)
@given(_section_cases,
       st.sampled_from([PrimeField(2), PrimeField(3), GF32003, gl.QQ]),
       st.integers(0, 2**64 - 1), st.sampled_from([None, 1]))
# trial 0 of seed 0: its section is singular mod 3, its full run is not
@example((3, [1, 1]), PrimeField(3), 0, None)
def test_section_trial_is_the_full_trial(case, field, seed, bound):
    # a degrevlex trial with s < n runs on its section first; its ideal
    # and u-label must be those of its run in all n variables
    n, degrees = case
    inst = gl.GenericInstance(n, degrees, field, gl.DEGREVLEX)
    res = gl.gin_by_sampling(inst, trials=1, seed=seed, bound=bound)
    ideals, labels = full_trials(inst, 1, seed, bound)
    assert (res.ideal, res.u_generic) == (ideals[0], labels)


def test_section_route_runs_in_s_variables(monkeypatch):
    # every trial of n=7 (3,3,3,3) passes the u-check on its section, so
    # no run is in 7 variables, and no generator uses x5, x6 or x7
    calls = _spy_on_buchberger(monkeypatch)
    inst = gl.GenericInstance(7, (3, 3, 3, 3), GF32003, gl.DEGREVLEX)
    res = gl.gin_by_sampling(inst, seed=0)
    assert calls == [(4, gl.DEGREVLEX)] * 5
    assert res.u_generic == ("yes",) * 5 and res.agreement == 5
    assert not any(any(g[4:]) for g in res.ideal.gens)


@pytest.mark.parametrize("n,degrees,route", [
    (3, (2, 2), "sampling"), (3, (2, 3), "sampling"),
    (4, (2, 2, 3), "sampling"), (3, (2, 2, 2, 2), "sampling"),
    (2, (3, 3), "parametric"), (3, (2, 2), "parametric"),
    (3, (2, 2, 2), "parametric")])
def test_deglex_gin_is_the_lex_gin(monkeypatch, n, degrees, route):
    # both routes run deglex under LEX: the records differ only in "order"
    calls = _spy_on_buchberger(monkeypatch)
    records = []
    for order in (gl.LEX, gl.DEGLEX):
        if route == "sampling":
            inst = gl.GenericInstance(n, degrees, GF32003, order)
            records.append(gl.gin_by_sampling(inst, seed=0).to_json())
        else:
            inst = gl.GenericInstance(n, degrees, gl.QQ, order)
            records.append(gl.gin_parametric(inst).to_json())
    lex, deglex = records
    assert (lex.pop("order"), deglex.pop("order")) == ("lex", "deglex")
    assert lex == deglex
    assert {getattr(o, "main_order", o) for _, o in calls} == {gl.LEX}


def test_parametric_route_builds_its_order_once(monkeypatch):
    # the instance owns its inverse block order, and the result holds the
    # instance: no InverseBlock is built per generator or per read
    built = []
    monkeypatch.setattr(InverseBlock, "__post_init__",
                        lambda self: built.append(self))
    inst = gl.GenericInstance(3, (2, 2, 2))
    res = gl.gin_parametric(inst)
    assert built == [inst.order] and res.inst is inst
    assert inst.order is inst.order and inst == gl.GenericInstance(3, [2] * 3)


def test_gin_routes_leave_no_reference_cycles():
    # garbage that only the cyclic collector frees would pile up between
    # collections; one parametric run used to leave 170 objects
    gc.collect()
    gc.disable()
    try:
        gl.gin_parametric(gl.GenericInstance(2, (2, 3, 3)))
        for order in (gl.LEX, gl.DEGREVLEX):
            gl.gin_by_sampling(
                gl.GenericInstance(2, (2, 3, 3), GF32003, order), seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_borel_fixedness_of_gins():
    for n, degrees in [(2, (2, 2)), (3, (2, 2)), (3, (2, 2, 2))]:
        res = gl.gin_by_sampling(gl.GenericInstance(n, degrees, field=GF32003),
                                 seed=1)
        assert gl.is_borel_fixed(res.ideal, GF32003.char).holds


def test_maxdeg_bounded_by_lexsegment_bound():
    from ginlab.series import lexsegment_of_froeberg
    for n, degrees in [(2, (2, 2)), (3, (2, 2)), (3, (2, 3)), (3, (2, 2, 2))]:
        res = gl.gin_by_sampling(gl.GenericInstance(n, degrees, field=GF32003),
                                 seed=2)
        bound, _ = lexsegment_of_froeberg(n, degrees)
        assert gl.top_degree(res.ideal) <= gl.top_degree(bound)


def test_result_json_shape():
    inst = gl.GenericInstance(2, (2, 2), field=GF32003)
    res = gl.gin_by_sampling(inst, seed=0)
    out = res.to_json()
    assert out["schema"] == 1
    assert out["route"] == "sampling"
    assert out["field"] == "F32003"
    assert len(out["seeds"]) == 5
    assert out["ideal"] == {"n": 2, "gens": [[2, 0], [1, 1], [0, 3]]}


def test_invalid_instance():
    with pytest.raises(ValueError):
        gl.GenericInstance(0, (2,))
    with pytest.raises(ValueError):
        ideal_at_point(gl.GenericInstance(2, (2,)), (1, 2))


def test_instance_without_generators_is_refused():
    # neither route has an ideal to start from; the bracket series of no
    # degrees stays defined
    with pytest.raises(ValueError, match="at least one generator degree"):
        gl.GenericInstance(2, ())
    assert gl.froeberg_series(2, (), 3) == (1, 2, 3, 4)
