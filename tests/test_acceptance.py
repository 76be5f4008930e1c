"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The long parametric route-agreement case is marked `slow` but
completes quickly on this kernel, so it runs by default.
"""

import random
import time
from itertools import product

import pytest

import ginlab as gl
from ginlab.generic import GF32003
from ginlab.series import lexsegment_of_froeberg

from conftest import GIN_3_222, GIN_32_22, INI_I, INI_J, POINT_A
from oracles import (borel_action_check, hilbert_function_bruteforce,
                     hilbert_function_homogeneous, lead_monomials,
                     monomials_of_degree)
from test_ideals import random_monomial_ideal


def report(name, elapsed, limit):
    assert elapsed < limit, f"{name}: {elapsed:.1f}s exceeded {limit}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_froeberg_exactness():
    t0 = time.perf_counter()
    assert gl.froeberg_series(3, (2, 2), 4) == (1, 3, 4, 4, 4)
    assert gl.froeberg_series(3, (2, 2, 2), 4) == (1, 3, 3, 1, 0)
    assert gl.froeberg_series(2, (2, 2, 2), 4) == (1, 2, 0, 0, 0)
    report("criterion-1 froeberg-series", time.perf_counter() - t0, 1)


def test_criterion_2_groebner_regression(example_uv_ideals):
    t0 = time.perf_counter()
    I, J = example_uv_ideals
    gbI = gl.reduce_basis(gl.buchberger(I, gl.DEGREVLEX))
    gbJ = gl.reduce_basis(gl.buchberger(J, gl.DEGREVLEX))
    assert set(gl.MonomialIdeal(3, lead_monomials(gbI)).gens) == set(INI_I)
    assert set(gl.MonomialIdeal(3, lead_monomials(gbJ)).gens) == set(INI_J)
    report("criterion-2 degrevlex-fixtures", time.perf_counter() - t0, 5)


def test_criterion_3_fixed_point_replay():
    t0 = time.perf_counter()
    inst = gl.GenericInstance(3, (2, 2))
    gens = gl.ideal_at_point(inst, POINT_A)
    gb = gl.reduce_basis(gl.buchberger(gens, gl.LEX))
    J = gl.MonomialIdeal(3, lead_monomials(gb))
    assert J.gens == GIN_32_22
    assert gl.is_lexsegment(J).holds
    assert gl.hilbert_series(J, 5) == [1, 3, 4, 4, 4, 4]
    assert gl.is_u_generic(gb, inst) == "yes"
    report("criterion-3 replay", time.perf_counter() - t0, 5)


CRIT4_GRID = ([(3, d) for d in product((2, 3), repeat=2)]
              + [(3, d) for d in product((2, 3), repeat=3)]
              + [(4, d) for d in product((2, 3), repeat=3)])

_crit4_rows = []


def test_criterion_4_lexsegment_grid():
    t0 = time.perf_counter()
    for n, degrees in CRIT4_GRID:
        inst = gl.GenericInstance(n, degrees, field=GF32003)
        res = gl.gin_by_sampling(inst, trials=5, seed=0)
        if res.agreement < 4:
            # finite-field sampling is a heuristic: fall back to exact
            # rational sampling with small coefficients
            inst_q = gl.GenericInstance(n, degrees)
            res = gl.gin_by_sampling(inst_q, trials=5, seed=0, bound=99)
        assert res.agreement >= 4, (n, degrees)
        assert gl.is_lexsegment(res.ideal).holds, (n, degrees)
        _crit4_rows.append((n, degrees, res))
    report("criterion-4 lexsegment-grid", time.perf_counter() - t0, 600)


def test_criterion_5_non_lexsegment_case():
    t0 = time.perf_counter()
    inst = gl.GenericInstance(4, (2, 2), field=GF32003)
    res = gl.gin_by_sampling(inst, seed=0)
    assert res.ideal.gens == tuple(g + (0,) for g in GIN_32_22)
    v = gl.is_lexsegment(res.ideal)
    assert not v.holds
    assert v.witness[1] == (1, 0, 1, 2)  # x1*x3*x4^2
    report("criterion-5 non-lexsegment-case", time.perf_counter() - t0, 10)


def test_criterion_6_route_agreement_small():
    t0 = time.perf_counter()
    par = gl.gin_parametric(gl.GenericInstance(2, (2, 2)))
    sam = gl.gin_by_sampling(gl.GenericInstance(2, (2, 2), field=GF32003),
                             seed=0)
    assert par.ideal == sam.ideal
    assert par.ideal.gens == ((2, 0), (1, 1), (0, 3))
    report("criterion-6a route-agreement n=2", time.perf_counter() - t0, 60)


@pytest.mark.slow
def test_criterion_6_route_agreement_n3():
    t0 = time.perf_counter()
    for degrees, gin in [((2, 2), GIN_32_22), ((2, 2, 2), GIN_3_222)]:
        par = gl.gin_parametric(gl.GenericInstance(3, degrees),
                                budget=gl.Budget(ms=60 * 1000))
        sam = gl.gin_by_sampling(
            gl.GenericInstance(3, degrees, field=GF32003), seed=0)
        assert par.ideal == sam.ideal
        assert par.ideal.gens == gin
    report("criterion-6b route-agreement n=3", time.perf_counter() - t0, 60)


def test_criterion_7_borel_fixedness():
    t0 = time.perf_counter()
    gins = [
        (gl.gin_by_sampling(gl.GenericInstance(3, (2, 2), field=GF32003),
                            seed=0).ideal, GF32003.char),
        (gl.gin_by_sampling(gl.GenericInstance(4, (2, 2), field=GF32003),
                            seed=0).ideal, GF32003.char),
        (gl.gin_parametric(gl.GenericInstance(2, (2, 2))).ideal, 0),
    ]
    gins += [(res.ideal, GF32003.char) for _, _, res in _crit4_rows[:4]]
    for J, p in gins:
        assert gl.is_borel_fixed(J, p).holds
    rng = random.Random(1234)
    for _ in range(50):
        J = random_monomial_ideal(rng, 3, max_gens=4, max_exp=3)
        expected = gl.is_borel_fixed(J, 0).holds
        D = gl.top_degree(J) + 1
        got = all(borel_action_check(J, i, j, c, D)
                  for i in range(3) for j in range(i + 1, 3) for c in (1, 2))
        assert got == expected
    report("criterion-7 borel-fixedness", time.perf_counter() - t0, 120)


def test_criterion_8_oracle_equivalences():
    t0 = time.perf_counter()
    rng = random.Random(88)
    for _ in range(100):
        n = rng.randint(2, 4)
        J = random_monomial_ideal(rng, n)
        for d in range(9):
            assert gl.hilbert_series(J, d)[d] == hilbert_function_bruteforce(J, d)
    R = gl.xring(3, GF32003)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 2)
            from ginlab.poly import Polynomial
            terms = [(m, rng.randint(1, 32002))
                     for m in monomials_of_degree(3, deg)
                     if rng.random() < 0.8]
            if terms:
                gens.append(Polynomial.from_terms(R, gl.DEGREVLEX, terms))
        if not gens:
            continue
        gb = gl.reduce_basis(gl.buchberger(gens, gl.DEGREVLEX))
        J = gl.MonomialIdeal(3, lead_monomials(gb))
        for d in range(7):
            assert (hilbert_function_homogeneous(gens, d)
                    == gl.hilbert_series(J, d)[d])
    report("criterion-8 oracle-equivalences", time.perf_counter() - t0, 120)


def test_criterion_9_macaulay_maximality():
    t0 = time.perf_counter()
    rng = random.Random(55)
    checked = 0
    while checked < 30:
        J = random_monomial_ideal(rng, 3)
        D = gl.top_degree(J) + 8
        L, uncertain = gl.lexsegment_of_hf(3, gl.hilbert_series(J, D))
        if uncertain:
            continue
        for d in range(1, D + 1):
            assert (sum(1 for g in L.gens if sum(g) == d)
                    >= sum(1 for g in J.gens if sum(g) == d))
        checked += 1
    report("criterion-9 macaulay-maximality", time.perf_counter() - t0, 60)


def test_criterion_10_bound_soundness():
    assert _crit4_rows, "criterion 4 must run first"
    t0 = time.perf_counter()
    for n, degrees, res in _crit4_rows:
        bound_ideal, uncertain = lexsegment_of_froeberg(n, degrees)
        assert not uncertain
        bound = gl.top_degree(bound_ideal)
        # these grid cases produce lexsegment gins, so equality must hold
        assert gl.top_degree(res.ideal) == bound, (n, degrees)
    report("criterion-10 bound-soundness", time.perf_counter() - t0, 60)
