import random

import pytest

import ginlab as gl
from ginlab.ideals import hilbert_numerator, hilbert_series, monomials_of_degree
from ginlab.orders import binomial

from conftest import GIN_32_22, INI_I, INI_J
from oracles import hilbert_function_bruteforce


def random_monomial_ideal(rng, n, max_gens=6, max_exp=4):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if any(g)]
    return gl.minimalize(n, gens) if gens else gl.minimalize(n, [(1,) * n])


def test_minimalize():
    assert gl.minimalize(1, [(1,), (2,)]).gens == ((1,),)
    assert gl.minimalize(2, []).gens == ()
    assert gl.minimalize(3, list(GIN_32_22)).gens == GIN_32_22


def test_minimalize_idempotent():
    rng = random.Random(0)
    for _ in range(20):
        J = random_monomial_ideal(rng, 3)
        assert gl.minimalize(J.n, J.gens).gens == J.gens


def test_contains():
    J = gl.minimalize(3, [(2, 0, 0)])
    assert gl.contains(J, (2, 0, 1))
    J4 = gl.minimalize(4, [g + (0,) for g in GIN_32_22])
    assert not gl.contains(J4, (1, 0, 1, 2))
    zero = gl.minimalize(2, [])
    assert not gl.contains(zero, (3, 1))


def test_contains_generators():
    rng = random.Random(1)
    for _ in range(20):
        J = random_monomial_ideal(rng, 3)
        assert all(gl.contains(J, g) for g in J.gens)


def test_contains_dimension_check():
    with pytest.raises(ValueError):
        gl.contains(gl.minimalize(2, [(1, 0)]), (1, 0, 0))


def test_hilbert_numerator_zero_ideal():
    assert hilbert_numerator(gl.minimalize(3, [])) == [1]


def test_hilbert_series_fixtures():
    J = gl.minimalize(3, list(GIN_32_22))
    assert hilbert_series(J, 6) == [1, 3, 4, 4, 4, 4, 4]
    I = gl.minimalize(3, list(INI_I))
    assert hilbert_series(I, 6) == [1, 3, 3, 1, 0, 0, 0]
    Jv = gl.minimalize(3, list(INI_J))
    assert hilbert_series(Jv, 6) == [1, 3, 3, 1, 0, 0, 0]


def test_hilbert_function_values():
    assert gl.hilbert_function(gl.minimalize(3, []), 2) == 6
    J = gl.minimalize(3, list(GIN_32_22))
    # standard monomials in degree 3: x2^3, x2^2 x3, x2 x3^2, x3^3
    assert gl.hilbert_function(J, 3) == 4
    unit = gl.minimalize(2, [(0, 0)])
    for d in range(5):
        assert gl.hilbert_function(unit, d) == 0


def test_maxdeg():
    assert gl.maxdeg(gl.minimalize(3, list(GIN_32_22))) == 4
    assert gl.maxdeg(gl.minimalize(1, [(1,)])) == 1
    assert gl.maxdeg(gl.minimalize(3, list(INI_J))) == 4
    with pytest.raises(ValueError):
        gl.maxdeg(gl.minimalize(2, []))


def test_hilbert_function_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        J = random_monomial_ideal(rng, n)
        for d in range(9):
            assert gl.hilbert_function(J, d) == hilbert_function_bruteforce(J, d)


def test_numerator_consistent_with_series():
    rng = random.Random(9)
    for _ in range(10):
        J = random_monomial_ideal(rng, 3)
        series = hilbert_series(J, 8)
        for d in range(9):
            assert gl.hilbert_function(J, d) == series[d]


def test_monomials_of_degree_complete_and_descending():
    for n in range(1, 5):
        for d in range(5):
            monos = monomials_of_degree(n, d)
            assert len(monos) == binomial(n - 1 + d, d)
            assert all(len(m) == n and sum(m) == d for m in monos)
            assert all(a > b for a, b in zip(monos, monos[1:]))
