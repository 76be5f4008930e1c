from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ginlab as gl
from ginlab.poly import (Polynomial, Ring, RingMismatch, poly_from_json,
                         poly_to_json)

from oracles import (block_leading_data, full_templates, lead_monomial,
                     mono_mul, packed_key, parse_poly, primitive,
                     specialize)

R2 = gl.xring(2)


def randpoly(draw_terms):
    return Polynomial.from_terms(R2, gl.LEX, draw_terms)


terms2 = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
              st.integers(-9, 9)),
    max_size=6)


def multiply(f, g):
    """f * g, its like terms collected by `Polynomial.from_terms`."""
    return Polynomial.from_terms(f.ring, f.order, [
        (mono_mul(m1, m2), c1 * c2)
        for m1, c1 in f.terms for m2, c2 in g.terms])


def test_basic_arithmetic():
    # like terms are collected, and cancelled ones dropped
    f = parse_poly("x1 + x2 - 2*x1 + x1", R2, gl.LEX)
    assert f == parse_poly("x2", R2, gl.LEX)
    assert not parse_poly("x1*x2 - x2*x1", R2, gl.LEX)
    half_third = parse_poly("1/2 + 1/3", R2, gl.LEX)
    assert half_third.terms == (((0, 0), Fraction(5, 6)),)


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Polynomial.from_terms(R2, gl.LEX, [((1, 0, 0), 1)])


def test_terms_strictly_descending():
    f = parse_poly("x2 + x1^2 + 3*x1*x2", R2, gl.DEGREVLEX)
    keys = [packed_key(gl.DEGREVLEX, m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(c != 0 for _, c in f.terms)


def test_specialize_fixed_point(sample_ideal_a):
    gens, _ = sample_ideal_a
    R3 = gl.xring(3)
    assert gens[0] == parse_poly(
        "8*x1^2 - 6*x1*x2 + 9*x1*x3 - x2^2 + x2*x3 + 5*x3^2", R3, gl.LEX)
    assert gens[1] == parse_poly(
        "x1^2 + 2*x1*x2 + 7*x1*x3 - 4*x2^2 + 5*x2*x3 - 8*x3^2", R3, gl.LEX)


def test_specialize_zero_point():
    inst = gl.GenericInstance(2, (2,))
    F = full_templates(inst)[0]
    assert not specialize(F, (0, 0, 0), inst.n)


def test_specialize_no_parameters_is_identity():
    f = parse_poly("x1 + x2", R2, gl.LEX)
    assert specialize(f, (), 2) == f


def test_specialize_requires_full_point():
    inst = gl.GenericInstance(2, (2,))
    F = full_templates(inst)[0]
    with pytest.raises(ValueError):
        specialize(F, (1, 2), inst.n)


@given(terms2, terms2, st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_specialize_is_ring_homomorphism(t1, t2, point):
    ring = Ring(gl.QQ, ("x1", "t1", "t2"))
    lift = lambda ts: Polynomial.from_terms(
        ring, gl.LEX, [((0, m[0], m[1]), c) for m, c in ts])
    F, G = lift(t1), lift(t2)
    assert specialize(multiply(F, G), point, 1) == multiply(
        specialize(F, point, 1), specialize(G, point, 1))


def test_block_leading_data():
    ring = Ring(gl.QQ, ("x1", "x2", "t1", "t2"))
    f = Polynomial.from_terms(ring, gl.LEX, [
        ((2, 0, 1, 0), 1),   # t1*x1^2
        ((1, 1, 0, 1), 1),   # t2*x1*x2
        ((0, 2, 1, 1), 1)])  # t1*t2*x2^2
    lm, lc = block_leading_data(f, gl.LEX, 2)
    assert lm == (2, 0)
    assert lc.terms == (((1, 0), Fraction(1)),)

    g = Polynomial.from_terms(ring, gl.LEX, [
        ((1, 0, 1, 0), 1), ((1, 0, 0, 1), 1), ((0, 1, 0, 0), 1)])
    lm, lc = block_leading_data(g, gl.LEX, 2)
    assert lm == (1, 0)
    assert dict(lc.terms) == {(1, 0): 1, (0, 1): 1}

    u = Polynomial.from_terms(ring, gl.LEX, [((0, 0, 2, 1), 3)])
    lm, lc = block_leading_data(u, gl.LEX, 2)
    assert lm == (0, 0)
    assert dict(lc.terms) == {(2, 1): 3}


def test_block_leading_data_rejects_zero():
    ring = Ring(gl.QQ, ("x1", "t1"))
    with pytest.raises(ValueError):
        block_leading_data(Polynomial(ring, gl.LEX, ()), gl.LEX, 1)


@given(terms2, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_specialized_lead_matches_block_lead_when_lc_survives(ts, point):
    # the hypothesis pattern used by the specialization-stability check
    ring = Ring(gl.QQ, ("x1", "x2", "t1"))
    F = Polynomial.from_terms(
        ring, gl.LEX, [((m[0], m[1], abs(c) % 3), c) for m, c in ts])
    if not F:
        return
    lm, lc = block_leading_data(F, gl.LEX, 2)
    t = point[0]
    val = sum(c * t ** m[0] for m, c in lc.terms)
    f = specialize(F, point[:1], 2)
    # stability_check's survival test: the block lead is still a term
    survives = lm in dict(f.terms)
    assert survives == (val != 0)
    if survives:
        assert dict(f.terms)[lm] == val
        assert lead_monomial(f) == lm


@given(terms2, terms2)
def test_qq_and_gf_arithmetic_agree(t1, t2):
    p = 32003
    gf = gl.PrimeField(p)
    Rq, Rp = gl.xring(2, gl.QQ), gl.xring(2, gf)
    fq = Polynomial.from_terms(Rq, gl.LEX, t1)
    gq = Polynomial.from_terms(Rq, gl.LEX, t2)
    fp = Polynomial.from_terms(Rp, gl.LEX, t1)
    gp = Polynomial.from_terms(Rp, gl.LEX, t2)
    add = lambda f, g: Polynomial.from_terms(f.ring, gl.LEX, f.terms + g.terms)
    for hq, hp in ((add(fq, gq), add(fp, gp)),
                   (multiply(fq, gq), multiply(fp, gp))):
        reduced = {m: gf.of(c) for m, c in hq.terms if gf.of(c) != 0}
        assert reduced == dict(hp.terms)


def test_json_round_trip():
    R3 = gl.xring(3)
    f = parse_poly("1/2*x1^2 - 3*x2*x3 + 7", R3, gl.LEX)
    assert poly_from_json(R3, gl.LEX, poly_to_json(f)) == f


def test_primitive_strips_content():
    f = parse_poly("4/3*x1^2 - 2*x2^2", R2, gl.LEX)
    g = primitive(f)
    assert g == parse_poly("2*x1^2 - 3*x2^2", R2, gl.LEX)
    assert primitive(g) == g
