from fractions import Fraction

import pytest

import ginlab as gl
from ginlab.fields import QQ, Field, PrimeField, field_by_name
from ginlab.ideals import _ideal
from ginlab.values import FrozenInstanceError


def test_fields_are_values_keyed_by_their_characteristic():
    assert PrimeField(7) == field_by_name("F7") == Field(7)
    assert hash(PrimeField(7)) == hash(field_by_name("F7"))
    assert QQ == field_by_name("Q") == field_by_name("QQ") == Field(0)
    assert QQ != PrimeField(2) and PrimeField(2) != PrimeField(3)
    for f in (QQ, PrimeField(2), PrimeField(7), PrimeField()):
        assert field_by_name(f.name) == f
    assert [(f.char, f.name, repr(f)) for f in (QQ, PrimeField())] == [
        (0, "Q", "QQ"), (32003, "F32003", "GF(32003)")]
    with pytest.raises(FrozenInstanceError):
        QQ.char = 2
    # the other frozen values: built positionally or by keyword, defaults
    # filled in, equal and hash-equal when their fields are, and frozen
    J = gl.MonomialIdeal(2, [(0, 2), (1, 0), (1, 1)])
    names = ("x1", "x2")
    values = [
        (gl.Ring(QQ, names), gl.Ring(names=names, field=Field(0)),
         gl.Ring(QQ, names[::-1])),
        (gl.MonomialIdeal(2, ((1, 0), (0, 2))), J,
         gl.MonomialIdeal(n=2, gens=((1, 0),))),
        (gl.GenericInstance(2, (2, 2)),
         gl.GenericInstance(n=2, degrees=(2, 2), field=QQ, main_order=gl.LEX),
         gl.GenericInstance(2, (2, 2), PrimeField(7))),
        (gl.GinResult(J, "parametric", gl.GenericInstance(2, (1, 2))),
         gl.GinResult(ideal=J, route="parametric",
                      inst=gl.GenericInstance(2, [1, 2]), seeds=(),
                      agreement=None, u_generic=()),
         gl.GinResult(J, "sampling", gl.GenericInstance(2, (1, 2)), (7,), 1,
                      ("yes",))),
        (gl.PropertyVerdict(True), gl.PropertyVerdict(holds=True, witness=None),
         gl.PropertyVerdict(False, ((1, 0), (0, 1)))),
    ]
    for a, b, other in values:
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other
        field = a._fields[0]
        with pytest.raises(FrozenInstanceError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(FrozenInstanceError):
            delattr(a, field)
    assert gl.PropertyVerdict(True) != (True, None)
    assert repr(gl.PropertyVerdict(True)) == (
        "PropertyVerdict(holds=True, witness=None)")
    for make in (lambda: gl.Ring(QQ), lambda: gl.PropertyVerdict(True, None, 1),
                 lambda: gl.PropertyVerdict(True, holds=True),
                 lambda: gl.PropertyVerdict(truth=True)):
        with pytest.raises(TypeError):
            make()
    # the checks of the constructors still run
    for make in (lambda: gl.MonomialIdeal(2, ((1, 0, 0),)),
                 lambda: gl.MonomialIdeal(0, ()),
                 lambda: gl.GenericInstance(2, (2, 0)),
                 lambda: gl.GenericInstance(n=0, degrees=(2,))):
        with pytest.raises(ValueError):
            make()
    # a constructed ideal carries the divisor index of its check; one that
    # `_ideal` builds from generators minimal already packs it on first use
    assert "divisor_index" in vars(J)
    K = _ideal(J.n, J.gens)
    assert K == J and "divisor_index" not in vars(K)
    assert K.divisor_index is K.divisor_index is vars(K)["divisor_index"]


@pytest.mark.parametrize("make,arg", [
    (PrimeField, 0), (PrimeField, 1), (PrimeField, 4), (PrimeField, -7),
    (field_by_name, "F0"), (field_by_name, "F4"), (Field, 9),
])
def test_a_modulus_that_is_not_prime_is_refused(make, arg):
    with pytest.raises(ValueError):
        make(arg)


def test_of_is_the_one_coefficient_rule():
    assert QQ.of(3) == 3 and type(QQ.of(3)) is Fraction
    assert QQ.of(Fraction(-1, 2)) == Fraction(-1, 2)
    F7 = PrimeField(7)
    assert [F7.of(x) for x in (-1, 7, Fraction(1, 2), Fraction(-3))] == [
        6, 0, 4, 4]
    with pytest.raises(ValueError):
        F7.of(Fraction(1, 7))


def test_from_terms_sums_per_monomial_and_drops_zero_sums():
    ring = gl.xring(2, PrimeField(7))
    f = gl.Polynomial.from_terms(ring, gl.LEX, [
        ((0, 1), 3), ((1, 0), Fraction(1, 2)), ((0, 1), 4), ((1, 0), 1)])
    assert f.terms == (((1, 0), 5),)
    # each term is taken into GF(7) first, so 1/7 is refused even where
    # the rational sum would be zero
    with pytest.raises(ValueError):
        gl.Polynomial.from_terms(ring, gl.LEX, [
            ((1, 0), Fraction(1, 7)), ((1, 0), Fraction(-1, 7))])
    g = gl.Polynomial.from_terms(gl.xring(2), gl.DEGREVLEX, [
        ((0, 2), 1), ((1, 0), Fraction(1, 2)), ((0, 2), -1), ((2, 0), 2)])
    assert g.terms == (((2, 0), 2), ((1, 0), Fraction(1, 2)))
