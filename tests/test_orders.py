from math import comb

import pytest
from hypothesis import given, strategies as st

import ginlab as gl
from ginlab.orders import (EXP_MAX, DimensionMismatch, ExponentOverflow,
                           SingleBlock)
from ginlab.values import FrozenInstanceError

from oracles import (mono_div, mono_lcm, mono_mul, monomials_of_degree,
                     packed_key, tuple_key)

monos3 = st.tuples(*[st.integers(0, 6)] * 3)
all_orders = [gl.LEX, gl.DEGLEX, gl.DEGREVLEX,
              gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 1),
              gl.InverseBlock(gl.DEGREVLEX, gl.LEX, 2)]


def brute_degree_list(n, d, order):
    """Oracle: all degree-d monomials sorted descending by tuple keys."""
    return sorted(monomials_of_degree(n, d),
                  key=lambda m: tuple_key(order, m), reverse=True)


def test_lex_example():
    # x1*x3^2 vs x2^4: the x1 exponent decides
    assert packed_key(gl.LEX, (1, 0, 2)) > packed_key(gl.LEX, (0, 4, 0))


def test_equal_monomial_is_equal():
    for order in all_orders:
        assert packed_key(order, (1, 2, 3)) == packed_key(order, (1, 2, 3))
        assert packed_key(order, (1, 2, 3)) != packed_key(order, (1, 3, 2))


def test_degrevlex_degree2_table():
    # brute-force enumeration of the 6 degree-2 monomials in 3 variables
    expected = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                (0, 0, 2)]
    assert brute_degree_list(3, 2, gl.DEGREVLEX) == expected
    key = lambda m: packed_key(gl.DEGREVLEX, m)
    assert sorted(expected, key=key, reverse=True) == expected
    assert key((0, 2, 0)) > key((1, 0, 1))


def test_degrevlex_degree3_table():
    got = brute_degree_list(3, 3, gl.DEGREVLEX)
    # within fixed degree, degrevlex and the key-based sort must agree
    assert got == sorted(got, key=lambda m: packed_key(gl.DEGREVLEX, m),
                         reverse=True)
    assert got[0] == (3, 0, 0) and got[-1] == (0, 0, 3)


def test_orders_are_values_sharing_one_layout_per_block_structure():
    assert repr(gl.LEX) == "lex"
    for make in (lambda: gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 3),
                 lambda: SingleBlock("degrevlex", graded=True, reversed=True)):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.layout(7) is b.layout(7)
    assert SingleBlock("degrevlex", True, True) == gl.DEGREVLEX
    with pytest.raises(ValueError, match="must be graded"):
        SingleBlock("revlex", reversed=True)
    assert SingleBlock(name="lex") == gl.LEX != SingleBlock("lex", True)
    by_keyword = gl.InverseBlock(nmain=3, param_order=gl.DEGREVLEX,
                                 main_order=gl.LEX)
    assert by_keyword == gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 3)
    assert repr(by_keyword) == (
        "InverseBlock(main_order=lex, param_order=degrevlex, nmain=3)")
    for order, field in ((gl.DEGREVLEX, "graded"), (all_orders[3], "nmain")):
        with pytest.raises(FrozenInstanceError):
            setattr(order, field, False)
    distinct = all_orders + [gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 2),
                             gl.InverseBlock(gl.LEX, gl.LEX, 1)]
    assert len(set(distinct)) == len(distinct)
    assert all(a != b for i, a in enumerate(distinct) for b in distinct[:i])
    # the same blocks: LEX in 3 variables is the main block alone
    assert gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 3).layout(3) is gl.LEX.layout(3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gl.LEX.layout(3).pack((1, 0))


@given(monos3, monos3, monos3)
def test_order_axioms(a, b, c):
    for order in all_orders:
        key = lambda m: packed_key(order, m)
        ka, kb, kc = key(a), key(b), key(c)
        # totality + antisymmetry
        assert (ka < kb) + (ka > kb) + (ka == kb) == 1
        # transitivity
        if ka <= kb <= kc:
            assert ka <= kc
        # multiplicativity
        if ka <= kb:
            assert key(mono_mul(a, c)) <= key(mono_mul(b, c))
        # 1 is minimal
        assert key((0, 0, 0)) <= ka


def test_inverse_block_restricts_to_main_order():
    order = gl.InverseBlock(gl.DEGREVLEX, gl.LEX, 3)
    for d in range(4):
        for m1 in monomials_of_degree(3, d):
            for m2 in monomials_of_degree(3, d):
                full1, full2 = m1 + (0, 0), m2 + (0, 0)
                assert ((packed_key(order, full1) > packed_key(order, full2))
                        == (packed_key(gl.DEGREVLEX, m1)
                            > packed_key(gl.DEGREVLEX, m2)))


def test_inverse_block_main_part_dominates():
    order = gl.InverseBlock(gl.LEX, gl.LEX, 2)
    # x2 * t1^5 < x1 even though the parameter part is huge
    assert packed_key(order, (0, 1, 5)) < packed_key(order, (1, 0, 0))


def test_binom_p_leq_examples():
    assert gl.binom_p_leq(1, 3, 2) is True     # binom(3,1) = 3 is odd
    assert gl.binom_p_leq(1, 2, 2) is False    # binom(2,1) = 2 is even
    for t in range(10):
        for p in (0, 2, 3, 5):
            assert gl.binom_p_leq(0, t, p) is True


def test_binom_p_leq_p0_is_leq():
    for s in range(8):
        for t in range(8):
            assert gl.binom_p_leq(s, t, 0) == (s <= t)


def test_lucas_agrees_with_direct_binomial():
    for p in (2, 3, 5):
        for t in range(13):
            for s in range(t + 1):
                assert gl.binom_p_leq(s, t, p) == (comb(t, s) % p != 0)


def test_binom_p_leq_rejects_composite():
    with pytest.raises(ValueError):
        gl.binom_p_leq(1, 2, 4)


def test_monomial_quotient():
    assert mono_div((2, 0, 1), (1, 0, 0)) == (1, 0, 1)
    assert mono_div((1, 1, 0), (0, 0, 1)) is None
    m = (3, 1, 2)
    assert mono_div(m, (0, 0, 0)) == m
    assert mono_lcm((2, 0, 1), (1, 3, 0)) == (2, 3, 1)


def divides(L, a, b):
    """Whether packed a divides packed b: the guard-bit test of the
    `orders` docstring, as the kernel runs it inline."""
    return ((b | L.guard) - a) & L.guard == L.guard


orders4 = [gl.LEX, gl.DEGLEX, gl.DEGREVLEX,
           gl.InverseBlock(gl.LEX, gl.DEGREVLEX, 2),
           gl.InverseBlock(gl.DEGREVLEX, gl.DEGLEX, 1),
           gl.InverseBlock(gl.DEGLEX, gl.LEX, 3)]
exps4 = st.one_of(st.integers(0, 7), st.integers(0, 4000))
monos4 = st.tuples(*[exps4] * 4)


@given(monos4, monos4)
def test_packed_monomials_match_tuples(a, b):
    """Packed keys compare, divide, multiply and take lcms like tuples."""
    for order in orders4:
        L = order.layout(4)
        pa, pb = L.pack(a), L.pack(b)
        assert L.unpack(pa) == a
        ka, kb = L.key(pa), L.key(pb)
        assert L.from_key(ka) == pa
        assert (ka < kb) == (tuple_key(order, a) < tuple_key(order, b))
        assert (ka == kb) == (a == b)
        assert divides(L, pa, pb) == (mono_div(b, a) is not None)
        assert L.key(pa + pb) == ka + kb
        assert L.unpack(pa + pb) == mono_mul(a, b)
        assert L.degree(pa) == sum(a)
        # colon generators: a / gcd(a, b), degree fields zero
        qa, qb = (L.pack(tuple(x - min(x, y) for x, y in zip(u, v)))
                  & L.exponent_mask for u, v in ((a, b), (b, a)))
        # with its block degrees added, a quotient is its monomial, and
        # the lcm is b times a / gcd(a, b)
        assert qa + L.block_degrees(qa) == L.pack(L.unpack(qa))
        assert pb + qa + L.block_degrees(qa) == L.pack(mono_lcm(a, b))
        is_variable = (qa and qa & L.exponent_ones == qa
                       and not qa & (qa - 1))
        assert is_variable == (sum(L.unpack(qa)) == 1)
        # a divisor is no larger as an int
        for u, v in ((pa, pb), (qa, qb), (qb, qa)):
            assert not divides(L, u, v) or u <= v


def test_exponent_overflow_is_refused():
    for order in orders4:
        L = order.layout(4)
        top = (EXP_MAX, 0, 0, 0)
        assert L.unpack(L.pack(top)) == top
        # too large an exponent, or a block degree above EXP_MAX
        for m in [(EXP_MAX + 1, 0, 0, 0), (0, 0, 0, 1 << 20),
                  (EXP_MAX // 2 + 1,) * 4]:
            with pytest.raises(ExponentOverflow, match="does not fit"):
                L.pack(m)
    # x1^20000 and x2^20000 are fine, their lcm is not (x1, x2 in one
    # block): the sum sets a guard bit
    for order in orders4[:4]:
        L = order.layout(4)
        a, b = L.pack((20000, 0, 0, 0)), L.pack((0, 20000, 0, 0))
        q = a & L.exponent_mask  # a / gcd(a, b)
        assert (b + q + L.block_degrees(q)) & L.guard
    with pytest.raises(ExponentOverflow):
        gl.LEX.layout(2).pack((1 << 16, 0))
