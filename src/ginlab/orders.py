"""Monomials as exponent tuples, and total monomial orders.

Variables follow the convention x1 > x2 > ... > xn: index 0 is the
largest variable. Every order exposes a sort ``key`` so that bigger
monomials get bigger keys; all comparisons reduce to key comparisons.
"""

from __future__ import annotations

from math import comb

from .fields import _is_prime


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# monomial helpers (monomials are plain tuples of non-negative ints)

def mono_one(n):
    return (0,) * n


def mono_deg(m):
    return sum(m)


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_divides(m1, m2):
    """True iff m1 divides m2."""
    return all(a <= b for a, b in zip(m1, m2))


def mono_div(m1, m2):
    """m1 / m2, or None when m2 does not divide m1."""
    if len(m1) != len(m2):
        raise DimensionMismatch(f"exponent lengths differ: {len(m1)} vs {len(m2)}")
    q = tuple(a - b for a, b in zip(m1, m2))
    if any(e < 0 for e in q):
        return None
    return q


def mono_lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))


def mono_str(m, names=None):
    if not any(m):
        return "1"
    if names is None:
        names = [f"x{i + 1}" for i in range(len(m))]
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# orders

class Lex:
    name = "lex"

    def key(self, m):
        return m

    def __repr__(self):
        return "lex"

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class DegLex:
    name = "deglex"

    def key(self, m):
        return (sum(m), m)

    def __repr__(self):
        return "deglex"

    __eq__ = Lex.__eq__
    __hash__ = Lex.__hash__


class DegRevLex:
    name = "degrevlex"

    def key(self, m):
        # same degree: smaller exponent in the last differing variable wins
        return (sum(m), tuple(-e for e in reversed(m)))

    def __repr__(self):
        return "degrevlex"

    __eq__ = Lex.__eq__
    __hash__ = Lex.__hash__


class InverseBlock:
    """Order on mixed main/parameter monomials: main part decides first.

    The ambient exponent vector is (main exponents, parameter exponents);
    `nmain` gives the split point. Restricted to monomials with trivial
    parameter part this coincides with `main_order`.
    """

    name = "inverse-block"

    def __init__(self, main_order, param_order, nmain):
        self.main_order = main_order
        self.param_order = param_order
        self.nmain = nmain

    def key(self, m):
        return (self.main_order.key(m[: self.nmain]),
                self.param_order.key(m[self.nmain:]))

    def __repr__(self):
        return f"inverse-block({self.main_order!r}; {self.param_order!r}; nmain={self.nmain})"

    def __eq__(self, other):
        return (type(other) is InverseBlock
                and other.main_order == self.main_order
                and other.param_order == self.param_order
                and other.nmain == self.nmain)

    def __hash__(self):
        return hash(("inverse-block", self.main_order, self.param_order, self.nmain))


LEX = Lex()
DEGLEX = DegLex()
DEGREVLEX = DegRevLex()

ORDERS_BY_NAME = {"lex": LEX, "deglex": DEGLEX, "degrevlex": DEGREVLEX}


def order_by_name(name):
    try:
        return ORDERS_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}") from None


def cmp_monomials(m1, m2, order):
    """Total-order comparison: -1, 0 or 1."""
    if len(m1) != len(m2):
        raise DimensionMismatch(f"exponent lengths differ: {len(m1)} vs {len(m2)}")
    if isinstance(order, InverseBlock) and order.nmain > len(m1):
        raise DimensionMismatch(
            f"order expects at least {order.nmain} main variables, got {len(m1)}")
    k1, k2 = order.key(m1), order.key(m2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


# ---------------------------------------------------------------------------
# the p-adic binomial order used by the Borel criterion

def binom_p_leq(s, t, p):
    """s is below t in the characteristic-p sense: binom(t, s) != 0 mod p.

    For p = 0 this is the usual s <= t; for prime p it is decided by
    Lucas' theorem (every base-p digit of s is <= the matching digit of t).
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    if p == 0:
        return s <= t
    if not _is_prime(p):
        raise ValueError(f"characteristic {p} is neither zero nor prime")
    while s or t:
        if s % p > t % p:
            return False
        s //= p
        t //= p
    return True


def binomial(n, k):
    return comb(n, k) if 0 <= k <= n else 0
