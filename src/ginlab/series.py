"""Truncated Hilbert-type series, the bracket truncation, and Macaulay's
lexsegment construction from a Hilbert function.

The lexsegment construction works on Macaulay representations
(Bruns-Herzog 4.2) and never enumerates monomials. Write the d-th Macaulay
representation of h_d as h_d = sum C(c_j, j) with c_d > ... > c_1 >= 0
(greedy digits of the combinatorial number system; terms with c_j < j are
zero) and its Macaulay bound as h_d^<d> = sum C(c_j + 1, j + 1). Then:

- h is the Hilbert function of some S/I iff h_0 = 1, h_1 <= n and
  0 <= h_{d+1} <= h_d^<d> in every degree d >= 1;
- the lexsegment ideal L with that function has as degree-(d+1) minimal
  generators the monomials whose lex rank, counted from the smallest
  monomial, lies in [h_{d+1}, h_d^<d>);
- the monomial of lex rank k in degree d is read off the same digits of k
  (the combinatorial number system, in reversed variables);
- for the bracket series, L has no generator past max(1, r, G), and its
  top degree is G when G > r: r the `regularity_index`, G the
  `gotzmann_number` of the Hilbert polynomial.

The unranker `_lex_monomials`, asked for every rank, lists all of S_d in
ascending lex order; it is the one monomial enumerator of ginlab, which
the predicates and the generic templates use too. The bracket series is
prod(1 - t^d_i) expanded by `ideals.power_series`, and its numerator is
the truncated series times (1 - t)^n, both products by
`ideals.times_one_minus`.
"""

from __future__ import annotations

from math import comb

from .ideals import (_ideal, _poly_trim, hilbert_series, power_series,
                     times_one_minus, top_degree)


class InadmissibleHilbertFunction(ValueError):
    """The given coefficients cannot come from a lexsegment ideal."""


def bracket_truncate(series):
    """Zero every coefficient from the first non-positive one onward."""
    out = []
    alive = True
    for c in series:
        if alive and c <= 0:
            alive = False
        out.append(c if alive else 0)
    return tuple(out)


def default_horizon(n, degrees):
    # socle-degree heuristic: past the sum of (d_i - 1) plus a guard band
    return sum(d - 1 for d in degrees) + n + 1


def regularity_index(n, degrees):
    """The degree from which the bracket series of (n, degrees) is a
    polynomial in d of degree < n.

    prod(1 - t^d_i) / (1 - t)^n has a numerator of degree sum(d_i), so its
    coefficients agree with a polynomial of degree < n from
    sum(d_i) - n + 1 on. For s < n no coefficient is truncated; for s >= n
    the series is a polynomial in t of degree sum(d_i) - n, so the
    truncated series is zero from that index on.
    """
    return max(0, sum(degrees) - n + 1)


def _check_degrees(n, degrees):
    if n < 1 or any(d < 1 for d in degrees):
        raise ValueError("need n >= 1 and all degrees >= 1")


def froeberg_series(n, degrees, horizon=None):
    """Bracketed expansion of prod(1 - t^d_i) / (1 - t)^n."""
    _check_degrees(n, degrees)
    D = default_horizon(n, degrees) if horizon is None else horizon
    return bracket_truncate(power_series(times_one_minus([1], degrees), n, D))


def bracket_numerator(n, degrees):
    """The numerator N(t) = H * (1 - t)^n of the bracket series H, as
    integer coefficients without trailing zeros.

    Its degree is at most sum(d_i), so the window of H through that
    degree, times (1 - t)^n and cut to the window, gives it. When s <= n
    no coefficient of H is truncated, and N(t) = prod(1 - t^d_i).
    """
    D = sum(degrees)
    window = list(froeberg_series(n, degrees, D))
    return _poly_trim(times_one_minus(window, [1] * n)[:D + 1])


def _macaulay_digits(a, d):
    """Digits [c_d, ..., c_1], c_d > ... > c_1 >= 0, with
    a = sum C(c_j, j), chosen greedily from the top."""
    c = d - 1
    while comb(c + 1, d) <= a:
        c += 1
    digits = []
    for j in range(d, 0, -1):
        while comb(c, j) > a:
            c -= 1
        digits.append(c)
        a -= comb(c, j)
        c -= 1
    return digits


def _macaulay_shift(digits, t):
    """sum C(c_j + t, j + t): the Macaulay bound applied t times."""
    d = len(digits)
    return sum(comb(c + t, d - i + t) for i, c in enumerate(digits))


def _lex_monomials(n, d, lo=0, hi=None, digits=None):
    """The degree-d monomials in n variables with lo, ..., hi - 1 monomials
    of degree d below them in lex order, in ascending lex order; all of
    them by default. Numbering the variables x_n = 0, ..., x_1 = n - 1,
    the j-th smallest index among the d factors of the first is
    c_j - (j - 1), c_j the digits of lo (`_macaulay_digits`, or `digits`
    when the caller has them). Each next one is a colex step of the
    digits: of the k factors of least index, k - 1 drop to x_n and one
    moves up a variable."""
    if hi is None:
        hi = comb(n - 1 + d, d)
    if lo >= hi:
        return []
    m = [0] * n
    for i, c in enumerate(digits or _macaulay_digits(lo, d)):
        m[n - 1 - (c - (d - i - 1))] += 1
    out = [tuple(m)]
    for _ in range(lo + 1, hi):
        v = n - 1
        while not m[v]:
            v -= 1
        k = m[v]
        m[v] = 0
        m[v - 1] += 1
        m[-1] += k - 1
        out.append(tuple(m))
    return out


def _binomial(x, k):
    """C(x, k) as a polynomial in x, at any integer x."""
    return comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k)


def gotzmann_number(n, degrees):
    """The number G of terms of the Gotzmann representation
    P(d) = sum_{i=1..G} C(d + a_i - i + 1, a_i), a_1 >= ... >= a_G >= 0, of
    the Hilbert polynomial P of the bracket series; 0 when P = 0.

    P is the bracket series from r = `regularity_index` on. The k-th
    difference of term i is C(d + a_i - k - i + 1, a_i - k) if a_i >= k,
    else 0; it is 1 when a_i = k. So the k-th difference of P at r + k,
    less the terms with a_i > k, counts the terms with a_i = k. Terms with
    one a_i have consecutive indices, so each group sums to two binomials.

    Proof that no generator of the lexsegment ideal L lies past
    E = max(1, r, G), and that G is its top degree when G > r:

    - For e >= max(r, G), term i of P(e) is C(c_j, j) with j = e - i + 1
      >= 1 and c_j = j + a_i, and c_j > c_{j-1} as the a_i do not
      increase: the Macaulay representation of h_e = P(e). So h_e^<e> =
      sum C(c_j + 1, j + 1) = P(e + 1), and L_{e+1} = S_1 L_e.
    - If G > r and L has no generator in degree G, none lies past
      G - 1 >= r, and by Gotzmann persistence (Math. Z. 158, 1978; Green,
      "Generic initial ideals", 1998) h_{G-1+t} = sum C(c_j + t, j + t)
      for every t, the c_j being the digits of h_{G-1}. As a polynomial
      in d = G - 1 + t, with a = c_j - j, that is a Gotzmann
      representation of P with at most G - 1 terms, which uniqueness
      rules out.
    """
    r = regularity_index(n, degrees)
    p = froeberg_series(n, degrees, r + n - 1)[r:]
    groups, G = [], 0  # (a_i, the terms before the group, the group size)
    for k in range(n - 1, -1, -1):
        size = sum((-1) ** j * comb(k, j) * p[k - j] for j in range(k + 1))
        for a, before, m in groups:
            top = r + a - before + 1
            size -= _binomial(top, a - k + 1) - _binomial(top - m, a - k + 1)
        groups.append((k, G, size))
        G += size
    return G


def lexsegment_of_hf(n, hf, horizon=None):
    """The lexsegment ideal whose quotient has the Hilbert function `hf`,
    and a flag that is true when generators may lie past those returned.

    `hf` is a coefficient sequence starting at degree 0, a finite window
    that says nothing past its end, or past `horizon` if that is smaller.
    The ideal is built through that degree, degree by degree from Macaulay
    representations (see the module docstring); a coefficient above the
    Macaulay bound raises InadmissibleHilbertFunction. The result is
    flagged horizon-uncertain when a generator lies in the last n degrees
    of the window: the one heuristic left here.

    One Hilbert-series computation of the result re-checks it against
    `hf` through that degree. A lexsegment ideal is stable, so
    `ideals.hilbert_numerator` certifies that and takes the
    Eliahou-Kervaire sum; a result that failed the certificate would go
    through the pivot recursion instead. Either way the re-check is an
    exact Hilbert series of the ideal returned.
    """
    h = list(hf)
    if not h or h[0] != 1:
        raise InadmissibleHilbertFunction("Hilbert function must start with 1")
    last = len(h) - 1 if horizon is None else min(horizon, len(h) - 1)
    gens = []
    bound = n  # h_d^<d>, the largest admissible h_{d+1}
    for d in range(1, last + 1):
        hd = h[d]
        dim = comb(n - 1 + d, d)
        if hd > dim:
            raise InadmissibleHilbertFunction(
                f"coefficient {hd} at degree {d} exceeds dim S_{d} = {dim}")
        if hd < 0:
            raise InadmissibleHilbertFunction(
                f"coefficient {hd} at degree {d} is negative")
        if hd > bound:
            raise InadmissibleHilbertFunction(
                f"degree-{d} piece is not a lex segment for the given function")
        # without generators the digits of h_d are those of h_{d-1}, each
        # plus one, and a last 0: the same sum, and the digits are unique
        digits = ([c + 1 for c in digits] + [0] if hd == bound and d > 1
                  else _macaulay_digits(hd, d))
        gens += _lex_monomials(n, d, hd, bound, digits)
        bound = _macaulay_shift(digits, 1)
    J = _ideal(n, tuple(sorted(gens, reverse=True)))  # minimal, as built
    if hilbert_series(J, horizon=last) != h[:last + 1]:
        raise InadmissibleHilbertFunction(
            "constructed lexsegment ideal does not reproduce the Hilbert function")
    return J, bool(gens) and sum(gens[-1]) > last - n


def lexsegment_of_froeberg(n, degrees, horizon=None):
    """Lexsegment ideal of the bracket series, with an exact flag.

    It is built from the series through E + n, E = max(1, r, G) (see
    `gotzmann_number`), so the re-check runs n degrees past the last
    generator. With `horizon`, only generators of degree <= horizon are
    returned and the flag says whether one was left out; the build stops
    at max(1, r, horizon) if that is below E, as then G > horizon.
    """
    r = regularity_index(n, degrees)
    E = max(1, r, gotzmann_number(n, degrees))
    stop = E if horizon is None else min(E, max(1, r, horizon))
    J, _ = lexsegment_of_hf(n, froeberg_series(n, degrees, stop + n))
    if horizon is None:
        return J, False
    kept = tuple(g for g in J.gens if sum(g) <= horizon)
    return _ideal(n, kept), stop < E or len(kept) < len(J.gens)


def lexsegment_bound(n, degrees, horizon=None):
    """The top degree of the generators of degree <= horizon of the
    lexsegment ideal of the bracket series, a bound on reduced-basis
    degrees, and whether a generator lies past it. That is G when G > r
    (see `gotzmann_number`), and then no ideal is built unless horizon < G.
    """
    G = gotzmann_number(n, degrees)
    if G > regularity_index(n, degrees) and (horizon is None or horizon >= G):
        return G, False
    J, uncertain = lexsegment_of_froeberg(n, degrees, horizon)
    return top_degree(J), uncertain
