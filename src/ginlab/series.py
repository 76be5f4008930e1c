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
- the monomial of lex rank r in degree d is read off the same digits of r
  (the combinatorial number system, in reversed variables);
- L has no generator past degree e iff h_{e+t} = sum C(c_j + t, j + t)
  for all t >= 1, the digits being those of h_e (Gotzmann persistence).

The unranker `_lex_monomials`, asked for every rank, lists all of S_d in
ascending lex order; it is the one monomial enumerator of ginlab, which
the predicates and the generic templates use too. The bracket series is
prod(1 - t^d_i) expanded by `ideals.power_series`, and its numerator for
s > n is the truncated series times (1 - t)^n, n differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ideals import (MonomialIdeal, _poly_trim, hilbert_series, power_series,
                     top_degree)


class InadmissibleHilbertFunction(ValueError):
    """The given coefficients cannot come from a lexsegment ideal."""


@dataclass(frozen=True)
class SeriesWindow:
    """First D+1 coefficients of a formal power series."""

    coeffs: tuple

    def __getitem__(self, d):
        return self.coeffs[d]

    def __len__(self):
        return len(self.coeffs)

    def to_json(self):
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(int(c) for c in data["coeffs"]))


def bracket_truncate(series):
    """Zero every coefficient from the first non-positive one onward."""
    out = []
    alive = True
    for c in series.coeffs:
        if alive and c <= 0:
            alive = False
        out.append(c if alive else 0)
    return SeriesWindow(tuple(out))


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


def _product_numerator(degrees):
    """prod(1 - t^d_i) as integer coefficients."""
    num = [1]
    for d in degrees:
        num = [a - b for a, b in zip(num + [0] * d, [0] * d + num)]
    return num


def froeberg_series(n, degrees, horizon=None):
    """Bracketed expansion of prod(1 - t^d_i) / (1 - t)^n."""
    _check_degrees(n, degrees)
    D = default_horizon(n, degrees) if horizon is None else horizon
    return bracket_truncate(SeriesWindow(tuple(
        power_series(_product_numerator(degrees), n, D))))


def bracket_numerator(n, degrees):
    """The numerator N(t) of the bracket series H = N(t) / (1 - t)^n, as
    integer coefficients without trailing zeros.

    It is prod(1 - t^d_i) when s <= n, where no coefficient is truncated,
    and the polynomial H * (1 - t)^n when s > n. Its degree is at most
    sum(d_i) either way, so the window of H through that degree gives it:
    times 1 - t, n times, is n differences.
    """
    _check_degrees(n, degrees)
    if len(degrees) <= n:
        return _product_numerator(degrees)
    num = list(froeberg_series(n, degrees, sum(degrees)).coeffs)
    for _ in range(n):
        num = [a - b for a, b in zip(num, [0] + num)]
    return _poly_trim(num)


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


def _lex_monomials(n, d, lo=0, hi=None):
    """The degree-d monomials in n variables with lo, ..., hi - 1 monomials
    of degree d below them in lex order, in ascending lex order; all of
    them by default. Numbering the variables x_n = 0, ..., x_1 = n - 1,
    the j-th smallest index among the d factors of the first is
    c_j - (j - 1), c_j the digits of lo. Each next one is a colex step of
    the digits: of the k factors of least index, k - 1 drop to x_n and
    one moves up a variable."""
    if hi is None:
        hi = comb(n - 1 + d, d)
    if lo >= hi:
        return []
    m = [0] * n
    for i, c in enumerate(_macaulay_digits(lo, d)):
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


def _coefficient(h, d, n, start):
    """h[d]. Past its end the list `h` is extended as the polynomial of
    degree < n that it is from degree `start` on (a vanishing n-th finite
    difference); the list must reach degree start + n - 1 for that."""
    while len(h) <= d:
        if start is None or len(h) < start + n:
            raise ValueError(f"coefficients end at degree {len(h) - 1}, "
                             f"before degree {d} is determined")
        h.append(sum((-1) ** (j + 1) * comb(n, j) * h[-j]
                     for j in range(1, n + 1)))
    return h[d]


def lexsegment_of_hf(n, hf, horizon=None, polynomial_from=None):
    """The lexsegment ideal whose quotient has the Hilbert function `hf`,
    and a flag that is true when generators may lie past those returned.

    `hf` is a SeriesWindow or a coefficient sequence starting at degree 0.
    The ideal is built degree by degree from Macaulay representations (see
    the module docstring); a coefficient above the Macaulay bound raises
    InadmissibleHilbertFunction.

    Without `polynomial_from`, `hf` is a finite window and says nothing
    past its end, or past `horizon` if that is smaller. The ideal is built
    through that degree and flagged horizon-uncertain when a generator lies
    in the last n degrees of the window: the one heuristic left here.

    With `polynomial_from=r`, the caller guarantees that h_d is a
    polynomial in d of degree < n for d >= r, and `hf` must reach degree
    r + n - 1; later coefficients follow from that. The construction stops
    at the first degree e >= r where Gotzmann persistence holds at
    e+1..e+n. Both sides of that test are polynomials of degree < n in the
    shift, so n agreeing values prove that no generator lies past e. The
    flag is then exact: with `horizon`, only generators of degree
    <= horizon are returned, and the flag says whether any was left out.

    One Hilbert-series computation of the result re-checks it against
    `hf`, through the last degree that was read. A lexsegment ideal is
    stable, so `ideals.hilbert_numerator` certifies that and takes the
    Eliahou-Kervaire sum; a result that failed the certificate would go
    through the pivot recursion instead. Either way the re-check is an
    exact Hilbert series of the ideal returned.
    """
    h = list(hf.coeffs if isinstance(hf, SeriesWindow) else hf)
    if not h or h[0] != 1:
        raise InadmissibleHilbertFunction("Hilbert function must start with 1")
    if polynomial_from is None:
        last = len(h) - 1 if horizon is None else min(horizon, len(h) - 1)
    start = polynomial_from
    gens = []
    d, bound = 0, n  # bound = h_d^<d>, the largest admissible h_{d+1}
    while start is not None or d < last:
        d += 1
        hd = _coefficient(h, d, n, start)
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
        gens += _lex_monomials(n, d, hd, bound)
        # without generators the digits of h_d are those of h_{d-1}, each
        # plus one, and a last 0: the same sum, and the digits are unique
        digits = ([c + 1 for c in digits] + [0] if hd == bound and d > 1
                  else _macaulay_digits(hd, d))
        bound = _macaulay_shift(digits, 1)
        if start is not None and d >= start and bound == _coefficient(
                h, d + 1, n, start) and all(
                _macaulay_shift(digits, t) == _coefficient(h, d + t, n, start)
                for t in range(2, n + 1)):
            break
    top = d if start is None else d + n
    J = MonomialIdeal(n, tuple(sorted(gens, reverse=True)))
    if hilbert_series(J, horizon=top) != h[:top + 1]:
        raise InadmissibleHilbertFunction(
            "constructed lexsegment ideal does not reproduce the Hilbert function")
    if start is None:
        return J, bool(gens) and sum(gens[-1]) > last - n
    if horizon is None:
        return J, False
    kept = tuple(g for g in J.gens if sum(g) <= horizon)
    return MonomialIdeal(n, kept), len(kept) < len(J.gens)


def lexsegment_of_froeberg(n, degrees, horizon=None):
    """Lexsegment ideal of the bracket series, with a certified horizon.

    The bracket series is a polynomial of degree < n from
    `regularity_index` on, so its window through that index plus n
    determines it, and `lexsegment_of_hf` proves where the generators stop.
    Gotzmann's persistence theorem guarantees that this happens by the
    larger of that index and the Gotzmann number of the Hilbert
    polynomial. With `horizon`, only generators of degree <= horizon are
    returned and the flag is true iff one was left out.
    """
    reg = regularity_index(n, degrees)
    hf = froeberg_series(n, degrees, reg + n)
    return lexsegment_of_hf(n, hf, horizon, polynomial_from=reg)


def maxgbdeg_bound(n, hf, horizon=None):
    """Upper bound on reduced-basis degrees from the lexsegment ideal."""
    J, _ = lexsegment_of_hf(n, hf, horizon)
    return top_degree(J)
