"""Truncated Hilbert-type series, the bracket truncation, and Macaulay's
lexsegment construction from a Hilbert function."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ideals import hilbert_series, maxdeg, minimalize, monomials_of_degree
from .orders import binomial, mono_divides


class InadmissibleHilbertFunction(ValueError):
    """The given coefficients cannot come from a lexsegment ideal."""


@dataclass(frozen=True)
class SeriesWindow:
    """First D+1 coefficients of a formal power series."""

    coeffs: tuple
    horizon_uncertain: bool = field(default=False, compare=False)

    @property
    def horizon(self):
        return len(self.coeffs) - 1

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


def froeberg_series(n, degrees, horizon=None):
    """Bracketed expansion of prod(1 - t^d_i) / (1 - t)^n."""
    if n < 1 or any(d < 1 for d in degrees):
        raise ValueError("need n >= 1 and all degrees >= 1")
    D = default_horizon(n, degrees) if horizon is None else horizon
    num = [0] * (D + 1)
    num[0] = 1
    for d in degrees:
        nxt = list(num)
        for i in range(D + 1 - d):
            nxt[i + d] -= num[i]
        num = nxt
    out = []
    for dd in range(D + 1):
        out.append(sum(num[i] * binomial(n - 1 + dd - i, dd - i)
                       for i in range(dd + 1)))
    return bracket_truncate(SeriesWindow(tuple(out)))


def lexsegment_of_hf(n, hf, horizon=None):
    """The lexsegment ideal whose quotient has the given Hilbert function.

    `hf` is a SeriesWindow or coefficient sequence; degrees beyond its
    window are not constrained. The construction is degreewise: in degree
    d the ideal's piece is the (dim S_d - hf_d) lex-largest monomials.
    The result is re-verified against `hf` and the ideal is flagged
    horizon-uncertain when a minimal generator appeared in the last n
    degrees of the window.
    """
    coeffs = tuple(hf.coeffs) if isinstance(hf, SeriesWindow) else tuple(hf)
    D = len(coeffs) - 1 if horizon is None else min(horizon, len(coeffs) - 1)
    if not coeffs or coeffs[0] != 1:
        raise InadmissibleHilbertFunction("Hilbert function must start with 1")
    gens = []
    last_gen_degree = 0
    for d in range(1, D + 1):
        dim = binomial(n - 1 + d, d)
        q = dim - coeffs[d]
        if q < 0:
            raise InadmissibleHilbertFunction(
                f"coefficient {coeffs[d]} at degree {d} exceeds dim S_{d} = {dim}")
        segment = monomials_of_degree(n, d)[:q]
        seg_set = set(segment)
        in_ideal = 0
        for m in seg_set:
            if any(mono_divides(g, m) for g in gens):
                in_ideal += 1
        # every degree-d multiple of an earlier generator must sit inside
        # the segment, otherwise no lexsegment ideal matches hf
        total_mult = _count_ideal_monomials(n, gens, d)
        if total_mult != in_ideal:
            raise InadmissibleHilbertFunction(
                f"degree-{d} piece is not a lex segment for the given function")
        new = [m for m in segment if not any(mono_divides(g, m) for g in gens)]
        if new:
            last_gen_degree = d
        gens.extend(new)
    J = minimalize(n, gens)
    got = hilbert_series(J, horizon=D) if J.gens else [binomial(n - 1 + d, d)
                                                      for d in range(D + 1)]
    if tuple(got[: D + 1]) != coeffs[: D + 1]:
        raise InadmissibleHilbertFunction(
            "constructed lexsegment ideal does not reproduce the Hilbert function")
    uncertain = bool(J.gens) and last_gen_degree > D - n
    return J, uncertain


def _count_ideal_monomials(n, gens, d):
    if not gens:
        return 0
    J = minimalize(n, gens)
    return binomial(n - 1 + d, d) - hilbert_series(J, horizon=d)[d]


def lexsegment_of_froeberg(n, degrees, horizon=None, max_horizon=4096):
    """Lexsegment ideal of the bracket series, with horizon auto-extension.

    When no horizon is given the socle heuristic is used as a starting
    point and doubled while the construction stays horizon-uncertain, so
    that slowly-stabilizing one-dimensional cases still yield their full
    generator set.
    """
    D = default_horizon(n, degrees) if horizon is None else horizon
    while True:
        hf = froeberg_series(n, degrees, D)
        J, uncertain = lexsegment_of_hf(n, hf)
        if not uncertain or horizon is not None or 2 * D > max_horizon:
            return J, uncertain
        D *= 2


def maxgbdeg_bound(n, hf, horizon=None):
    """Upper bound on reduced-basis degrees from the lexsegment ideal."""
    J, uncertain = lexsegment_of_hf(n, hf, horizon)
    if not J.gens:
        return 0
    return maxdeg(J)
