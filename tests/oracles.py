"""Independent routes that only the tests use to check the library.

- `hilbert_function_bruteforce`: count standard monomials one by one
- `hilbert_function_homogeneous`: dim (S/I)_d of a polynomial ideal as
  the corank of its degree-d Macaulay matrix (the criterion-8 oracle)
- `u_generic_by_macaulay`: the u-genericity verdict from those coranks
- `is_groebner`: Buchberger's S-polynomial criterion
- `lexsegment_by_enumeration`: the lexsegment ideal of a Hilbert function
  by listing every monomial and testing it for divisibility
"""

from ginlab.groebner import normal_form, s_polynomial
from ginlab.ideals import (contains, hilbert_series, minimalize,
                           monomials_of_degree)
from ginlab.orders import binomial, mono_divides, mono_mul
from ginlab.props import _rank
from ginlab.series import (InadmissibleHilbertFunction, SeriesWindow,
                           default_horizon, froeberg_series)


def hilbert_function_bruteforce(J, d):
    """Count degree-d monomials outside J by direct enumeration."""
    return sum(1 for m in monomials_of_degree(J.n, d) if not contains(J, m))


def hilbert_function_homogeneous(gens, d):
    """dim (S/I)_d as corank of the Macaulay matrix of all degree-d shifts."""
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    n = ring.nvars
    fld = ring.field
    basis = monomials_of_degree(n, d)
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    for f in gens:
        if not f:
            continue
        if not f.is_homogeneous():
            raise ValueError("generators must be homogeneous")
        df = f.degree()
        if df > d:
            continue
        for tau in monomials_of_degree(n, d - df):
            row = [fld.zero] * len(basis)
            for m, c in f.terms:
                row[index[mono_mul(m, tau)]] = c
            rows.append(row)
    return len(basis) - _rank(rows, fld)


def u_generic_by_macaulay(gens, inst):
    """The verdict of `ginlab.is_u_generic`, from Macaulay coranks of the
    generators instead of the Hilbert series of their initial ideal."""
    D = default_horizon(inst.n, inst.degrees)
    expected = froeberg_series(inst.n, inst.degrees, D)
    for d in range(D + 1):
        if hilbert_function_homogeneous(gens, d) != expected[d]:
            return "no"
    return "yes" if inst.s <= inst.n else "conjectural-yes"


def is_groebner(G, order=None):
    """Buchberger post-check: every pairwise S-polynomial reduces to 0."""
    gens = list(G)
    order = order or gens[0].order
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if normal_form(s_polynomial(gens[i], gens[j], order), gens, order):
                return False
    return True


def lexsegment_by_enumeration(n, hf, horizon=None):
    """`ginlab.lexsegment_of_hf` on a finite window, by enumeration.

    In degree d the ideal's piece is the (dim S_d - hf_d) lex-largest
    monomials; each is tested for divisibility by the generators so far,
    and the multiples of those generators are counted by a Hilbert series
    in every degree. Returns the ideal and the finite-window flag: true
    when a generator lies in the last n degrees of the window.
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
        new = [m for m in segment if not any(mono_divides(g, m) for g in gens)]
        in_ideal = len(segment) - len(new)
        # every degree-d multiple of an earlier generator must sit inside
        # the segment, otherwise no lexsegment ideal matches hf
        multiples = (dim - hilbert_series(minimalize(n, gens), horizon=d)[d]
                     if gens else 0)
        if multiples != in_ideal:
            raise InadmissibleHilbertFunction(
                f"degree-{d} piece is not a lex segment for the given function")
        if new:
            last_gen_degree = d
        gens.extend(new)
    J = minimalize(n, gens)
    if tuple(hilbert_series(J, horizon=D)[: D + 1]) != coeffs[: D + 1]:
        raise InadmissibleHilbertFunction(
            "constructed lexsegment ideal does not reproduce the Hilbert function")
    return J, bool(J.gens) and last_gen_degree > D - n
