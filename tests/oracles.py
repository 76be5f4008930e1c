"""Independent routes that only the tests use to check the library.

- `hilbert_function_bruteforce`: count standard monomials one by one
- `hilbert_function_homogeneous`: dim (S/I)_d of a polynomial ideal as
  the corank of its degree-d Macaulay matrix (the criterion-8 oracle)
- `u_generic_by_macaulay`: the u-genericity verdict from those coranks
- `is_groebner`: Buchberger's S-polynomial criterion
"""

from ginlab.groebner import normal_form, s_polynomial
from ginlab.ideals import contains, monomials_of_degree
from ginlab.orders import mono_mul
from ginlab.props import _rank
from ginlab.series import default_horizon, froeberg_series


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
