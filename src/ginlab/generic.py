"""The two routes to the initial ideal of generic homogeneous ideals:
random specialization of coefficient templates, and a single parametric
Groebner run under an inverse block order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .fields import QQ, PrimeField
from .groebner import buchberger
from .ideals import MonomialIdeal, minimalize, monomials_of_degree
from .orders import LEX, InverseBlock, binomial
from .poly import Polynomial, Ring
from .series import bracket_numerator

GF32003 = PrimeField(32003)


class InconclusiveSampling(RuntimeError):
    """No majority initial ideal emerged across sampling trials."""


# ---------------------------------------------------------------------------
# deterministic RNG: splitmix64, fixed across platforms and versions

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator; the only randomness source in sampling."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def nonzero_int(self, bound):
        """Uniform over the nonzero integers in [-bound, bound]."""
        u = self.next_u64() % (2 * bound)
        return u - bound if u < bound else u - bound + 1


# ---------------------------------------------------------------------------
# templates

@dataclass(frozen=True)
class GenericInstance:
    n: int
    degrees: tuple
    field: object = QQ
    main_order: object = LEX
    t_order: object = LEX

    def __post_init__(self):
        if self.n < 1 or any(d < 1 for d in self.degrees):
            raise ValueError("need n >= 1 and all degrees >= 1")

    @property
    def s(self):
        return len(self.degrees)

    @property
    def term_counts(self):
        return [binomial(self.n + d - 1, d) for d in self.degrees]

    @property
    def nparams(self):
        return sum(self.term_counts)

    @property
    def order(self):
        return InverseBlock(self.main_order, self.t_order, self.n)

    @property
    def ring(self):
        names = [f"x{i + 1}" for i in range(self.n)]
        for i, r in enumerate(self.term_counts):
            names += [f"t{i + 1}_{k + 1}" for k in range(r)]
        return Ring(self.field, tuple(names), self.n)

    def templates(self):
        """F_i = sum over degree-d_i monomials m_k of t_{i,k} * m_k,
        with k indexing monomials in descending lex."""
        ring = self.ring
        order = self.order
        out = []
        offset = 0
        for i, d in enumerate(self.degrees):
            monos = monomials_of_degree(self.n, d)
            terms = []
            for k, m in enumerate(monos):
                full = list(m) + [0] * self.nparams
                full[self.n + offset + k] = 1
                terms.append((tuple(full), 1))
            out.append(Polynomial.from_terms(ring, order, terms))
            offset += len(monos)
        return out

    def main_ring(self):
        return Ring(self.field, tuple(f"x{i + 1}" for i in range(self.n)))


def generic_templates(n, degrees, field=QQ, main_order=LEX, t_order=LEX):
    return GenericInstance(n, tuple(degrees), field, main_order, t_order)


# ---------------------------------------------------------------------------
# sampling route

def sample_point(inst, seed, bound=None):
    """The coefficient point for one trial: nonzero integers in
    [-bound, bound], drawn by a splitmix64 stream seeded with `seed`."""
    if bound is None:
        bound = inst.field.char - 1 if inst.field.char else 99
    if bound < 1:
        raise ValueError("coefficient bound must be >= 1")
    rng = SplitMix64(seed)
    return tuple(rng.nonzero_int(bound) for _ in range(inst.nparams))


def ideal_at_point(inst, point):
    """Specialize the templates at an explicit coefficient point."""
    if len(point) != inst.nparams:
        raise ValueError(f"point needs {inst.nparams} coordinates")
    ring = inst.main_ring()
    fld = inst.field
    out = []
    offset = 0
    for i, d in enumerate(inst.degrees):
        monos = monomials_of_degree(inst.n, d)
        terms = [(m, fld.of(point[offset + k])) for k, m in enumerate(monos)]
        out.append(Polynomial.from_terms(ring, inst.main_order, terms))
        offset += len(monos)
    return out


def sample_ideal(inst, seed, bound=None):
    return ideal_at_point(inst, sample_point(inst, seed, bound))


def is_u_generic(gb, inst):
    """Compare the Hilbert series of a sampled ideal with the bracket
    series of `inst`, in every degree.

    `gb` is the ideal's Groebner basis from `buchberger`, which keeps the
    Hilbert numerator of its initial ideal (HS(S/I) = HS(S/in I)); the
    series agree iff that numerator equals `series.bracket_numerator`. A
    basis without a numerator comes from a run whose Hilbert function
    left the bracket series in a completed degree, so it does not match.

    Returns "yes" (match, proven regular-sequence case s <= n),
    "conjectural-yes" (match, s > n), or "no".
    """
    if gb.hilbert_numerator != tuple(bracket_numerator(inst.n, inst.degrees)):
        return "no"
    return "yes" if inst.s <= inst.n else "conjectural-yes"


# ---------------------------------------------------------------------------
# results

@dataclass(frozen=True)
class GinResult:
    ideal: MonomialIdeal
    route: str  # "sampling" | "parametric"
    n: int
    degrees: tuple
    order_name: str
    field_name: str
    seeds: tuple = ()
    agreement: int | None = None
    u_generic: tuple = ()

    @property
    def s(self):
        return len(self.degrees)

    def to_json(self):
        out = {
            "schema": 1,
            "n": self.n,
            "s": self.s,
            "degrees": list(self.degrees),
            "order": self.order_name,
            "route": self.route,
            "ideal": self.ideal.to_json(),
            "field": self.field_name,
        }
        if self.route == "sampling":
            out["seeds"] = list(self.seeds)
            out["agreement"] = self.agreement
            out["u_generic"] = list(self.u_generic)
        return out


def trial_seeds(seed, trials):
    """The per-trial sampling seeds that `seed` and `trials` determine."""
    if trials < 1:
        raise ValueError("need at least one trial")
    base = SplitMix64(seed)
    return tuple(base.next_u64() for _ in range(trials))


def gin_by_sampling(inst, trials=5, seed=0, bound=None, budget=None):
    """Majority initial ideal across sampled specializations.

    Each trial reads its initial ideal off the leads of one Groebner basis
    (any Groebner basis has the same leading ideal) and its u-genericity
    verdict off the Hilbert numerator the same run kept.
    """
    seeds = trial_seeds(seed, trials)
    ideals = []
    flags = []
    for s in seeds:
        gens = sample_ideal(inst, s, bound)
        gb = buchberger(gens, inst.main_order, budget)
        ideals.append(minimalize(inst.n, gb.lead_monomials()))
        flags.append(is_u_generic(gb, inst))
    counts = Counter(ideals)
    top = counts.most_common()
    if len(top) > 1 and top[0][1] == top[1][1]:
        raise InconclusiveSampling(
            f"tie among sampled initial ideals ({top[0][1]} trials each)")
    majority, agreement = top[0]
    return GinResult(
        ideal=majority, route="sampling", n=inst.n, degrees=inst.degrees,
        order_name=inst.main_order.name, field_name=inst.field.name,
        seeds=seeds, agreement=agreement, u_generic=tuple(flags))


def gin_parametric(inst, budget=None):
    """Initial ideal of generic ideals from one Groebner run over k[t, x]
    with the main order dominant and the parameter order as tie-break.

    The main block is the most significant in that order, so the x-part
    of an element's lead is its block lead; the generic initial ideal is
    generated by the nonconstant ones."""
    gb = buchberger(inst.templates(), inst.order, budget)
    leads = [m[:inst.n] for m in gb.lead_monomials()]
    return GinResult(
        ideal=minimalize(inst.n, [m for m in leads if any(m)]),
        route="parametric", n=inst.n, degrees=inst.degrees,
        order_name=inst.main_order.name, field_name=inst.field.name)
