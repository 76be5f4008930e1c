"""Initial ideals of generic homogeneous ideals: Groebner kernel,
sampling and parametric pipelines, Hilbert-series combinatorics, and
classification predicates."""

from .fields import QQ, Field, PrimeField, field_by_name
from .orders import (LEX, DEGLEX, DEGREVLEX, ExponentOverflow, InverseBlock,
                     binom_p_leq)
from .poly import Polynomial, Ring, xring
from .groebner import (Budget, BudgetExceeded, GroebnerBasis, buchberger,
                       reduce_basis)
from .ideals import (MonomialIdeal, contains, hilbert_numerator,
                     hilbert_series, top_degree)
from .series import (InadmissibleHilbertFunction, bracket_truncate,
                     froeberg_series, lexsegment_bound, lexsegment_of_hf)
from .generic import (GenericInstance, GinResult, gin_by_sampling,
                      gin_parametric, ideal_at_point, is_u_generic,
                      sample_ideal, sample_point)
from .props import (PropertyVerdict, is_borel_fixed, is_lexsegment,
                    is_weakly_revlex)

__version__ = "0.1.0"
