import pytest
from hypothesis import settings

import ginlab as gl

from oracles import parse_poly

# `--hypothesis-profile=ci` (the CI workflow) draws the same examples on
# every run and prints the blob that replays a failure; local runs keep
# the default, randomized profile
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def ring3():
    return gl.xring(3)


@pytest.fixture
def example_uv_ideals(ring3):
    """The two U-generic n=s=3 quadric ideals with different degrevlex
    initial ideals (the U != V example)."""
    p = lambda s: parse_poly(s, ring3, gl.DEGREVLEX)
    I = [p("x1^2 + x1*x3 + x2*x3 + x3^2"),
         p("x1^2 + x1*x2 + x1*x3 + x3^2"),
         p("x1^2 + x1*x2 - x1*x3 + x2^2 - x2*x3 - x3^2")]
    J = [p("x1^2 + x1*x3 + x2^2 + x2*x3 + x3^2"),
         p("x1*x2 + x1*x3 - x2^2 + x2*x3 + x3^2"),
         p("x1^2 + x1*x2 + x1*x3 + x2*x3 + x3^2")]
    return I, J


#: the worked random coefficient point for n=3, two quadrics
POINT_A = (8, -6, 9, -1, 1, 5, 1, 2, 7, -4, 5, -8)

#: lex initial ideal reached from POINT_A, and its generators
GIN_32_22 = ((2, 0, 0), (1, 1, 0), (1, 0, 2), (0, 4, 0))

#: lex gin of three quadrics in n=3
GIN_3_222 = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0), (0, 2, 1), (0, 1, 2),
             (0, 0, 4))

#: degrevlex initial ideals of the two example ideals above
INI_I = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2), (0, 0, 4))
INI_J = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0), (0, 2, 1), (0, 1, 2),
         (0, 0, 4))


@pytest.fixture
def sample_ideal_a(ring3):
    inst = gl.GenericInstance(3, (2, 2))
    return gl.ideal_at_point(inst, POINT_A), inst
