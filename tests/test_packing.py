"""The integer packing kernel against the `Fraction` reference kernel.

On a parent-closed family, `invert`'s even-coordinate test for a chain
owner never fails: a non-member of the corner family meets the corner set,
and the member whose corner it holds cannot lie inside it (parent-closure
would make it a member), so that member strictly contains it and shares its
lower corner, which makes all its coordinates even.  Dropping the test is
therefore invisible here; dropping the walk to the parent's owner, or
reading S4 as S3, is not.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import packing_reference as ref
from cubeporos.errors import NotParentClosed
from cubeporos.families import CubeFamily, enumerate_Dgamma
from cubeporos.generators import random_parent_closed_family, rng_from_seed
from cubeporos.inverse import invert
from cubeporos.lattice import DyadicCube
from cubeporos.neighborhoods import _covering_cubes, gamma_carleson
from cubeporos.sparse import carleson_constant

# gamma-family depth per dimension: a d >= 2 distance scans every point
GAMMA_DEPTH = {1: 4, 2: 3, 3: 2}


def family(seed, d):
    rng = rng_from_seed(seed)
    # each cube keeps 4/3 children on average
    return random_parent_closed_family(rng, d, max_depth={1: 6, 2: 4, 3: 3}[d],
                                       keep_num={1: 2, 2: 1, 3: 1}[d],
                                       keep_den={1: 3, 2: 3, 3: 6}[d])


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_integer_packing_matches_the_fraction_reference(seed, d, data):
    S = family(seed, d)
    deepest = max(q.depth for q in S.members)
    # J below the deepest member leaves corner_membership_ok false
    J = data.draw(st.integers(0, deepest + 3), label="J")
    assert carleson_constant(S) == ref.carleson_constant(S)

    E, rep = invert(S, J)
    E_ref, rep_ref = ref.invert(S, J)
    assert E == E_ref
    assert rep == rep_ref

    gamma = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
                      label="gamma")
    Jg = min(J, GAMMA_DEPTH[d])
    fam = enumerate_Dgamma(E, DyadicCube.root(d), gamma, Jg)
    assert gamma_carleson(E, fam, gamma) == ref.gamma_carleson(E, fam, gamma)


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_carleson_constant_below_a_deeper_root(seed, d, data):
    # the family moved below a cube R of depth m, with or without R itself
    S = family(seed, d)
    m = data.draw(st.integers(1, 3), label="m")
    R = DyadicCube(m, tuple(data.draw(st.integers(0, (1 << m) - 1)) for _ in range(d)))
    moved = [DyadicCube(m + q.depth, tuple((c << q.depth) + k
                                           for c, k in zip(R.coords, q.coords)))
             for q in S.members]
    if data.draw(st.booleans(), label="drop R") and len(moved) > 1:
        moved = moved[1:]
    T = CubeFamily.make(R, moved, S.J)
    assert carleson_constant(T) == ref.carleson_constant(T)
    try:
        invert(T)
    except NotParentClosed:
        pass
    else:
        raise AssertionError("a family below a deeper root is not parent-closed")


def test_integer_covering_cubes_match_the_fraction_dilation():
    # every cube of d = 1, 2, 3 to depths 6, 6, 4, under each dilation count
    cases = 0
    for d, depth in ((1, 6), (2, 6), (3, 4)):
        for j in range(depth + 1):
            for coords in itertools.product(range(1 << j), repeat=d):
                R = DyadicCube(j, coords)
                for n in (1, 2, 3, 4, 7):
                    assert _covering_cubes(R, n) == ref.covering_cubes(R, n), (R, n)
                    cases += 1
    assert cases == 51_345
