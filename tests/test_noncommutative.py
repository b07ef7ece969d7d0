"""Pointed category on a nonabelian group: non-commutative fusion.

Vec_S3 has N[a,b,c] != N[b,a,c], no braiding, and a quantum double whose
simples mostly have underlying objects that are sums of distinct group
elements -- not realizable as tensor words.  These tests pin down both
what works (everything order-sensitive up to the tube algebra) and the
loud failure mode of the word-carrier normal form.
"""

import numpy as np
import pytest

from fcat import (DecompositionFailed, decompose_tube_algebra, hom_dim,
                  identity, tube_algebra, tube_compose,
                  tube_hom_dim, validate_pentagon)
from fcat.centre import _blocks
from fcat.tube import TubeMorphism


def test_loads_with_noncommutative_fusion(s3):
    N = s3.rules.N
    assert not np.array_equal(N, N.transpose(1, 0, 2))
    assert validate_pentagon(s3)["max_residual"] == 0.0
    # hom dimensions stay symmetric even though the ring is not commutative
    for a in range(6):
        for b in range(6):
            assert hom_dim(s3, (a,), (b,)) == hom_dim(s3, (b,), (a,))


def test_tube_algebra_is_group_theoretic(s3):
    A = tube_algebra(s3)
    assert A.dim == 36
    # dim Hom_TC(g, h) counts conjugators of g into h
    total = sum(tube_hom_dim(s3, (g,), (h,)) for g in range(6) for h in range(6))
    assert total == 36

    def grade_unit(R):
        return TubeMorphism.from_components(s3, (), (), {R: identity(s3, (R,))})

    # End_TC(unit) is the group ring: composition respects the group order
    for a in range(6):
        for b in range(6):
            prod = tube_compose(grade_unit(a), grade_unit(b))
            for T in range(6):
                comp = prod.components.get(T)
                got = comp.block(T)[0, 0] if comp is not None else 0.0
                assert abs(got - s3.rules.N[a, b, T]) < 1e-12


def test_word_carrier_boundary_fails_loudly(s3):
    """Doubles of nonabelian groups have centre simples whose underlying
    objects are class sums; no tensor word realizes them, and the block
    normal form must say so instead of returning something wrong."""
    A = tube_algebra(s3)
    with pytest.raises(DecompositionFailed, match="no word"):
        decompose_tube_algebra(A)


def test_corner_split_gives_the_simples_of_the_double(s3):
    """The blocks of D(S3) from group theory: the class {e} with the irreps
    of S3 (sizes 1, 1, 2), the transpositions with those of Z2 (3, 3) and
    the 3-cycles with those of Z3 (2, 2, 2).  The 2-dimensional irrep at
    {e} is the only block with two primitives in one corner."""
    blocks = _blocks(tube_algebra(s3), np.random.default_rng(0))
    assert sorted(sum(m.values()) for _, _, m in blocks) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert [i for i, _, m in blocks if m == {**dict.fromkeys(m, 0), s3.unit: 2}] \
        == [s3.unit]
