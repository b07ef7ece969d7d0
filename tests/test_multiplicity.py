"""Counting layers on a fusion ring with genuine multiplicity.

The bundled categories are multiplicity-free; these tests drive the
N-dependent machinery (tree enumeration, factorization bases, hom
dimensions, tube dimensions) on the ring with x (x) x = 1 + 2x, whose
vertex spaces are two-dimensional.  No F-data is involved.
"""

import itertools

from fcat.category import hom_dim
from fcat.diagrams import tree_basis, tree_dims, factor
from fcat.tube import tube_hom_dim, tube_layout


def _brute_tree_count(N, word, k):
    if not word:
        return 1 if k == 0 else 0
    total = 0
    chains = [(word[0], 1)]
    for a in word[1:]:
        nxt = {}
        for m, cnt in chains:
            for c in range(2):
                if N[m, a, c]:
                    nxt[c] = nxt.get(c, 0) + cnt * N[m, a, c]
        chains = list(nxt.items())
    return dict(chains).get(k, 0)


def test_tree_counts_include_vertex_indices(mult_ring):
    N = mult_ring.rules.N
    for length in range(5):
        for word in itertools.product(range(2), repeat=length):
            dims = tree_dims(mult_ring, word)
            for k in range(2):
                assert dims.get(k, 0) == _brute_tree_count(N, word, k)
    # x^3 -> x has 1*2 + 2*1 + ... channels: enumerate explicitly
    trees = tree_basis(mult_ring, (1, 1, 1))[1]
    assert len(trees) == _brute_tree_count(N, (1, 1, 1), 1) == 5
    # vertex indices appear as distinct basis elements
    assert len(set(trees)) == len(trees)
    assert any(mu == 1 for (_, mu) in [t[-1] for t in trees])


def test_factor_bases_account_for_multiplicity(mult_ring):
    word = (1, 1, 1, 1)
    for p in range(5):
        fac = factor(mult_ring, word, p)
        for k, (basis, U) in fac.items():
            assert U.shape == (len(basis), len(tree_basis(mult_ring, word)[k]))
            want = sum(
                _brute_tree_count(mult_ring.rules.N, word[:p], i)
                * _brute_tree_count(mult_ring.rules.N, word[p:], j)
                * mult_ring.rules.N[i, j, k]
                for i in range(2) for j in range(2))
            assert len(basis) == want


def test_hom_and_tube_dims_with_multiplicity(mult_ring):
    assert hom_dim(mult_ring, (1, 1), (1,)) == 2
    assert hom_dim(mult_ring, (1, 1), (1, 1)) == 5
    # tube dims: sum_R hom(R x, x R)
    assert tube_hom_dim(mult_ring, (1,), (1,)) == \
        hom_dim(mult_ring, (0, 1), (1, 0)) + hom_dim(mult_ring, (1, 1), (1, 1))
    entries, dim = tube_layout(mult_ring, (1,), (1,))
    assert dim == tube_hom_dim(mult_ring, (1,), (1,)) == 6
