from itertools import product

import numpy as np
import pytest

from fcat import (ShapeMismatch, c_morphism, c_morphism_inv, compose, embed,
                  hom_dim, identity, lift, random_morphism,
                  random_tube_morphism, tensor, tube_algebra, tube_compose,
                  tube_hom_dim, tube_identity, unembed)
from fcat.tube import (TubeMorphism, _compose_matrix, tube_from_vector,
                       tube_layout, tube_to_vector)


def oracle_tube_compose(g: TubeMorphism, f: TubeMorphism) -> TubeMorphism:
    """Diagrammatic annular stacking: over grades S of g and R of f, the
    lift graded by (S, R) of ``(g_S (x) id_R) . (id_S (x) f_R)``."""
    spec = f.spec
    out = TubeMorphism(spec, f.src, g.dst, {})
    for S, gS in g.components.items():
        for R, fR in f.components.items():
            mid = compose(tensor(gS, identity(spec, (R,))),
                          tensor(identity(spec, (S,)), fR))
            out = out + lift(spec, mid, (S, R))
    return out.prune()


@pytest.fixture(scope="module")
def oracle_specs(specs, su2):
    return {**specs, **{f"su2_{k}": spec for k, spec in su2.items()}}


@pytest.mark.parametrize("name,X,Y,want", [
    ("fibonacci", ("tau",), ("tau",), 3),
    ("fibonacci", (), (), 2),
    ("ising", ("sigma",), ("sigma",), 4),
    ("vec_z2", ("e",), ("e",), 2),
])
def test_tube_hom_dims(specs, name, X, Y, want):
    spec = specs[name]
    assert tube_hom_dim(spec, spec.word(X), spec.word(Y)) == want


def test_tube_dim_counts_through_pairs(specs):
    # dim Hom_TC(x, y) equals the count through intermediate pairs (I, J)
    for spec in specs.values():
        n = spec.n_labels
        for x in range(n):
            for y in range(n):
                via_pairs = sum(
                    hom_dim(spec, (x,), (I, J)) * hom_dim(spec, (I, J), (y,))
                    for I in range(n) for J in range(n))
                assert tube_hom_dim(spec, (x,), (y,)) == via_pairs


def test_embed_functorial_and_faithful(specs, rng):
    for spec in specs.values():
        t = spec.n_labels - 1
        f = random_morphism(spec, (t,), (t, t), rng)
        g = random_morphism(spec, (t, t), (t,), rng)
        lhs = embed(compose(g, f))
        rhs = tube_compose(embed(g), embed(f))
        assert (lhs - rhs).norm() < 1e-12
        assert embed(f).norm() == f.norm()
        assert (unembed(embed(f)) - f).norm() == 0
        zero = embed(0.0 * f)
        assert zero.norm() == 0


def test_tube_identity_is_embedded_identity(fib):
    assert (tube_identity(fib, (1,)) - embed(identity(fib, (1,)))).norm() == 0


def test_tube_unit_and_associativity(specs, rng):
    for spec in specs.values():
        t = spec.n_labels - 1
        for _ in range(10):
            f = random_tube_morphism(spec, (t,), (t,), rng)
            g = random_tube_morphism(spec, (t,), (t,), rng)
            h = random_tube_morphism(spec, (t,), (t,), rng)
            assert (tube_compose(tube_identity(spec, (t,)), f) - f).norm() < 1e-12
            assert (tube_compose(f, tube_identity(spec, (t,))) - f).norm() < 1e-12
            res = (tube_compose(tube_compose(h, g), f)
                   - tube_compose(h, tube_compose(g, f))).norm()
            assert res < 1e-8


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3",
                                  "su2_2", "su2_3"])
def test_batched_composition_matches_diagrammatic_oracle(oracle_specs, rng, name):
    # tube_compose, and every column of the left and right composition
    # matrices, agree with the diagrammatic stacking on words of length 0-2
    spec = oracle_specs[name]
    n = spec.n_labels

    def basis(X, Y):
        return [tube_from_vector(spec, X, Y, e)
                for e in np.eye(tube_layout(spec, X, Y)[1])]

    cases = []
    for lengths in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 1, 1), (2, 2, 2)]:
        for _ in range(20):     # prefer words where neither factor's space is zero
            X, Y, Z = (tuple(int(a) for a in rng.integers(0, n, size=m))
                       for m in lengths)
            if tube_layout(spec, X, Y)[1] and tube_layout(spec, Y, Z)[1]:
                break
        cases.append((X, Y, Z))
    for X, Y, Z in cases:
        f = random_tube_morphism(spec, X, Y, rng)
        g = random_tube_morphism(spec, Y, Z, rng)
        assert (tube_compose(g, f) - oracle_tube_compose(g, f)).norm() < 1e-10
        out_dim = tube_layout(spec, X, Z)[1]
        left = _compose_matrix(g, X, True)
        probes = basis(X, Y)
        assert left.shape == (out_dim, len(probes))
        for c, h in enumerate(probes):
            want = tube_to_vector(oracle_tube_compose(g, h))
            assert np.abs(left[:, c] - want).max(initial=0.0) < 1e-10
        right = _compose_matrix(f, Z, False)
        probes = basis(Y, Z)
        assert right.shape == (out_dim, len(probes))
        for c, h in enumerate(probes):
            want = tube_to_vector(oracle_tube_compose(h, f))
            assert np.abs(right[:, c] - want).max(initial=0.0) < 1e-10


def test_tube_compose_shape_mismatch(fib, rng):
    f = random_tube_morphism(fib, (1,), (), rng)
    with pytest.raises(ShapeMismatch):
        tube_compose(f, f)


def test_grothendieck_ring(specs):
    # End_TC(unit) multiplies exactly like the fusion ring
    for spec in specs.values():
        n = spec.n_labels

        def grade_unit(R):
            return TubeMorphism(spec, (), (), {R: identity(spec, (R,))})

        for a in range(n):
            for b in range(n):
                prod = tube_compose(grade_unit(a), grade_unit(b))
                for T in range(n):
                    comp = prod.components.get(T)
                    got = comp.block(T)[0, 0] if comp is not None else 0.0
                    assert abs(got - spec.rules.N[a, b, T]) < 1e-12


def test_lift_unit_grading_is_embed(fib, rng):
    alpha = random_morphism(fib, (1,), (1, 1), rng)
    assert (lift(fib, alpha, ()) - embed(alpha)).norm() == 0


def test_lift_simple_grading_is_injection(fib, rng):
    alpha = random_morphism(fib, (1, 1), (1, 1, 1), rng)   # G=(tau), X=(tau), Y=(tau,tau)
    t = lift(fib, alpha, (1,))
    assert set(t.components) == {1}
    assert (t.components[1] - alpha).norm() == 0


def test_lift_shape_check(fib, rng):
    alpha = random_morphism(fib, (0, 1), (1, 1), rng)
    with pytest.raises(ShapeMismatch):
        lift(fib, alpha, (1,))


def test_pushing_map_across(specs, rng):
    """A morphism on the grading strand slides from the incoming to the
    outgoing side of the lift."""
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        t = spec.n_labels - 1
        G1, G2, X, Y = (t, t), (t,), (t,), (t,)
        for _ in range(5):
            g = random_morphism(spec, G1, G2, rng)
            alpha = random_morphism(spec, G2 + X, Y + G1, rng)
            lhs = lift(spec, compose(alpha, tensor(g, identity(spec, X))), G1)
            rhs = lift(spec, compose(tensor(identity(spec, Y), g), alpha), G2)
            assert (lhs - rhs).norm() < 1e-9


def test_c_morphism_unit_grading(specs):
    for spec in specs.values():
        X = (spec.n_labels - 1,)
        assert (c_morphism(spec, (), X) - tube_identity(spec, X)).norm() < 1e-13


def test_c_morphism_invertible(fib, ising):
    for spec in (fib, ising):
        t = spec.n_labels - 1
        G, X = (t,), (t, 0)
        c = c_morphism(spec, G, X)
        cinv = c_morphism_inv(spec, G, X)
        assert (tube_compose(cinv, c) - tube_identity(spec, G + X)).norm() < 1e-10
        assert (tube_compose(c, cinv) - tube_identity(spec, X + G)).norm() < 1e-10


def test_c_morphism_composition_law(specs):
    for name in ("fibonacci", "vec_z2"):
        spec = specs[name]
        t = spec.n_labels - 1
        G, H, X = (t,), (t,), (t,)
        lhs = tube_compose(c_morphism(spec, H, X + G), c_morphism(spec, G, H + X))
        rhs = c_morphism(spec, G + H, X)
        assert (lhs - rhs).norm() < 1e-10


def test_c_morphism_naturality(fib, rng):
    # (f (x) g) . c_{G1,X} = c_{G2,Y} . (g (x) f) for f: X -> Y, g: G1 -> G2
    G1, G2, X, Y = (1, 1), (1,), (1,), (1, 1)
    for _ in range(5):
        f = random_morphism(fib, X, Y, rng)
        g = random_morphism(fib, G1, G2, rng)
        lhs = tube_compose(embed(tensor(f, g)), c_morphism(fib, G1, X))
        rhs = tube_compose(c_morphism(fib, G2, Y), embed(tensor(g, f)))
        assert (lhs - rhs).norm() < 1e-9


def test_tube_vectorization_roundtrip(fib, rng):
    f = random_tube_morphism(fib, (1,), (1,), rng)
    v = tube_to_vector(f)
    _, dim = tube_layout(fib, (1,), (1,))
    assert v.shape == (dim,)
    g = tube_from_vector(fib, (1,), (1,), v)
    assert (f - g).norm() == 0


@pytest.mark.parametrize("name,want", [
    ("fibonacci", 7), ("ising", 12), ("vec_z2", 4), ("vec_z3", 9)])
def test_tube_algebra_dimension(specs, name, want):
    A = tube_algebra(specs[name])
    assert A.dim == want
    assert A.dim == sum(tube_hom_dim(specs[name], (i,), (j,))
                        for i in range(specs[name].n_labels)
                        for j in range(specs[name].n_labels))


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3"])
def test_tube_algebra_corners_are_tube_layout_vectors(specs, rng, name):
    # A's product on corner slices is tube_compose in tube_layout coordinates
    spec = specs[name]
    A = tube_algebra(spec)
    n = spec.n_labels
    for i in range(n):
        for j in range(n):
            for l in range(n):
                su, sv, sw = (A.corner_slices[c] for c in ((i, j), (j, l), (i, l)))
                u = np.zeros(A.dim, dtype=complex)
                v = np.zeros(A.dim, dtype=complex)
                u[su] = rng.standard_normal(su.stop - su.start)
                v[sv] = rng.standard_normal(sv.stop - sv.start)
                prod = A.multiply(v, u)
                want = tube_to_vector(tube_compose(
                    tube_from_vector(spec, (j,), (l,), v[sv]),
                    tube_from_vector(spec, (i,), (j,), u[su])))
                assert np.abs(prod[sw] - want).max(initial=0.0) < 1e-10
                prod[sw] = 0
                assert np.abs(prod).max() < 1e-10


def test_tube_algebra_unital_associative(specs, rng):
    for spec in specs.values():
        A = tube_algebra(spec)
        for _ in range(5):
            u = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            v = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            w = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            assert np.abs(A.multiply(A.unit, u) - u).max() < 1e-12
            assert np.abs(A.multiply(u, A.unit) - u).max() < 1e-12
            lhs = A.multiply(A.multiply(u, v), w)
            rhs = A.multiply(u, A.multiply(v, w))
            assert np.abs(lhs - rhs).max() < 1e-8


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3", "su2_3"])
def test_tube_algebra_stores_only_corner_triples(oracle_specs, name):
    spec = oracle_specs[name]
    A = tube_algebra(spec)
    n = spec.n_labels
    h = {(i, j): tube_hom_dim(spec, (i,), (j,)) for i, j in product(range(n), repeat=2)}
    want = sum(h[(i, j)] * h[(j, l)] * h[(i, l)]
               for i, j, l in product(range(n), repeat=3))
    assert A.structure.size == want
    assert sum(b.size for b in A.blocks.values()) == want
    assert all(np.shares_memory(b, A.structure) for b in A.blocks.values())
    arrays = [v for v in vars(A).values() if isinstance(v, np.ndarray)]
    assert all(a.size != A.dim ** 3 for a in arrays)


def test_tube_algebra_abelian_case_commutative(z2):
    A = tube_algebra(z2)
    res = np.abs(A.mult - A.mult.transpose(1, 0, 2)).max()
    assert res < 1e-12
