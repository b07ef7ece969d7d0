"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import cmath
import math

import numpy as np
import pytest

from fcat import (braiding_half_braiding, compose, completeness_check,
                  decompose_tube_algebra, eps_from_half_braiding, eps_xy,
                  half_braiding_from_idempotent, handle_slide_check,
                  hom_between_idempotents, hom_dim, identity, braid,
                  killing_ring_eval, load_builtin, modular_data,
                  random_morphism, random_tube_morphism, s_matrix, t_matrix,
                  tensor, trace, trace_left, trace_right, tube_algebra,
                  tube_compose, tube_identity, validate_hexagon,
                  validate_pentagon, cup, cap)
from fcat.tube import TubeMorphism

NAMES = ["fibonacci", "ising", "vec_z2", "vec_z3"]
PHI = (1 + math.sqrt(5)) / 2
SEED = 0x5EED


def _report(num, label, passed):
    print(f"criterion {num:02d} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="module")
def specs():
    return {name: load_builtin(name) for name in NAMES}


def test_criterion_01_data_validity(specs):
    ok = True
    for name in NAMES:
        spec = specs[name]
        ok &= validate_pentagon(spec)["max_residual"] < 1e-9
        if spec.braided:
            ok &= validate_hexagon(spec)["max_residual"] < 1e-9
    _report(1, "pentagon/hexagon validity", ok)


def test_criterion_02_double_decompose(specs):
    ok = True
    for name in NAMES:
        spec = specs[name]
        n, d, D2 = spec.n_labels, spec.pivotal.d, spec.pivotal.D2
        for R in range(n):
            total = sum(hom_dim(spec, (S, T), (R,)) * d[S] * d[T]
                        for S in range(n) for T in range(n))
            ok &= abs(total - d[R] * D2) < 1e-8
    fib = specs["fibonacci"]
    unit_value = sum(hom_dim(fib, (S, T), (0,)) * fib.pivotal.d[S] * fib.pivotal.d[T]
                     for S in range(2) for T in range(2))
    ok &= abs(unit_value - (2 + PHI)) < 1e-8
    _report(2, "double decomposition lemma", ok)


def test_criterion_03_tube_algebra_dimensions(specs):
    dims = {name: tube_algebra(specs[name]).dim for name in NAMES}
    ok = dims["fibonacci"] == 7 and dims["ising"] == 12 and dims["vec_z2"] == 4
    _report(3, "tube-algebra dimensions 7/12/4", ok)


def test_criterion_04_grothendieck_isomorphism(specs):
    ok = True
    for name in NAMES:
        spec = specs[name]
        n = spec.n_labels

        def grade_unit(R):
            return TubeMorphism.from_components(spec, (), (), {R: identity(spec, (R,))})

        for a in range(n):
            for b in range(n):
                prod = tube_compose(grade_unit(a), grade_unit(b))
                for T in range(n):
                    comp = prod.components.get(T)
                    got = comp.block(T)[0, 0] if comp is not None else 0.0
                    ok &= round(abs(got)) == spec.rules.N[a, b, T] \
                        and abs(got - round(got.real)) < 1e-9
    fib = specs["fibonacci"]
    e_tau = TubeMorphism.from_components(fib, (), (), {1: identity(fib, (1,))})
    sq = tube_compose(e_tau, e_tau)
    ok &= abs(sq.components[0].block(0)[0, 0] - 1) < 1e-9
    ok &= abs(sq.components[1].block(1)[0, 0] - 1) < 1e-9
    _report(4, "End_TC(unit) = fusion ring", ok)


def test_criterion_05_killing_ring(specs):
    ok = True
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        ok &= abs(killing_ring_eval(spec, spec.labels[spec.unit].id)
                  - spec.pivotal.D2) < 1e-8
        for R in range(spec.n_labels):
            if R != spec.unit:
                ok &= abs(killing_ring_eval(spec, spec.labels[R].id)) < 1e-8
    _report(5, "killing ring", ok)


def test_criterion_06_idempotency_and_handle_slide(specs):
    ok = True
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        n = spec.n_labels
        rng = np.random.default_rng(SEED)
        for I in range(n):
            for J in range(n):
                ci = eps_xy(spec, (I,), (J,))
                ok &= ci.idempotency_residual < 1e-8
        hb = braiding_half_braiding(spec, (n - 1,), (n - 1,))
        for _ in range(20):
            y = int(rng.integers(0, n))
            alpha = random_tube_morphism(spec, (y,), hb.object, rng)
            ok &= handle_slide_check(hb, alpha) < 1e-8
    _report(6, "eps idempotency + handle slide", ok)


def test_criterion_07_hom_space_theorem(specs):
    ok = True
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        n = spec.n_labels
        idems = {(I, J): eps_xy(spec, (I,), (J,))
                 for I in range(n) for J in range(n)}
        for (I, J), e1 in idems.items():
            for (Aa, B), e2 in idems.items():
                got = len(hom_between_idempotents(e1, e2))
                want = hom_dim(spec, (I,), (Aa,)) * hom_dim(spec, (J,), (B,))
                ok &= got == want == (1 if (I, J) == (Aa, B) else 0)
    _report(7, "Hom-space theorem", ok)


def test_criterion_08_completeness(specs):
    ok = True
    for name, want_sizes, want_total in (
            ("fibonacci", [1, 1, 1, 2], 7), ("ising", [1] * 8 + [2], 12)):
        spec = specs[name]
        n = spec.n_labels
        idems = [eps_xy(spec, (I,), (J,)) for I in range(n) for J in range(n)]
        sizes = sorted(sum(ci.mults.values()) for ci in idems)
        ok &= sizes == want_sizes
        ok &= sum(s * s for s in sizes) == want_total
        ok &= completeness_check(idems)["complete"]
        blocks = decompose_tube_algebra(tube_algebra(spec))
        ok &= sorted(b.block_size for b in blocks) == want_sizes
    _report(8, "completeness theorem", ok)


def test_criterion_09_non_modular_witness(specs):
    z2 = specs["vec_z2"]
    md = modular_data(z2)
    ok = bool(md.singular)
    ok &= np.abs(md.S - np.ones((2, 2))).max() < 1e-8
    idems = {(I, J): eps_xy(z2, (I,), (J,)) for I in range(2) for J in range(2)}
    ok &= len(hom_between_idempotents(idems[(1, 1)], idems[(0, 0)])) >= 1
    ok &= completeness_check(list(idems.values()))["complete"] is False
    _report(9, "non-modular witness (Vec_Z2)", ok)


def test_criterion_10_modular_data(specs):
    fib, ising = specs["fibonacci"], specs["ising"]
    ok = True
    S = s_matrix(fib)
    ok &= np.abs(S - np.array([[1, PHI], [PHI, -1]])).max() < 1e-8
    theta = np.diag(t_matrix(fib))
    ok &= abs(theta[1] - cmath.exp(4j * cmath.pi / 5)) < 1e-8
    Si = s_matrix(ising)
    rt2 = math.sqrt(2)
    ok &= np.abs(Si - np.array([[1, rt2, 1], [rt2, 0, -rt2], [1, -rt2, 1]])).max() < 1e-8
    ti = np.diag(t_matrix(ising))
    ok &= np.abs(ti - [1, cmath.exp(1j * cmath.pi / 8), -1]).max() < 1e-8
    for spec, Sm in ((fib, S), (ising, Si)):
        ok &= np.abs(Sm - s_matrix(spec, dual_strands=True)).max() < 1e-8
        n = spec.n_labels
        C = np.zeros((n, n))
        for i in range(n):
            C[i, spec.dual(i)] = 1
        ok &= np.abs(Sm @ Sm.conj().T - spec.pivotal.D2 * C).max() < 1e-8
    _report(10, "modular data values", ok)


def test_criterion_11_round_trip(specs):
    ok = True
    for name in NAMES:
        spec = specs[name]
        for block in decompose_tube_algebra(tube_algebra(spec)):
            hb = half_braiding_from_idempotent(block)
            rebuilt = eps_from_half_braiding(hb)
            ok &= (rebuilt.eps - block.eps).norm() < 1e-6
    _report(11, "block half-braiding round trip", ok)


def test_criterion_12_property_suites(specs):
    ok = True
    for name in NAMES:
        spec = specs[name]
        n = spec.n_labels
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            x, y = (int(v) for v in rng.integers(0, n, size=2))
            f = random_tube_morphism(spec, (x,), (y,), rng)
            g = random_tube_morphism(spec, (y,), (x,), rng)
            h = random_tube_morphism(spec, (x,), (y,), rng)
            ok &= (tube_compose(tube_identity(spec, (y,)), f) - f).norm() < 1e-8
            ok &= (tube_compose(f, tube_identity(spec, (x,))) - f).norm() < 1e-8
            ok &= (tube_compose(tube_compose(h, g), f)
                   - tube_compose(h, tube_compose(g, f))).norm() < 1e-8
            p = random_morphism(spec, (x, y), (y,), rng)
            q = random_morphism(spec, (y,), (x, y), rng)
            r = random_morphism(spec, (y,), (x, y), rng)
            s = random_morphism(spec, (x, y), (y,), rng)
            ok &= (tensor(compose(p, q), compose(s, r))
                   - compose(tensor(p, s), tensor(q, r))).norm() < 1e-8
            m = random_morphism(spec, (x, y), (x, y), rng)
            t0 = trace(m)
            ok &= abs(t0 - trace_left(m)) < 1e-8
            ok &= abs(t0 - trace_right(m)) < 1e-8
        for a in range(n):
            z2m = compose(tensor(identity(spec, [a]), cap(spec, a)),
                          tensor(cup(spec, a), identity(spec, [a])))
            ok &= (z2m - identity(spec, [a])).norm() < 1e-8
            if spec.braided:
                for b in range(n):
                    rii = compose(braid(spec, b, a, under=True), braid(spec, a, b))
                    ok &= (rii - identity(spec, (a, b))).norm() < 1e-8
    _report(12, "seeded property suites", ok)
