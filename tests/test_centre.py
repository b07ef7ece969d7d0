import cmath
import json
import math

import numpy as np
import pytest

from fcat import (NotBraided, NotHalfBraiding, NotModular, SplitFailed,
                  braiding_half_braiding, c_morphism_inv, completeness_check,
                  decompose_tube_algebra, eps_from_half_braiding, eps_xy,
                  half_braiding_from_idempotent, half_braiding_residual,
                  handle_slide_check, hom_between_idempotents,
                  idempotent_hom_dim, identity, is_modular, killing_ring_eval,
                  load_category,
                  modular_data, random_tube_morphism, s_matrix, slice_checks,
                  t_matrix, trace, tube_algebra, tube_compose, tube_identity)
from fcat.category import word_channels
from fcat.centre import HalfBraiding, _blocks, _idempotent_mults, tau_word
from fcat.tube import tube_hom_dim, tube_to_vector
from su2k import su2k_document

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# idempotents from half-braidings

def test_eps_unit_pair_is_idempotent(specs):
    # the d-weighted average of trivial loops on the unit object
    for name in ("fibonacci", "ising", "vec_z2"):
        spec = specs[name]
        ci = eps_xy(spec, (), ())
        assert ci.idempotency_residual < 1e-12
        comp = ci.eps.components
        for S, m in comp.items():
            want = spec.pivotal.d[S] / spec.pivotal.D2
            np.testing.assert_allclose(m.block(S), want * np.eye(1), atol=1e-12)


def test_eps_unit_pair_mults_modular(specs):
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        ci = eps_xy(spec, (), ())
        assert ci.mults[spec.unit] == 1
        assert all(m == 0 for k, m in ci.mults.items() if k != spec.unit)


def test_eps_tau_tau_mults(fib):
    ci = eps_xy(fib, ("tau",), ("tau",))
    assert ci.mults == {0: 1, 1: 1}
    assert ci.idempotency_residual < 1e-12


def test_eps_idempotency_all_pairs(specs):
    for name in ("fibonacci", "ising", "vec_z2"):
        spec = specs[name]
        n = spec.n_labels
        for I in range(n):
            for J in range(n):
                ci = eps_xy(spec, (I,), (J,))
                assert ci.idempotency_residual < 1e-10


def test_eps_requires_braiding(z3):
    with pytest.raises(NotBraided):
        eps_xy(z3, ("w",), ("w",))


def test_eps_on_word_arguments(fib):
    # word (not just simple) arguments are supported on both sides
    ci = eps_xy(fib, ("tau", "tau"), ())
    assert ci.idempotency_residual < 1e-10
    assert ci.carrier == (1, 1)
    assert sum(ci.mults.values()) == 2


def test_bad_half_braiding_rejected(fib):
    tau = dict(braiding_half_braiding(fib, ("tau",), ()).tau)
    tau[1] = 0.5 * tau[1]
    with pytest.raises(NotHalfBraiding):
        eps_from_half_braiding(HalfBraiding(object=(1,), tau=tau))


def test_half_braiding_residual_zero_for_braiding(specs):
    for name in ("fibonacci", "ising", "vec_z2"):
        spec = specs[name]
        hb = braiding_half_braiding(spec, (spec.n_labels - 1,), (0,))
        assert half_braiding_residual(hb) < 1e-12


# ---------------------------------------------------------------------------
# handle slide

def test_handle_slide_identity_argument(fib):
    hb = braiding_half_braiding(fib, ("tau",), ("tau",))
    res = handle_slide_check(hb, tube_identity(fib, (1, 1)))
    assert res < 1e-12


def test_handle_slide_random(specs, rng):
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        t = spec.n_labels - 1
        hb = braiding_half_braiding(spec, (t,), (t,))
        X = hb.object
        for _ in range(20):
            alpha = random_tube_morphism(spec, (t,), X, rng)
            assert handle_slide_check(hb, alpha) < 1e-8
            beta = random_tube_morphism(spec, X, (t,), rng)
            assert handle_slide_check(hb, beta, mirror=True) < 1e-8


# ---------------------------------------------------------------------------
# Hom spaces and completeness

def test_hom_space_theorem_fibonacci(fib):
    idems = {(I, J): eps_xy(fib, (I,), (J,)) for I in range(2) for J in range(2)}
    for a in idems:
        for b in idems:
            dim = len(hom_between_idempotents(idems[a], idems[b]))
            assert dim == (1 if a == b else 0)


def test_hom_space_theorem_ising(ising):
    idems = [eps_xy(ising, (I,), (J,)) for I in range(3) for J in range(3)]
    rep = completeness_check(idems)
    assert rep["complete"] and rep["orthogonal"] and rep["primitive"]
    np.testing.assert_array_equal(rep["hom_dims"], np.eye(9, dtype=int))
    assert int(np.sum([b * b for b in np.ones(9, dtype=int)])) + 3 == 12


def test_completeness_counts(fib):
    idems = [eps_xy(fib, (I,), (J,)) for I in range(2) for J in range(2)]
    rep = completeness_check(idems)
    assert rep["complete"]
    assert rep["lhs"].sum() == rep["rhs"].sum() == 7
    # per-simple multiplicities n_IJ of the underlying objects: (1,1,1,2)
    sizes = sorted(sum(ci.mults.values()) for ci in idems)
    assert sizes == [1, 1, 1, 2]
    assert sum(s * s for s in sizes) == 7


def test_non_modular_witness(z2):
    idems = {(I, J): eps_xy(z2, (I,), (J,)) for I in range(2) for J in range(2)}
    rep = completeness_check(list(idems.values()))
    assert not rep["complete"]
    assert not rep["orthogonal"]
    witness = hom_between_idempotents(idems[(1, 1)], idems[(0, 0)])
    assert len(witness) >= 1
    h = witness[0]
    resid = (tube_compose(idems[(0, 0)].eps,
                          tube_compose(h, idems[(1, 1)].eps)) - h).norm()
    assert resid < 1e-10


def test_hom_dims_into_idempotents(fib):
    # dim Hom_TC([i], eps_I^J) = hom_dim(i, IJ)
    from fcat import hom_dim
    for I in range(2):
        for J in range(2):
            ci = eps_xy(fib, (I,), (J,))
            for i in range(2):
                got = idempotent_hom_dim(ci, (i,), "into")
                assert got == hom_dim(fib, (i,), (I, J))


def oracle_completeness(idems) -> dict:
    """completeness_check by probing all n^4 Hom spaces between the idempotents."""
    spec = idems[0].eps.spec
    n = spec.n_labels
    m = len(idems)
    hom_dims = np.array([[len(hom_between_idempotents(ea, eb)) for eb in idems]
                         for ea in idems])
    orthogonal = bool(np.array_equal(hom_dims - np.diag(np.diag(hom_dims)),
                                     np.zeros((m, m), dtype=int)))
    primitive = bool(np.array_equal(np.diag(hom_dims), np.ones(m, dtype=int)))
    into = np.array([[e.mults[i] for e in idems] for i in range(n)])
    outof = np.array([[idempotent_hom_dim(e, (j,), "out") for j in range(n)]
                      for e in idems])
    lhs = into @ outof
    rhs = np.array([[sum(int(np.dot(word_channels(spec, (R, i)),
                                    word_channels(spec, (j, R))))
                         for R in range(n)) for j in range(n)] for i in range(n)])
    complete = orthogonal and primitive and bool(np.array_equal(lhs, rhs))
    return {"complete": complete, "orthogonal": orthogonal,
            "primitive": primitive, "hom_dims": hom_dims,
            "lhs": lhs, "rhs": rhs}


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "su2_2",
                                  "su2_3", "fibonacci+tau_tau"])
def test_completeness_check_matches_the_hom_space_oracle(specs, su2, name):
    base = name.split("+")[0]
    spec = su2[int(base[4:])] if base.startswith("su2_") else specs[base]
    n = spec.n_labels
    idems = [eps_xy(spec, (I,), (J,)) for I in range(n) for J in range(n)]
    if name.endswith("+tau_tau"):    # tau (x) tau = 1 + tau: not primitive
        idems.append(eps_xy(spec, ("tau", "tau"), ()))
    got, want = completeness_check(idems), oracle_completeness(idems)
    for key in ("complete", "orthogonal", "primitive"):
        assert got[key] == want[key], key
    for key in ("hom_dims", "lhs", "rhs"):
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    if name.endswith("+tau_tau"):
        assert not got["primitive"] and not got["orthogonal"]


# ---------------------------------------------------------------------------
# modular data

def test_fibonacci_modular_data(fib):
    md = modular_data(fib)
    want_S = np.array([[1, PHI], [PHI, -1]])
    np.testing.assert_allclose(md.S, want_S, atol=1e-10)
    np.testing.assert_allclose(np.diag(md.T),
                               [1, cmath.exp(4j * cmath.pi / 5)], atol=1e-10)
    assert not md.singular
    assert is_modular(fib)


def test_ising_modular_data(ising):
    md = modular_data(ising)
    rt2 = math.sqrt(2)
    want_S = np.array([[1, rt2, 1], [rt2, 0, -rt2], [1, -rt2, 1]])
    np.testing.assert_allclose(md.S, want_S, atol=1e-10)
    np.testing.assert_allclose(np.diag(md.T),
                               [1, cmath.exp(1j * cmath.pi / 8), -1], atol=1e-10)
    assert is_modular(ising)


def test_vec_z2_not_modular(z2):
    md = modular_data(z2)
    np.testing.assert_allclose(md.S, np.ones((2, 2)), atol=1e-12)
    np.testing.assert_allclose(np.diag(md.T), [1, 1], atol=1e-12)
    assert md.singular
    assert not is_modular(z2)


def test_s_matrix_dual_strand_replacement(specs):
    for name in ("fibonacci", "ising", "vec_z2"):
        spec = specs[name]
        assert np.abs(s_matrix(spec) - s_matrix(spec, dual_strands=True)).max() < 1e-10
        assert np.abs(t_matrix(spec) - t_matrix(spec, dual_strands=True)).max() < 1e-10


def test_s_matrix_verlinde_consistency(specs):
    # cross-oracle: S S^dagger = D2 * charge conjugation for modular inputs
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        S = s_matrix(spec)
        n = spec.n_labels
        C = np.zeros((n, n))
        for i in range(n):
            C[i, spec.dual(i)] = 1
        np.testing.assert_allclose(S @ S.conj().T, spec.pivotal.D2 * C, atol=1e-10)


def test_modular_data_requires_braiding(z3):
    with pytest.raises(NotBraided):
        s_matrix(z3)


# ---------------------------------------------------------------------------
# killing ring and slices

def test_killing_ring(specs):
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        val = killing_ring_eval(spec, spec.labels[spec.unit].id)
        assert abs(val - spec.pivotal.D2) < 1e-10
        for R in range(spec.n_labels):
            if R == spec.unit:
                continue
            assert abs(killing_ring_eval(spec, spec.labels[R].id)) < 1e-10


def test_killing_ring_fibonacci_value(fib):
    assert abs(killing_ring_eval(fib, "1") - (2 + PHI)) < 1e-10


def test_killing_ring_invisible_without_modularity(z2):
    # with the trivial braiding the ring does not kill anything
    assert abs(killing_ring_eval(z2, "e") - 2.0) < 1e-12


def test_slice_checks(specs):
    for name in ("fibonacci", "ising"):
        rep = slice_checks(specs[name], n_instances=20)
        assert rep["max_residual"] < 1e-8


def test_slice_checks_need_modularity(z2, z3):
    with pytest.raises(NotModular):
        slice_checks(z2)
    with pytest.raises(NotBraided):
        slice_checks(z3)


# ---------------------------------------------------------------------------
# block decomposition and half-braiding extraction

@pytest.mark.parametrize("name,sizes", [
    ("fibonacci", [1, 1, 1, 2]),
    ("ising", [1, 1, 1, 1, 1, 1, 1, 1, 2]),
    ("vec_z2", [1, 1, 1, 1]),
    ("vec_z3", [1] * 9),
])
def test_block_sizes(specs, name, sizes):
    spec = specs[name]
    A = tube_algebra(spec)
    blocks = decompose_tube_algebra(A)
    assert sorted(b.block_size for b in blocks) == sizes
    assert sum(b.block_size ** 2 for b in blocks) == A.dim
    for b in blocks:
        assert b.idempotency_residual < 1e-9
        assert b.origin == "from_block_decomposition"


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3",
                                  "su2_2", "su2_3"])
def test_block_mults_are_the_normal_form_ranks(specs, su2, name):
    # a block's mults are measured on its corner idempotent, before the
    # transport to the word carrier; the normal form must have the same ranks
    spec = su2[int(name[4:])] if name.startswith("su2_") else specs[name]
    for ci in decompose_tube_algebra(tube_algebra(spec)):
        assert _idempotent_mults(ci.eps) == ci.mults


def test_block_decomposition_deterministic(fib):
    A = tube_algebra(fib)
    b1 = decompose_tube_algebra(A, seed=1)
    b2 = decompose_tube_algebra(A, seed=1)
    for x, y in zip(b1, b2):
        assert (x.eps - y.eps).norm() < 1e-12


def test_round_trip_all_blocks(specs):
    for spec in specs.values():
        blocks = decompose_tube_algebra(tube_algebra(spec))
        for b in blocks:
            hb = half_braiding_from_idempotent(b)
            assert half_braiding_residual(hb) < 1e3 * spec.tol
            rebuilt = eps_from_half_braiding(hb)
            assert (rebuilt.eps - b.eps).norm() < 1e-6
            assert rebuilt.mults == b.mults


def test_round_trip_from_braiding_pair(fib):
    ci = eps_xy(fib, ("tau",), ())
    hb = half_braiding_from_idempotent(ci)
    rebuilt = eps_from_half_braiding(hb)
    assert (rebuilt.eps - ci.eps).norm() < 1e-8
    # recovered family agrees with the sigma-built one up to the splitting basis
    ref = braiding_half_braiding(fib, ("tau",), ())
    for s in range(2):
        assert (hb.tau[s] - ref.tau[s]).norm() < 1e-8


def test_round_trip_with_explicit_unit_letter(fib):
    # carrier (tau, unit): the unit letter must pad transparently
    ci = eps_xy(fib, ("tau",), ("1",))
    assert ci.carrier == (1, 0)
    assert ci.mults == {0: 0, 1: 1}
    hb = half_braiding_from_idempotent(ci)
    assert half_braiding_residual(hb) < 1e-9
    rebuilt = eps_from_half_braiding(hb)
    assert (rebuilt.eps - ci.eps).norm() < 1e-8


@pytest.mark.parametrize("name", ["fibonacci", "ising", "su2_2", "su2_3"])
def test_extraction_from_non_normal_form_idempotents(specs, su2, name):
    # e2 = r.e.s/lambda has the image of e = eps_xy(I, J) but is not in normal
    # form; the normal form P rebuilt from the half-braiding extracted from e2
    # must have the same image: e2.P = P and P.e2 = e2
    spec = su2[int(name[-1])] if name.startswith("su2") else specs[name]
    rng = np.random.default_rng(7)
    for I in range(spec.n_labels):
        for J in range(spec.n_labels):
            e = eps_xy(spec, (I,), (J,)).eps
            r = random_tube_morphism(spec, e.src, e.src, rng)
            s = random_tube_morphism(spec, e.src, e.src, rng)
            ve = tube_to_vector(e)
            esre = tube_to_vector(tube_compose(e, tube_compose(s, tube_compose(r, e))))
            lam = (ve.conj() @ esre) / (ve.conj() @ ve)
            assert np.abs(esre - lam * ve).max() < 1e-9 * abs(lam)   # e is primitive
            e2 = (1.0 / lam) * tube_compose(r, tube_compose(e, s))
            P = eps_from_half_braiding(half_braiding_from_idempotent(e2)).eps
            assert (tube_compose(e2, P) - P).norm() < 1e-10
            assert (tube_compose(P, e2) - e2).norm() < 1e-10


def test_extraction_rejects_idempotent_short_of_the_carrier(fib):
    # the identity of tau (x) tau is idempotent, but its image is all of
    # Hom_TC([k], X), larger than the channels of the carrier
    with pytest.raises(SplitFailed, match="does not fill the carrier"):
        half_braiding_from_idempotent(tube_identity(fib, ("tau", "tau")))


def test_extraction_rejects_non_idempotent(fib):
    with pytest.raises(SplitFailed, match="not idempotent"):
        half_braiding_from_idempotent(2 * eps_xy(fib, ("tau",), ("tau",)).eps)


def test_unit_idempotent_half_braiding_trivial(specs):
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        ci = eps_xy(spec, (), ())
        hb = half_braiding_from_idempotent(ci)
        for s in range(spec.n_labels):
            blk = hb.tau[s]
            assert (blk - identity(spec, (s,))).norm() < 1e-9


def test_toric_code_em_block_signs(z2):
    """The charge-flux composite carries the sign half-braiding on e."""
    blocks = decompose_tube_algebra(tube_algebra(z2))
    on_e = [b for b in blocks if b.mults == {0: 0, 1: 1}]
    assert len(on_e) == 2
    sign_sets = []
    for b in on_e:
        hb = half_braiding_from_idempotent(b)
        assert half_braiding_residual(hb) < 1e-9
        vals = []
        for s in range(2):
            (blk,) = hb.tau[s].blocks.values()
            vals.append(int(round(blk[0, 0].real)))
        sign_sets.append(tuple(vals))
    assert sorted(sign_sets) == [(1, -1), (1, 1)]


def test_block_twists_match_deligne_product(specs):
    # for the doubled modular inputs: twists are theta_I * conj(theta_J)
    for name in ("fibonacci", "ising"):
        spec = specs[name]
        theta = np.diag(t_matrix(spec))
        want = sorted(np.round(theta[i] * np.conj(theta[j]), 8)
                      for i in range(spec.n_labels)
                      for j in range(spec.n_labels))
        blocks = decompose_tube_algebra(tube_algebra(spec))
        got = sorted(np.round(b.twist, 8) for b in blocks)
        assert all(abs(a - b) < 1e-6 for a, b in zip(want, got))


def test_block_mults_count_tube_dims(specs):
    # sum over blocks of m_i(b) m_j(b) equals dim Hom_TC(i, j)
    for spec in specs.values():
        blocks = decompose_tube_algebra(tube_algebra(spec))
        n = spec.n_labels
        for i in range(n):
            for j in range(n):
                via = sum(b.mults.get(i, 0) * b.mults.get(j, 0) for b in blocks)
                assert via == tube_hom_dim(spec, (i,), (j,))


def centre_twist_oracle(b) -> complex:
    """Twist of a block: the quantum trace of tau at its own carrier over d(Z)."""
    spec = b.hb.spec()
    dZ = sum(m * spec.pivotal.d[k] for k, m in b.mults.items())
    return complex(trace(tau_word(b.hb, b.hb.object)) / dZ)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3",
                                  "su2_2", "su2_3", "su2_4"])
def test_block_twists_match_the_trace_of_tau(specs, su2, su2_4, name):
    spec = ({**su2, 4: su2_4}[int(name[4:])] if name.startswith("su2_")
            else specs[name])
    for b in decompose_tube_algebra(tube_algebra(spec)):
        assert abs(centre_twist_oracle(b) - b.twist) < 1e-9


def _corner_twists(A):
    """(block size, twist) of each centre simple, read off its corner split.

    For a primitive idempotent e of the corner A_ii and the rotation t of
    End_TC([i]), ``e t e = lambda e``; the twist is conj(lambda).  No
    half-braiding is extracted.
    """
    out = []
    for i, e, mults in _blocks(A, np.random.default_rng(0x5EED)):
        B = A.blocks[(i, i, i)]
        t = c_morphism_inv(A.spec, (i,), ()).v
        ete = np.einsum("x,y,xyz->z", e, np.einsum("x,y,xyz->z", t, e, B), B)
        lam = (e.conj() @ ete) / (e.conj() @ e)
        assert np.abs(ete - lam * e).max() < 1e-9
        out.append((sum(mults.values()), np.conj(lam)))
    return out


def _same_twists(got, want) -> bool:
    key = lambda p: (p[0], round(p[1].real, 6), round(p[1].imag, 6))
    got, want = sorted(got, key=key), sorted(want, key=key)
    return ([s for s, _ in got] == [s for s, _ in want]
            and all(abs(a - b) < 1e-9 for (_, a), (_, b) in zip(got, want)))


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3",
                                  "su2_2", "su2_3", "su2_4"])
def test_twists_from_the_corner_split(specs, su2, tmp_path, name):
    if name == "su2_4":
        p = tmp_path / "su2_4.json"
        p.write_text(json.dumps(su2k_document(4)))
        spec = load_category(p)
    else:
        spec = su2[int(name[4:])] if name.startswith("su2_") else specs[name]
    A = tube_algebra(spec)
    want = [(b.block_size, b.twist) for b in decompose_tube_algebra(A)]
    assert _same_twists(_corner_twists(A), want)


def test_twists_from_the_corner_split_of_vec_s3(s3):
    # D(S3), out of reach of decompose_tube_algebra (no word carrier)
    w = cmath.exp(2j * math.pi / 3)
    want = [(1, 1), (1, 1), (2, 1), (2, 1), (2, w), (2, w.conjugate()),
            (3, 1), (3, -1)]
    assert _same_twists(_corner_twists(tube_algebra(s3)), want)
