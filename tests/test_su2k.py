"""End-to-end checks on generated SU(2)_k data.

These categories carry negative quantum dimensions (spherical gauge with
Frobenius-Schur indicator -1 on half-integer spins), so they exercise the
cup/cap normalization, modular data and block decomposition away from the
unitary-gauge comfort zone of the bundled examples.
"""

import numpy as np
import pytest

from fcat import (completeness_check, decompose_tube_algebra,
                  eps_from_half_braiding, eps_xy, half_braiding_from_idempotent,
                  killing_ring_eval, load_builtin, modular_data,
                  t_matrix, tube_algebra, validate_hexagon, validate_pentagon)


def test_loads_and_validates(su2):
    for k, spec in su2.items():
        assert validate_pentagon(spec)["max_residual"] < 1e-9
        assert validate_hexagon(spec)["max_residual"] < 1e-9


def test_signed_quantum_dimensions(su2):
    for k, spec in su2.items():
        d = spec.pivotal.d.real
        assert (d[1::2] < 0).all(), "half-integer spins carry negative dimension"
        assert (d[0::2] > 0).all()
        assert abs(spec.pivotal.D2 - np.sum(d * d)) < 1e-12


def test_modular_with_killing_ring(su2):
    for k, spec in su2.items():
        assert not modular_data(spec).singular
        assert abs(killing_ring_eval(spec, "0") - spec.pivotal.D2) < 1e-8
        for j in range(1, spec.n_labels):
            assert abs(killing_ring_eval(spec, str(j))) < 1e-8


def test_su2_2_completeness(su2):
    spec = su2[2]
    idems = [eps_xy(spec, (i,), (j,)) for i in range(3) for j in range(3)]
    assert max(c.idempotency_residual for c in idems) < 1e-10
    assert completeness_check(idems)["complete"]


@pytest.mark.parametrize("k,sizes,dim", [
    (2, [1] * 8 + [2], 12),
    (3, [1] * 12 + [2] * 4, 28),
    (4, [1] * 16 + [2] * 8 + [3], 57),
])
def test_block_decomposition_and_round_trip(su2, su2_4, k, sizes, dim):
    spec = {**su2, 4: su2_4}[k]
    A = tube_algebra(spec)
    assert A.dim == dim
    blocks = decompose_tube_algebra(A)
    assert sorted(b.block_size for b in blocks) == sizes
    for b in blocks:
        hb = half_braiding_from_idempotent(b)
        rebuilt = eps_from_half_braiding(hb)
        assert (rebuilt.eps - b.eps).norm() < 1e-6
    theta = np.diag(t_matrix(spec))
    key = lambda z: (round(z.real, 6), round(z.imag, 6))
    want = sorted((theta[i] * np.conj(theta[j])
                   for i in range(spec.n_labels) for j in range(spec.n_labels)),
                  key=key)
    got = sorted((b.twist for b in blocks), key=key)
    assert all(abs(a - b) < 1e-5 for a, b in zip(want, got))


def test_su2_2_is_not_the_bundled_ising(su2):
    """Same fusion ring as Ising, inequivalent ribbon structure."""
    ising = load_builtin("ising")
    spec = su2[2]
    np.testing.assert_array_equal(np.sort(spec.rules.N, axis=None),
                                  np.sort(ising.rules.N, axis=None))
    t_ising = sorted(np.round(np.diag(t_matrix(ising)), 8).tolist(),
                     key=lambda z: (z.real, z.imag))
    t_su2 = sorted(np.round(np.diag(t_matrix(spec)), 8).tolist(),
                   key=lambda z: (z.real, z.imag))
    assert t_ising != t_su2
