import dataclasses
import itertools
import json

import numpy as np
import pytest

from fcat import load_builtin, load_category
from fcat.category import CategorySpec, FSymbolTable, FusionRules, Label, PivotalData
from su2k import su2k_document

NAMES = ["fibonacci", "ising", "vec_z2", "vec_z3"]
BRAIDED = ["fibonacci", "ising", "vec_z2"]
MODULAR = ["fibonacci", "ising"]


@pytest.fixture(scope="session")
def specs():
    return {name: load_builtin(name) for name in NAMES}


@pytest.fixture(scope="session")
def su2(tmp_path_factory):
    """Generated SU(2)_2 and SU(2)_3, keyed by k."""
    out = {}
    root = tmp_path_factory.mktemp("su2k")
    for k in (2, 3):
        p = root / f"su2_{k}.json"
        p.write_text(json.dumps(su2k_document(k)))
        out[k] = load_category(p)
    return out


@pytest.fixture(scope="session")
def su2_4(tmp_path_factory):
    """SU(2)_4: rank 5, the first rung with a 3 x 3 block."""
    p = tmp_path_factory.mktemp("su2k") / "su2_4.json"
    p.write_text(json.dumps(su2k_document(4)))
    return load_category(p)


@pytest.fixture(scope="session")
def s3(tmp_path_factory):
    """Vec_S3: pointed on the symmetric group, non-commutative fusion."""
    perms = list(itertools.permutations(range(3)))
    name = {p: f"g{idx}" for idx, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[q[x]] for x in range(3))

    def inv(p):
        out = [0] * 3
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    ids = [name[p] for p in perms]
    doc = {"name": "vec_s3", "labels": ids, "unit": name[(0, 1, 2)],
           "dual": {name[p]: name[inv(p)] for p in perms},
           "N": [[name[p], name[q], name[mul(p, q)], 1]
                 for p in perms for q in perms],
           "F": [[name[p], name[q], name[r], name[mul(mul(p, q), r)],
                  name[mul(p, q)], name[mul(q, r)], 0, 0, 0, 0, 1.0, 0.0]
                 for p in perms for q in perms for r in perms],
           "dims": {i: [1.0, 0.0] for i in ids}}
    path = tmp_path_factory.mktemp("s3") / "vec_s3.json"
    path.write_text(json.dumps(doc))
    return load_category(path)


@pytest.fixture(scope="session")
def mult_ring():
    """The fusion ring x (x) x = 1 + 2x, without F-data."""
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = 2
    # associativity: (xx)x = x + 2(1 + 2x) has the same counts as x(xx)
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bcf,afd->abcd", N, N)
    assert np.array_equal(lhs, rhs)
    d = np.array([1.0, 1 + np.sqrt(2)], dtype=complex)
    return CategorySpec(
        name="mult_ring", labels=(Label("1", 0), Label("x", 1)), unit=0,
        rules=FusionRules(N=N, dual=np.array([0, 1])),
        F=FSymbolTable(entries={}), R=None,
        pivotal=PivotalData(d=d, D2=complex(np.sum(d * d))), tol=1e-9)


@pytest.fixture(scope="session")
def mult_ring_f(mult_ring):
    """mult_ring with seeded random F-symbols on every fusion-allowed channel.

    The pentagon fails at O(1), but every vertex of x (x) x -> x carries two
    indices, which exercises the multiplicity paths of recoupling.
    """
    rng = np.random.default_rng(5)
    N = mult_ring.rules.N
    n = mult_ring.n_labels
    entries = {}
    for a, b, c, d, e, f in itertools.product(range(n), repeat=6):
        for al, be, ga, de in itertools.product(range(N[a, b, e]), range(N[e, c, d]),
                                                range(N[b, c, f]), range(N[a, f, d])):
            entries.setdefault((a, b, c, d), {})[(e, al, be, f, ga, de)] = \
                complex(*rng.normal(size=2))
    return dataclasses.replace(mult_ring, F=FSymbolTable(entries=entries), _cache={})


@pytest.fixture(scope="session")
def fib(specs):
    return specs["fibonacci"]


@pytest.fixture(scope="session")
def ising(specs):
    return specs["ising"]


@pytest.fixture(scope="session")
def z2(specs):
    return specs["vec_z2"]


@pytest.fixture(scope="session")
def z3(specs):
    return specs["vec_z3"]


@pytest.fixture()
def rng():
    return np.random.default_rng(0x5EED)
