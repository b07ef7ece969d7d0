import json

import numpy as np
import pytest

from fcat import load_builtin, load_category
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
