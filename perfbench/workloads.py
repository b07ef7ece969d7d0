"""The benchmark's workloads: inputs, fcat invocations and correctness gates.

Each workload writes one SU(2)_k category document with the generator the
test suite uses (``tests/su2k.py``) and runs one fcat subcommand on it.
The gates compare each report with references computed here with numpy
straight from the document, never with fcat.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

TWIST_TOL = 1e-6
ASSOC_TOL = 1e-9

# The checks ``fcat check`` runs on SU(2)_3 at the commit that introduced
# this benchmark.  A faster ``check`` must still run every one of them.
CHECK_NAMES_SU2_3 = (
    "pentagon", "hexagon", "dimension_consistency", "duality_and_hom_symmetry",
    "plain_category_laws", "zigzag", "reidemeister_ii", "ribbon_balance",
    "sphericality", "double_decompose", "dual_decompose", "tube_category_laws",
    "tube_dim_pair_count", "grothendieck_ring", "s_dual_replacement",
    "t_dual_replacement", "killing_ring_unit", "killing_ring_nonunit",
    "eps_idempotency", "idempotent_hom_bookkeeping", "handle_slide",
    "completeness_matches_modularity", "hom_space_theorem", "slice_identities",
    "blocks_resolve_algebra", "block_round_trip",
)


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in does not hold fcat's sources."""


def import_fcat_cli():
    """Import ``fcat.cli`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fcat" / "cli.py").is_file():
        raise CheckoutError(f"no fcat sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fcat.cli
    if Path(fcat.cli.__file__).resolve().parent != (src / "fcat").resolve():
        raise CheckoutError(f"imported fcat from {fcat.cli.__file__}, not {src}")
    return fcat.cli


def su2k_document(k: int) -> dict:
    """The SU(2)_k document from the test suite's own generator."""
    path = ROOT / "tests" / "su2k.py"
    if not path.is_file():
        raise CheckoutError(f"no generator at {path}")
    spec = importlib.util.spec_from_file_location("su2k", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.su2k_document(k)


# ---------------------------------------------------------------------------
# references computed from the document alone

def _fusion(doc: dict):
    """Label index, dense ``N[a, b, c]``, duals and dimensions of a document."""
    index = {s: i for i, s in enumerate(doc["labels"])}
    n = len(index)
    N = np.zeros((n, n, n))
    for a, b, c, m in doc["N"]:
        N[index[a], index[b], index[c]] = m
    dual = np.array([index[doc["dual"][s]] for s in doc["labels"]])
    d = np.array([complex(*doc["dims"][s]) for s in doc["labels"]])
    return index, N, dual, d


def centre_reference(doc: dict, seed: int) -> list:
    """Blocks ``(size, twist)`` of Z(C) = C x C^rev for a modular C.

    The simple ``(a, b)`` restricts to ``a (x) dual(b)``, so its block has
    size ``sum_c N_{a, dual(b)}^c``, and its twist is
    ``theta_a conj(theta_b)`` with ``theta_a = sum_c (d_c / d_a) R^{aa}_c``.
    """
    index, N, dual, d = _fusion(doc)
    n = len(index)
    Raa = np.zeros((n, n), dtype=complex)
    for a, b, c, mu, nu, re, im in doc["R"]:
        if a == b and mu == nu == 0:
            Raa[index[a], index[c]] = complex(re, im)
    theta = (Raa @ d) / d
    return [(int(N[a, dual[b]].sum()), complex(theta[a] * np.conj(theta[b])))
            for a, b in product(range(n), repeat=2)]


def centre_gate(report: dict, reference: list) -> list:
    problems = []
    unmatched = list(reference)
    for block in report["result"]["blocks"]:
        size, twist = block["size"], complex(*block["twist"])
        hit = next((i for i, (s, t) in enumerate(unmatched)
                    if s == size and abs(t - twist) < TWIST_TOL), None)
        if hit is None:
            problems.append(f"block (size {size}, twist {twist:.6g}) "
                            "is not in the reference")
        else:
            unmatched.pop(hit)
    if unmatched:
        problems.append(f"{len(unmatched)} reference blocks have no match")
    return problems


def tube_algebra_reference(doc: dict, seed: int) -> dict:
    """The algebra dimension and three seeded random elements."""
    _, N, _, _ = _fusion(doc)
    dim = int(round(np.einsum("rik,jrk->", N, N)))
    rng = np.random.default_rng(seed)
    u, v, w = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
               for _ in range(3))
    return {"dim": dim, "elements": (u, v, w)}


def tube_algebra_gate(report: dict, reference: dict) -> list:
    result = report["result"]
    dim = reference["dim"]
    if result["dim"] != dim or len(result["basis"]) != dim:
        return [f"dim {result['dim']} with {len(result['basis'])} basis "
                f"elements, expected {dim}"]
    rows = np.array(result["mult"], dtype=float).reshape(-1, 5)
    x, y, z = (rows[:, i].astype(np.int64) for i in range(3))
    if rows.size and (min(x.min(), y.min(), z.min()) < 0
                      or max(x.max(), y.max(), z.max()) >= dim):
        return ["structure constant index out of range"]
    val = rows[:, 3] + 1j * rows[:, 4]

    def mul(p, q):
        out = np.zeros(dim, dtype=complex)
        np.add.at(out, z, val * p[x] * q[y])
        return out

    u, v, w = reference["elements"]
    uv = mul(u, v)
    lhs, rhs = mul(uv, w), mul(u, mul(v, w))
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    if not scale or not np.abs(uv).max():
        return ["structure constants multiply random elements to zero"]
    residual = np.abs(lhs - rhs).max() / scale
    if residual > ASSOC_TOL:
        return [f"associativity residual {residual:.3g} > {ASSOC_TOL}"]
    return []


def check_gate(report: dict, reference: tuple) -> list:
    names = tuple(c["name"] for c in report["checks"])
    if names != reference:
        return [f"checks {list(names)} differ from {list(reference)}"]
    return []


@dataclass(frozen=True)
class Workload:
    k: int
    command: str
    reference: Callable[[dict, int], object]
    gate: Callable[[dict, object], list]


WORKLOADS = {
    "centre_su2_4": Workload(4, "centre", centre_reference, centre_gate),
    "check_su2_3": Workload(3, "check", lambda doc, seed: CHECK_NAMES_SU2_3,
                            check_gate),
    "tube_algebra_su2_7": Workload(7, "tube-algebra", tube_algebra_reference,
                                   tube_algebra_gate),
}
