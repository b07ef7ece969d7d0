import json
import math
import re
from itertools import product

import numpy as np
import pytest

from fcat import cli, load_builtin, tube_compose
from fcat.category import DATA_DIR, load_category
from fcat.cli import run
from fcat.tube import tube_from_vector, tube_layout, tube_to_vector
from su2k import su2k_document


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _data(name):
    return str(DATA_DIR / f"{name}.json")


def test_validate_ok(capsys):
    code, rep = _run(capsys, "validate", _data("fibonacci"))
    assert code == 0
    assert rep["spec"] == "fibonacci"
    names = [c["name"] for c in rep["checks"]]
    assert names == ["pentagon", "hexagon"]
    assert all(c["pass"] for c in rep["checks"])


def test_validate_unbraided_has_no_hexagon(capsys):
    code, rep = _run(capsys, "validate", _data("vec_z3"))
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == ["pentagon"]


def test_info(capsys):
    code, rep = _run(capsys, "info", _data("ising"))
    assert code == 0
    assert rep["result"]["labels"] == ["1", "sigma", "psi"]
    assert rep["result"]["global_dimension"] == [4.0, 0.0]
    assert rep["result"]["braided"]


def test_tube_dim(capsys):
    code, rep = _run(capsys, "tube-dim", _data("fibonacci"),
                     "--x", "tau", "--y", "tau")
    assert code == 0
    assert rep["result"]["dim"] == 3


def test_tube_dim_unit_words(capsys):
    code, rep = _run(capsys, "tube-dim", _data("fibonacci"))
    assert code == 0
    assert rep["result"]["dim"] == 2


def _oracle_mult_rows(spec):
    """``[x, y, z, re, im]`` of ``basis_x . basis_y`` from tube_compose, in (x, y, z) order."""
    n = spec.n_labels
    start, sizes = {}, {}
    for i, j in product(range(n), repeat=2):
        start[(i, j)] = sum(sizes.values())
        sizes[(i, j)] = tube_layout(spec, (i,), (j,))[1]
    rows = []
    for (j, l), (i, j2) in product(sizes, repeat=2):
        if j2 != j:
            continue
        for x, y in product(range(sizes[(j, l)]), range(sizes[(i, j)])):
            gx = tube_from_vector(spec, (j,), (l,), np.eye(sizes[(j, l)])[x])
            gy = tube_from_vector(spec, (i,), (j,), np.eye(sizes[(i, j)])[y])
            v = tube_to_vector(tube_compose(gx, gy))
            rows += [[start[(j, l)] + x, start[(i, j)] + y, start[(i, l)] + z,
                      v[z].real, v[z].imag] for z in np.flatnonzero(np.abs(v) > 1e-14)]
    return sorted(rows)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3"])
def test_tube_algebra_mult_rows_match_tube_compose(capsys, name):
    code, rep = _run(capsys, "tube-algebra", _data(name))
    assert code == 0
    got = rep["result"]["mult"]
    want = _oracle_mult_rows(load_builtin(name))
    assert [r[:3] for r in got] == [r[:3] for r in want]
    assert all(math.hypot(a[3] - b[3], a[4] - b[4]) < 1e-12 for a, b in zip(got, want))


def test_tube_algebra_out_file(tmp_path, capsys):
    out = tmp_path / "ta.json"
    code = run(["tube-algebra", _data("vec_z2"), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["dim"] == 4
    assert len(rep["result"]["basis"]) == 4
    # the file and stdout carry the same text, ended by one newline
    capsys.readouterr()
    assert run(["tube-algebra", _data("vec_z2")]) == 0
    printed = capsys.readouterr().out
    untimed = [re.sub(r'"elapsed_ms": \d+', "", t) for t in (out.read_text(), printed)]
    assert untimed[0] == untimed[1]
    assert printed.endswith("}\n")


def test_centre_report(capsys):
    code, rep = _run(capsys, "centre", _data("fibonacci"))
    assert code == 0
    blocks = rep["result"]["blocks"]
    assert sorted(b["size"] for b in blocks) == [1, 1, 1, 2]
    assert rep["result"]["total_dim"] == 7


def test_modular_fibonacci(capsys):
    code, rep = _run(capsys, "modular", _data("fibonacci"))
    assert code == 0
    assert rep["result"]["is_modular"]
    assert rep["result"]["completeness"]["complete"]


def test_modular_vec_z2(capsys):
    code, rep = _run(capsys, "modular", _data("vec_z2"))
    assert code == 0
    assert rep["result"]["is_modular"] is False
    assert rep["result"]["completeness"]["complete"] is False


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3"])
def test_check_all_builtins(capsys, name):
    code, rep = _run(capsys, "check", _data(name))
    assert code == 0, [c for c in rep["checks"] if not c["pass"]]
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("name", ["fibonacci", "vec_z3"])
def test_check_with_the_unit_listed_last(tmp_path, capsys, name):
    doc = json.loads((DATA_DIR / f"{name}.json").read_text())
    doc["labels"] = [s for s in doc["labels"] if s != doc["unit"]] + [doc["unit"]]
    p = tmp_path / "unit_last.json"
    p.write_text(json.dumps(doc))
    code, rep = _run(capsys, "check", str(p))
    assert code == 0, [c for c in rep["checks"] if not c["pass"]]
    _, ref = _run(capsys, "check", _data(name))
    assert [c["name"] for c in rep["checks"]] == [c["name"] for c in ref["checks"]]


def test_check_fibonacci_covers_core_identities(capsys):
    _, rep = _run(capsys, "check", _data("fibonacci"))
    names = {c["name"] for c in rep["checks"]}
    for expected in ("pentagon", "hexagon", "double_decompose",
                     "duality_and_hom_symmetry", "plain_category_laws",
                     "ribbon_balance", "tube_dim_pair_count",
                     "killing_ring_unit", "idempotent_hom_bookkeeping",
                     "t_dual_replacement", "completeness_matches_modularity",
                     "block_round_trip"):
        assert expected in names


def test_schema_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert run(["validate", str(p)]) == 2
    assert run(["validate", str(tmp_path / "nope.json")]) == 2


def test_usage_error_exit_2():
    assert run(["frobnicate", _data("fibonacci")]) == 2


def test_consistency_error_exit_1(tmp_path, capsys):
    doc = json.loads((DATA_DIR / "fibonacci.json").read_text())
    for row in doc["F"]:
        if row[:6] == ["tau"] * 6:
            row[10] = -row[10]
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(doc))
    code, rep = _run(capsys, "validate", str(p))
    assert code == 1
    assert rep["checks"][0]["name"] == "load:pentagon"
    assert rep["checks"][0]["pass"] is False


def test_check_tampered_file_exit_1(tmp_path, capsys):
    doc = json.loads((DATA_DIR / "vec_z2.json").read_text())
    doc["dims"]["e"] = [3.0, 0.0]
    p = tmp_path / "wrong_dims.json"
    p.write_text(json.dumps(doc))
    code, rep = _run(capsys, "check", str(p))
    assert code == 1
    assert rep["checks"][0]["name"] == "load:sphericality"


def test_reports_deterministic_modulo_elapsed(capsys):
    _, rep1 = _run(capsys, "check", _data("vec_z2"), "--seed", "7")
    _, rep2 = _run(capsys, "check", _data("vec_z2"), "--seed", "7")
    rep1["elapsed_ms"] = rep2["elapsed_ms"] = 0
    assert json.dumps(rep1) == json.dumps(rep2)


def test_tol_flag(capsys):
    code, rep = _run(capsys, "validate", _data("fibonacci"), "--tol", "1e-7")
    assert code == 0
    assert rep["tol"] == 1e-7


def test_check_leaves_only_the_known_cache_kinds(tmp_path, monkeypatch):
    # composition pieces live for one call, never in the category's cache
    path = tmp_path / "su2_2.json"
    path.write_text(json.dumps(su2k_document(2)))
    loaded = []

    def load(*args, **kwargs):
        loaded.append(load_category(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_category", load)
    assert run(["check", str(path), "--out", str(tmp_path / "report.json")]) == 0
    kinds = {key if isinstance(key, str) else key[0] for key in loaded[0]._cache}
    assert kinds == {"trees", "tree_index", "factor", "factor_inv", "fmat",
                     "rmat", "bend_scalars", "tube_layout", "tube_algebra"}
