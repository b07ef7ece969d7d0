import json

import pytest

from fcat import cli
from fcat.category import DATA_DIR, load_category
from fcat.cli import run
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


def test_tube_algebra_out_file(tmp_path, capsys):
    out = tmp_path / "ta.json"
    code = run(["tube-algebra", _data("vec_z2"), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["dim"] == 4
    assert len(rep["result"]["basis"]) == 4


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
