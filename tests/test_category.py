import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from fcat import (ConsistencyError, MissingData, SchemaError, UnknownLabel,
                  global_dimension, hom_dim, load_builtin, load_category,
                  validate_hexagon, validate_pentagon)
from fcat.category import DATA_DIR, FSymbolTable
from fcat.cli import run
from fcat.errors import NotBraided
from su2k import su2k_document

PHI = (1 + math.sqrt(5)) / 2


def _doc(name):
    return json.loads((DATA_DIR / f"{name}.json").read_text())


def _load_doc(tmp_path, doc, **kw):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(doc))
    return load_category(p, **kw)


def test_labels_and_duals(specs):
    fib = specs["fibonacci"]
    assert [l.id for l in fib.labels] == ["1", "tau"]
    assert fib.unit == 0
    assert fib.dual(1) == 1
    z3 = specs["vec_z3"]
    assert z3.dual(z3.index("w")) == z3.index("w2")
    assert z3.dual_word((1, 2)) == (1, 2)  # (w w2)* = (w w2)


def test_quantum_dimensions_from_fusion_ring(fib):
    # d(tau) must be the positive root of d^2 = d + 1, derived from N alone
    root = np.roots([1, -1, -1]).max()
    assert abs(fib.dim(1) - root) < 1e-12
    assert abs(global_dimension(fib) - (1 + root ** 2)) < 1e-12


@pytest.mark.parametrize("name,want", [
    ("fibonacci", 2 + PHI), ("vec_z2", 2.0), ("ising", 4.0), ("vec_z3", 3.0)])
def test_global_dimension(specs, name, want):
    assert abs(global_dimension(specs[name]) - want) < 1e-12


def test_trivial_category(tmp_path):
    doc = {"name": "trivial", "labels": ["1"], "unit": "1", "dual": {"1": "1"},
           "N": [["1", "1", "1", 1]],
           "F": [["1"] * 6 + [0, 0, 0, 0, 1.0, 0.0]],
           "dims": {"1": [1.0, 0.0]}}
    spec = _load_doc(tmp_path, doc)
    assert global_dimension(spec) == 1
    assert hom_dim(spec, [], []) == 1


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2", "vec_z3"])
def test_pentagon_residuals(specs, name):
    assert validate_pentagon(specs[name])["max_residual"] < 1e-12


def oracle_pentagon(spec) -> dict:
    """The pentagon residual by brute-force contraction, one tuple at a time."""
    n = spec.n_labels
    worst = 0.0
    worst_at = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    for e in range(n):
                        res = _oracle_pentagon_residual(spec, a, b, c, dd, e)
                        if res > worst:
                            worst = res
                            worst_at = tuple(spec.labels[x].id for x in (a, b, c, dd, e))
    return {"max_residual": worst, "worst_instance": worst_at}


def _oracle_pentagon_residual(spec, a, b, c, d, e) -> float:
    """|two-step - three-step| maximized over tree coordinates, for (a,b,c,d; e)."""
    N = spec.rules.N
    n = spec.n_labels

    def fsym(x, y, z, w, key_l, key_r):
        return spec.F.entries.get((x, y, z, w), {}).get(key_l + key_r, 0.0)

    worst = 0.0
    for f in range(n):
        for al in range(N[a, b, f]):
            for g in range(n):
                for be in range(N[f, c, g]):
                    for ga in range(N[g, d, e]):
                        for h in range(n):
                            for rho in range(N[c, d, h]):
                                for l in range(n):
                                    for ka in range(N[b, h, l]):
                                        for om in range(N[a, l, e]):
                                            two = sum(
                                                fsym(f, c, d, e, (g, be, ga), (h, rho, sig))
                                                * fsym(a, b, h, e, (f, al, sig), (l, ka, om))
                                                for sig in range(N[f, h, e]))
                                            three = sum(
                                                fsym(a, b, c, g, (f, al, be), (m, mu, nu))
                                                * fsym(a, m, d, e, (g, nu, ga), (l, pi, om))
                                                * fsym(b, c, d, l, (m, mu, pi), (h, rho, ka))
                                                for m in range(n)
                                                for mu in range(N[b, c, m])
                                                for nu in range(N[a, m, g])
                                                for pi in range(N[m, d, l]))
                                            worst = max(worst, abs(two - three))
    return worst


def _random_f(spec, rng):
    """Seeded random F-symbols on every fusion-allowed channel of ``spec``."""
    N = spec.rules.N
    n = spec.n_labels
    entries = {}
    for a, b, c, d, e, f in itertools.product(range(n), repeat=6):
        for al, be, ga, de in itertools.product(range(N[a, b, e]), range(N[e, c, d]),
                                                range(N[b, c, f]), range(N[a, f, d])):
            entries.setdefault((a, b, c, d), {})[(e, al, be, f, ga, de)] = \
                complex(*rng.normal(size=2))
    return dataclasses.replace(spec, F=FSymbolTable(entries=entries), _cache={})


@pytest.mark.parametrize("case", ["fibonacci", "ising", "vec_z2", "vec_z3", "vec_s3",
                                  "su2_2", "su2_3", "su2_4", "su2_5", "mult_ring"])
def test_pentagon_matches_oracle(request, tmp_path, case):
    if case == "vec_s3":
        spec = request.getfixturevalue("s3")
    elif case.startswith("su2_"):
        spec = _load_doc(tmp_path, su2k_document(int(case[4:])))
    elif case == "mult_ring":
        # O(1) residual; every vertex of x (x) x -> x has two indices
        spec = _random_f(request.getfixturevalue("mult_ring"), np.random.default_rng(5))
    else:
        spec = request.getfixturevalue("specs")[case]
    got, want = validate_pentagon(spec), oracle_pentagon(spec)
    assert abs(got["max_residual"] - want["max_residual"]) < 1e-12
    assert got["worst_instance"] == want["worst_instance"]
    if case == "vec_s3":
        assert got["max_residual"] == 0.0
    if case == "mult_ring":
        assert got["max_residual"] > 0.1


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2"])
def test_hexagon_residuals(specs, name):
    assert validate_hexagon(specs[name])["max_residual"] < 1e-12


def test_hexagon_requires_braiding(z3):
    with pytest.raises(NotBraided):
        validate_hexagon(z3)


def test_pentagon_tamper_detected(tmp_path):
    doc = _doc("fibonacci")
    flipped = False
    for row in doc["F"]:
        if row[:6] == ["tau"] * 6:
            row[10] = -row[10]
            flipped = True
    assert flipped
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "pentagon"
    assert err.value.residual > 1e-9


def test_hexagon_tamper_detected(tmp_path):
    # conjugating only one R entry breaks the hexagon by an O(1) amount
    doc = _doc("fibonacci")
    for row in doc["R"]:
        if row[:3] == ["tau", "tau", "tau"]:
            row[6] = -row[6]
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "hexagon"
    assert err.value.residual > 0.1


def test_hexagon_checks_both_orientations(tmp_path):
    # on vec_z3 with trivial F, R(a, b) = w^(b [a != 0]) is a character in b
    # for each a, so the hexagon braiding a past b (x) c holds; it is not
    # multiplicative in a, so the hexagon for the inverse braiding fails
    doc = _doc("vec_z3")
    ids = doc["labels"]
    doc["R"] = [[ids[a], ids[b], ids[(a + b) % 3], 0, 0,
                 *((1.0, 0.0) if a == 0 else (math.cos(2 * math.pi * b / 3),
                                              math.sin(2 * math.pi * b / 3)))]
                for a in range(3) for b in range(3)]
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "hexagon"
    assert err.value.residual > 0.1


def test_unit_law_tamper(tmp_path):
    doc = _doc("vec_z2")
    doc["N"] = [row for row in doc["N"] if row[:3] != ["1", "e", "e"]]
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "unit-law"


def test_duality_tamper(tmp_path):
    doc = _doc("vec_z3")
    doc["dual"] = {"1": "1", "w": "w", "w2": "w2"}
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "duality"


def test_unit_gauge_enforced(tmp_path):
    doc = _doc("fibonacci")
    for row in doc["F"]:
        if row[:6] == ["1", "tau", "1", "tau", "tau", "tau"]:
            row[10] = 2.0
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "triangle"


def test_wrong_dims_rejected(tmp_path):
    doc = _doc("fibonacci")
    doc["dims"]["tau"] = [1.5, 0.0]
    with pytest.raises(ConsistencyError) as err:
        _load_doc(tmp_path, doc)
    assert err.value.kind == "sphericality"


def test_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        _load_doc(tmp_path, {"name": "x"})
    doc = _doc("fibonacci")
    del doc["dims"]
    with pytest.raises(MissingData):
        _load_doc(tmp_path, doc)
    doc = _doc("fibonacci")
    doc["F"].append(["1", "1", "1", "tau", "1", "1", 0, 0, 0, 0, 1.0, 0.0])
    with pytest.raises(SchemaError):
        _load_doc(tmp_path, doc)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_category(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["F", "R", "dims", "tol"])
def test_non_finite_values_are_schema_errors(tmp_path, field, value):
    doc = _doc("fibonacci")
    if field == "F":
        doc["F"][-1][10] = value
    elif field == "R":
        doc["R"][-1][6] = value
    elif field == "dims":
        doc["dims"]["tau"][0] = value
    else:
        doc["tol"] = value
    with pytest.raises(SchemaError, match=field):
        _load_doc(tmp_path, doc)
    assert run(["validate", str(tmp_path / "cat.json")]) == 2


def test_hom_dim_examples(fib, ising):
    assert hom_dim(fib, ["tau", "tau"], ["tau"]) == 1
    assert hom_dim(fib, [], []) == 1
    assert hom_dim(ising, ["sigma", "sigma"], ["sigma", "sigma"]) == 2
    with pytest.raises(UnknownLabel):
        hom_dim(fib, ["bogus"], [])


def test_hom_dim_symmetry_and_fusion(specs):
    for spec in specs.values():
        n = spec.n_labels
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert hom_dim(spec, (a, b), (c,)) == spec.rules.N[a, b, c]
        words = [(), (0,), (n - 1,), (0, n - 1)]
        for A in words:
            for B in words:
                assert hom_dim(spec, A, B) == hom_dim(spec, B, A)


def test_dimension_identity(specs):
    for spec in specs.values():
        N, d = spec.rules.N, spec.pivotal.d
        res = np.abs(np.einsum("abc,c->ab", N, d) - np.outer(d, d)).max()
        assert res < spec.tol


def test_tol_override(tmp_path):
    doc = _doc("vec_z2")
    spec = _load_doc(tmp_path, doc, tol=1e-6)
    assert spec.tol == 1e-6
    with pytest.raises(SchemaError):
        _load_doc(tmp_path, doc, tol=-1.0)


def test_spec_frozen(fib):
    with pytest.raises(Exception):
        fib.name = "other"


def test_load_builtin_unknown():
    with pytest.raises(SchemaError):
        load_builtin("nope")
