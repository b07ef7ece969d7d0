"""Command-line front end: validators, tube computations, identity suite.

Every subcommand emits a JSON report on stdout (or to ``--out``) with the
envelope ``{version, command, spec, checks, elapsed_ms, seed}`` plus a
command-specific ``result`` payload.  Exit code 0 means every check
passed, 1 means some check failed, 2 means a schema or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import __version__
from .category import global_dimension, hom_dim, load_category
from .diagrams import (braid, compose, cup, cap, identity, random_morphism,
                       tensor, trace, trace_left, trace_right,
                       dual_decompose_check)
from .errors import FcatError, SchemaError, MissingData, UnknownLabel
from .tube import (TubeMorphism, embed, random_tube_morphism, tube_algebra,
                   tube_compose, tube_hom_dim, tube_identity)
from .centre import (_graded_idempotent, completeness_check,
                     decompose_tube_algebra, eps_xy, half_braiding_from_idempotent,
                     handle_slide_check, killing_ring_eval, modular_data,
                     s_matrix, slice_checks, split_tube_algebra, t_matrix)

DEFAULT_SEED = 0x5EED


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _word(spec, text: str) -> tuple:
    if not text:
        return ()
    return spec.word([t.strip() for t in text.split(",") if t.strip()])


def _check(checks, name, value, passed):
    checks.append({"name": name, "value": value, "pass": bool(passed)})


def _residual_check(checks, name, residual, tol):
    _check(checks, name, float(residual), residual < tol)


def cmd_validate(spec, args, checks):
    for name, rep in spec.validation.items():
        _residual_check(checks, name, rep["max_residual"], spec.tol)


def cmd_info(spec, args, checks):
    return {
        "name": spec.name,
        "labels": [lab.id for lab in spec.labels],
        "unit": spec.labels[spec.unit].id,
        "dual": {lab.id: spec.labels[spec.dual(lab.index)].id
                 for lab in spec.labels},
        "dims": {lab.id: _c(spec.dim(lab.index)) for lab in spec.labels},
        "global_dimension": _c(global_dimension(spec)),
        "braided": spec.braided,
        "tol": spec.tol,
    }


def cmd_tube_dim(spec, args, checks):
    X = _word(spec, args.x)
    Y = _word(spec, args.y)
    value = tube_hom_dim(spec, X, Y)
    _check(checks, "tube_hom_dim", value, True)
    return {"x": spec.word_ids(X), "y": spec.word_ids(Y), "dim": value}


def cmd_tube_algebra(spec, args, checks):
    A = tube_algebra(spec)
    cs = A.corner_slices
    rows = sorted([int(x) + cs[(j, l)].start, int(y) + cs[(i, j)].start,
                   int(z) + cs[(i, l)].start, blk[x, y, z].real, blk[x, y, z].imag]
                  for (i, j, l), blk in A.blocks.items()
                  for x, y, z in np.argwhere(np.abs(blk) > 1e-14))
    basis = [{"source": spec.labels[i].id, "target": spec.labels[j].id,
              "grade": spec.labels[R].id, "channel": spec.labels[k].id,
              "row": int(r), "col": int(c)}
             for (i, j, R, k, r, c) in A.basis]
    _check(checks, "tube_algebra_dim", A.dim, True)
    return {"dim": A.dim, "basis": basis, "mult": rows}


def cmd_centre(spec, args, checks):
    A = tube_algebra(spec)
    blocks = decompose_tube_algebra(split_tube_algebra(A, args.seed))
    payload = []
    # Twists are rounded so that float noise cannot order a conjugate pair.
    for b in sorted(blocks, key=lambda b: (b.block_size, sorted(b.mults.items()),
                                           round(b.twist.real, 9), round(b.twist.imag, 9))):
        payload.append({
            "size": b.block_size,
            "mults": {spec.labels[k].id: m for k, m in b.mults.items() if m},
            "twist": _c(b.twist),
            "carrier": spec.word_ids(b.carrier),
            "idempotency_residual": b.idempotency_residual,
        })
    total = sum(b.block_size ** 2 for b in blocks)
    _check(checks, "blocks_resolve_algebra", total, total == A.dim)
    worst = max(b.idempotency_residual for b in blocks)
    _residual_check(checks, "block_idempotency", worst, 1e3 * spec.tol)
    return {"blocks": payload, "total_dim": A.dim}


def cmd_modular(spec, args, checks):
    md = modular_data(spec)
    _residual_check(checks, "s_dual_replacement",
                    np.abs(md.S - s_matrix(spec, dual_strands=True)).max(),
                    1e3 * spec.tol)
    _residual_check(checks, "t_dual_replacement",
                    np.abs(md.T - t_matrix(spec, dual_strands=True)).max(),
                    1e3 * spec.tol)
    _residual_check(checks, "s_symmetric", np.abs(md.S - md.S.T).max(),
                    1e3 * spec.tol)
    n = spec.n_labels
    idems = [eps_xy(spec, (I,), (J,)) for I in range(n) for J in range(n)]
    comp = completeness_check(idems,
                              split_tube_algebra(tube_algebra(spec), args.seed))
    _check(checks, "completeness_matches_modularity", comp["complete"],
           comp["complete"] == (not md.singular))
    return {
        "S": [[_c(v) for v in row] for row in md.S],
        "T": [[_c(v) for v in row] for row in md.T],
        "singular": md.singular,
        "is_modular": not md.singular,
        "smin": md.smin,
        "completeness": {
            "complete": comp["complete"],
            "orthogonal": comp["orthogonal"],
            "primitive": comp["primitive"],
            "lhs": comp["lhs"].tolist(),
            "rhs": comp["rhs"].tolist(),
        },
    }


def cmd_check(spec, args, checks):
    """The full identity suite; every module invariant at its tolerance."""
    loose = 1e3 * spec.tol
    rng = np.random.default_rng(args.seed)
    n = spec.n_labels
    d = spec.pivotal.d
    D2 = spec.pivotal.D2

    cmd_validate(spec, args, checks)

    res = max(
        float(np.abs(np.einsum("abc,c->ab", spec.rules.N, d) - np.outer(d, d)).max()),
        float(abs(sum(dd * dd for dd in d) - D2)))
    _residual_check(checks, "dimension_consistency", res, loose)

    ok = all(spec.dual(spec.dual(a)) == a for a in range(n)) \
        and spec.dual(spec.unit) == spec.unit
    words = [(), (0,), (n - 1,), (0, n - 1), (n - 1, n - 1)]
    for A in words:
        for B in words:
            ok &= hom_dim(spec, A, B) == hom_dim(spec, B, A)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ok &= hom_dim(spec, (a, b), (c,)) == spec.rules.N[a, b, c]
    _check(checks, "duality_and_hom_symmetry", ok, ok)

    worst = 0.0
    t = n - 1
    for _ in range(args.instances):
        f = random_morphism(spec, (t, t), (t,), rng)
        g = random_morphism(spec, (t,), (t, t), rng)
        h = random_morphism(spec, (t,), (t, t), rng)
        k2 = random_morphism(spec, (t, t), (t,), rng)
        worst = max(worst, (compose(compose(f, g), compose(k2, h))
                            - compose(f, compose(g, compose(k2, h)))).norm())
        worst = max(worst, (tensor(compose(f, g), compose(k2, h))
                            - compose(tensor(f, k2), tensor(g, h))).norm())
    _residual_check(checks, "plain_category_laws", worst, 1e-8)

    worst = 0.0
    for a in range(n):
        z2 = compose(tensor(identity(spec, [a]), cap(spec, a)),
                     tensor(cup(spec, a), identity(spec, [a])))
        worst = max(worst, (z2 - identity(spec, [a])).norm())
    _residual_check(checks, "zigzag", worst, loose)

    if spec.braided:
        worst = 0.0
        theta = np.diag(t_matrix(spec))
        for a in range(n):
            for b in range(n):
                rii = compose(braid(spec, b, a, under=True), braid(spec, a, b))
                worst = max(worst, (rii - identity(spec, (a, b))).norm())
        _residual_check(checks, "reidemeister_ii", worst, loose)
        worst = 0.0
        for a in range(n):
            for b in range(n):
                m = compose(braid(spec, b, a), braid(spec, a, b))
                for c, blk in m.blocks.items():
                    want = theta[c] / (theta[a] * theta[b]) * np.eye(len(blk))
                    worst = max(worst, float(np.abs(blk - want).max()))
        _residual_check(checks, "ribbon_balance", worst, 1e-8)

    worst = 0.0
    for _ in range(args.instances):
        w = tuple(int(x) for x in rng.integers(0, n, size=2))
        f = random_morphism(spec, w, w, rng)
        t0 = trace(f)
        worst = max(worst, abs(t0 - trace_left(f)), abs(t0 - trace_right(f)))
    _residual_check(checks, "sphericality", worst, 1e-8)

    worst = 0.0
    for R in range(n):
        total = sum(hom_dim(spec, (S, T), (R,)) * d[S] * d[T]
                    for S in range(n) for T in range(n))
        worst = max(worst, abs(total - d[R] * D2))
    _residual_check(checks, "double_decompose", worst, 1e-8)

    worst = max(dual_decompose_check(spec, (x,), S)
                for x in range(n) for S in range(n))
    _residual_check(checks, "dual_decompose", worst, 1e-8)

    worst = 0.0
    for _ in range(args.instances):
        x, y = (int(v) for v in rng.integers(0, n, size=2))
        f = random_tube_morphism(spec, (x,), (y,), rng)
        g = random_tube_morphism(spec, (y,), (x,), rng)
        h = random_tube_morphism(spec, (x,), (y,), rng)
        worst = max(worst, (tube_compose(tube_identity(spec, (y,)), f) - f).norm())
        worst = max(worst, (tube_compose(f, tube_identity(spec, (x,))) - f).norm())
        assoc = (tube_compose(tube_compose(h, g), f)
                 - tube_compose(h, tube_compose(g, f))).norm()
        worst = max(worst, assoc)
    _residual_check(checks, "tube_category_laws", worst, 1e-8)

    p = random_morphism(spec, (n - 1,), (n - 1, spec.unit), rng)
    ok = abs(embed_norm_ratio(spec, p) - 1.0) < 1e-12
    for x in range(n):
        for y in range(n):
            via = sum(hom_dim(spec, (x,), (I, J)) * hom_dim(spec, (I, J), (y,))
                      for I in range(n) for J in range(n))
            ok &= tube_hom_dim(spec, (x,), (y,)) == via
    _check(checks, "tube_dim_pair_count", ok, ok)

    grott = 0.0
    for a in range(n):
        for b in range(n):
            ea = _grade_unit(spec, a)
            eb = _grade_unit(spec, b)
            prod = tube_compose(ea, eb)
            for T in range(n):
                coeff = unembed_scalar(prod, T)
                grott = max(grott, abs(coeff - spec.rules.N[a, b, T]))
    _residual_check(checks, "grothendieck_ring", grott, 1e-8)

    split = split_tube_algebra(tube_algebra(spec), args.seed)
    if spec.braided:
        md = modular_data(spec)
        _residual_check(
            checks, "s_dual_replacement",
            np.abs(md.S - s_matrix(spec, dual_strands=True)).max(), loose)
        _residual_check(
            checks, "t_dual_replacement",
            np.abs(md.T - t_matrix(spec, dual_strands=True)).max(), loose)
        worst = abs(killing_ring_eval(spec, spec.labels[spec.unit].id) - D2)
        _residual_check(checks, "killing_ring_unit", worst, 1e-8)
        if not md.singular:
            worst = max(abs(killing_ring_eval(spec, spec.labels[R].id))
                        for R in range(n) if R != spec.unit)
            _residual_check(checks, "killing_ring_nonunit", worst, 1e-8)

        idems = [eps_xy(spec, (I,), (J,)) for I in range(n) for J in range(n)]
        worst = max(c.idempotency_residual for c in idems)
        _residual_check(checks, "eps_idempotency", worst, 1e-8)

        ok = True
        for idx, ci in enumerate(idems):
            I, J = idx // n, idx % n
            for i in range(n):
                ok &= ci.mults[i] == hom_dim(spec, (i,), (I, J))
        _check(checks, "idempotent_hom_bookkeeping", ok, ok)

        hb = idems[-1].hb
        worst = 0.0
        for _ in range(args.instances):
            y = int(rng.integers(0, n))
            alpha = random_tube_morphism(spec, (y,), hb.object, rng)
            worst = max(worst, handle_slide_check(hb, alpha))
            beta = random_tube_morphism(spec, hb.object, (y,), rng)
            worst = max(worst, handle_slide_check(hb, beta, mirror=True))
        _residual_check(checks, "handle_slide", worst, 1e-8)

        comp = completeness_check(idems, split)
        _check(checks, "completeness_matches_modularity", comp["complete"],
               comp["complete"] == (not md.singular))
        if not md.singular:
            ok = bool(np.array_equal(comp["hom_dims"],
                                     np.eye(len(idems), dtype=int)))
            _check(checks, "hom_space_theorem", ok, ok)
            rep = slice_checks(spec, n_instances=args.instances, seed=args.seed)
            _residual_check(checks, "slice_identities", rep["max_residual"], 1e-8)

    blocks = decompose_tube_algebra(split)
    total = sum(b.block_size ** 2 for b in blocks)
    _check(checks, "blocks_resolve_algebra", total, total == split.A.dim)
    # the graded idempotent determines tau: a tau that is not a half-braiding fails
    worst = max((_graded_idempotent(half_braiding_from_idempotent(b)) - b.eps).norm()
                for b in blocks)
    _residual_check(checks, "block_round_trip", worst, 1e-6)


def _grade_unit(spec, R):
    return TubeMorphism.from_components(spec, (), (), {R: identity(spec, (R,))})


def embed_norm_ratio(spec, f) -> float:
    return embed(f).norm() / f.norm()


def unembed_scalar(t, T) -> complex:
    return complex(t.component(T).block(T)[0, 0])


COMMANDS = {
    "validate": cmd_validate,
    "info": cmd_info,
    "tube-dim": cmd_tube_dim,
    "tube-algebra": cmd_tube_algebra,
    "centre": cmd_centre,
    "modular": cmd_modular,
    "check": cmd_check,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fcat",
        description="Computations in spherical fusion categories and their tube algebras.")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="category file (JSON)")
    p.add_argument("--tol", type=float, default=None,
                   help="override the numerical tolerance")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                   help="seed for randomized checks (default 0x5EED)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--x", default="", help="comma-separated source word")
    p.add_argument("--y", default="", help="comma-separated target word")
    p.add_argument("--instances", type=int, default=20,
                   help="random instances per property check")
    return p


def run(argv) -> int:
    """Entry point; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0 or args.instances < 1:
            parser.error("--seed must be at least 0 and --instances at least 1")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    t0 = time.perf_counter()
    checks: list = []
    report = {"version": __version__, "command": args.command,
              "spec": None, "checks": checks, "elapsed_ms": 0,
              "seed": args.seed, "tol": None}
    try:
        spec = load_category(args.file, tol=args.tol)
    except (SchemaError, MissingData, OSError) as exc:
        print(f"fcat: {exc}", file=sys.stderr)
        return 2
    except FcatError as exc:
        kind = getattr(exc, "kind", "consistency")
        _check(checks, f"load:{kind}", getattr(exc, "residual", None), False)
        report["elapsed_ms"] = int(1000 * (time.perf_counter() - t0))
        _emit(report, args.out)
        print(f"fcat: {exc}", file=sys.stderr)
        return 1

    report["spec"] = spec.name
    report["tol"] = spec.tol
    try:
        result = COMMANDS[args.command](spec, args, checks)
    except (UnknownLabel,) as exc:
        print(f"fcat: {exc}", file=sys.stderr)
        return 2
    except FcatError as exc:
        _check(checks, f"error:{type(exc).__name__}", str(exc), False)
        result = None
    if result is not None:
        report["result"] = result
    report["elapsed_ms"] = int(1000 * (time.perf_counter() - t0))
    _emit(report, args.out)
    return 0 if all(c["pass"] for c in checks) else 1


def _emit(report, out_path):
    # Streamed: the whole indented text of a large report would outweigh the
    # algebra it describes.
    with (open(out_path, "w", encoding="utf-8") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        json.dump(report, fh, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
