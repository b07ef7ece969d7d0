"""fcat benchmark: one workload, closed loop, one in-process op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One op is one ``fcat.cli.run([...])``
call on the category file written during set-up, with ``--seed N`` and
``--out``; every op loads a fresh ``CategorySpec``, so fcat's caches start
cold as they do for a command-line user.  Each op's report is checked
against references that do not come from fcat, outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced ops and reports the
per-layer metrics (see README.md).  The last line of standard output is
one JSON object ``{correct, attempted, failed, metrics}``; the full record
of the run, with its inputs' hashes and the machine it ran on, is written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import ALL_NAMES, MODULES, Tracer
from workloads import WORKLOADS, CheckoutError, import_fcat_cli

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

MIN_OPS = 3
MIN_TRACED_PAIRS = 2
SETUP_TIMEOUT_S = 60


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# set-up

def set_up(k: int, path: Path) -> tuple[float, str]:
    """One set-up in a fresh interpreter: its seconds and the input's sha256."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "make_input.py"), str(k), str(path)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise CheckoutError(f"set-up failed: {proc.stderr.strip()}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["seconds"], line["sha256"]


# ---------------------------------------------------------------------------
# ops

class Runner:
    """Runs and checks ops of one workload; collects per-op records."""

    def __init__(self, cli, wl, input_path: Path, report_path: Path, seed: int,
                 reference):
        self.cli = cli
        self.wl = wl
        self.report_path = report_path
        self.argv = [wl.command, str(input_path), "--seed", str(seed),
                     "--out", str(report_path)]
        self.reference = reference
        self.fingerprint = None
        self.records: list[dict] = []

    def op(self, tracer: Tracer | None = None) -> dict:
        self.report_path.unlink(missing_ok=True)
        gc.collect()
        rec = {"op": len(self.records), "traced": tracer is not None}
        if tracer is not None:
            tracer.patch()
            tracer.begin_op(rec["op"])
        try:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            rc = self.cli.run(self.argv)
            t1 = time.perf_counter()
            cpu1 = time.process_time()
        except Exception as exc:  # a crashing op is a failed op, not a crash
            rc, t1, cpu1 = None, time.perf_counter(), time.process_time()
            rec["problems"] = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.unpatch()
        rec.update(rc=rc, op_s=t1 - t0, cpu_s=cpu1 - cpu0)
        if rc is not None:
            rec["problems"] = self._gate(rc)
        self.records.append(rec)
        return rec

    def _gate(self, rc) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable report: {exc}"]
        try:
            problems = [f"check {c['name']} failed" for c in report["checks"]
                        if not c["pass"]]
            if report.get("command") != self.wl.command:
                problems.append(f"report is for {report.get('command')!r}")
            problems += self.wl.gate(report, self.reference)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]
        # Every op of a run has the same input and seed, so its report,
        # traced or not, must match the first apart from elapsed_ms.
        report.pop("elapsed_ms", None)
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        if self.fingerprint is None:
            self.fingerprint = digest
        elif digest != self.fingerprint:
            problems.append("report differs from the run's first report")
        return problems

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def measure(runner: Runner, seconds: float, between_ops) -> dict:
    """Untraced ops until the next would take their total past ``seconds``.

    ``between_ops`` runs after each op, outside timing.
    """
    while True:
        runner.op()
        between_ops()
        times = [r["op_s"] for r in runner.records]
        if len(times) >= MIN_OPS and sum(times) + _median(times) > seconds:
            break
    gc.collect()
    n = len(runner.records)
    return {
        "op_s": _metric(_median(times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": _metric((n - runner.failed) / n, "ratio"),
    }


def _state(captured: dict, report_path: Path) -> dict:
    """What the op left behind: the tube algebra, the cache, the report."""
    spec = captured.get("category.load_category")
    algebra = captured.get("tube.tube_algebra")
    arrays = [v for v in vars(algebra).values() if isinstance(v, np.ndarray)] \
        if algebra is not None else []
    stored = sum(a.size for a in arrays)
    nnz = sum(int(np.count_nonzero(a)) for a in arrays)
    return {
        "tube.algebra_dim": algebra.dim if algebra is not None else 0,
        "tube.structure_nnz": nnz,
        "tube.structure_bytes": sum(a.nbytes for a in arrays),
        "tube.structure_density": nnz / stored if stored else 0.0,
        "diagrams.cache_entries": len(spec._cache) if spec is not None else 0,
        "cli.report_bytes": report_path.stat().st_size
        if report_path.exists() else 0,
    }


STATE_UNITS = {
    "tube.algebra_dim": "count", "tube.structure_nnz": "count",
    "tube.structure_bytes": "bytes", "tube.structure_density": "ratio",
    "diagrams.cache_entries": "count", "cli.report_bytes": "bytes",
}


def measure_traced(runner: Runner, seconds: float, tracer: Tracer):
    """Alternate traced and untraced ops; per-layer metrics and trace checks.

    The first op of the process is traced, because ``ru_maxrss`` only
    rises the first time an op reaches its peak: ``<module>.rss_rise_mb``
    is read from that op.
    """
    layers, states, problems = [], [], []
    while True:
        rec = runner.op(tracer)
        layer = tracer.end_op()
        states.append(_state(tracer.captured, runner.report_path))
        tracer.captured = {}  # let the op's spec and algebra be collected
        total_self = sum(layer["self_s"].values())
        if abs(total_self - rec["op_s"]) > 0.01 * rec["op_s"] + 0.002:
            problems.append(f"op {rec['op']}: self times add up to "
                            f"{total_self:.4f} s of {rec['op_s']:.4f} s")
        if layers and layer["calls"] != layers[0]["calls"]:
            problems.append(f"op {rec['op']}: call counts differ from op 0")
        layers.append(layer)
        runner.op()
        traced = [r["op_s"] for r in runner.records if r["traced"]]
        plain = [r["op_s"] for r in runner.records if not r["traced"]]
        if (len(layers) >= MIN_TRACED_PAIRS and sum(traced) + sum(plain)
                + _median(traced) + _median(plain) > seconds):
            break

    metrics = {}
    for name in ALL_NAMES:
        metrics[f"{name}.self_s"] = _metric(
            _median([lay["self_s"][name] for lay in layers]), "s")
        metrics[f"{name}.calls"] = _metric(layers[0]["calls"][name], "count")
    for module in MODULES:
        metrics[f"{module}.self_s"] = _metric(
            _median([lay["module_self_s"][module] for lay in layers]), "s")
        metrics[f"{module}.rss_rise_mb"] = _metric(
            layers[0]["module_rss_rise_kb"][module] / 1024, "MB")
    for key, unit in STATE_UNITS.items():
        metrics[key] = _metric(_median([s[key] for s in states]), unit)
    metrics["cli.cpu_s"] = _metric(
        _median([r["cpu_s"] for r in runner.records if not r["traced"]]), "s")
    metrics["trace.overhead_s"] = _metric(_median(traced) - _median(plain), "s")
    return metrics, problems


# ---------------------------------------------------------------------------
# the record of what was measured

def _blas_threads():
    """OpenBLAS's thread limit, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------

def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / run_id
    work.mkdir(parents=True, exist_ok=True)
    input_path = work / f"su2_{wl.k}.json"

    try:
        first_s, sha256 = set_up(wl.k, input_path)
        cli = import_fcat_cli()
    except (CheckoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_times = [first_s]

    def set_up_again():
        # One more set-up after each op, so that setup_s samples the whole
        # run and not only its first second.
        seconds, digest = set_up(wl.k, work / "input-again.json")
        if digest != sha256:
            raise CheckoutError("set-up wrote another input for the same seed")
        setup_times.append(seconds)

    with open(input_path, encoding="utf-8") as fh:
        reference = wl.reference(json.load(fh), args.seed)
    runner = Runner(cli, wl, input_path, work / "report.json", args.seed,
                    reference)

    trace_problems = []
    try:
        if args.trace:
            tracer = Tracer()
            metrics, trace_problems = measure_traced(runner, args.seconds,
                                                     tracer)
            with open(work / "trace.json", "w", encoding="utf-8") as fh:
                json.dump({"spans": [dict(zip(("op", "id", "name", "parent",
                                               "start", "end", "self_s"), s))
                                     for s in tracer.spans],
                           "aggregates": tracer.aggregates}, fh)
        else:
            metrics = measure(runner, args.seconds, set_up_again)
            metrics["setup_s"] = _metric(_median(setup_times), "s")
    except (CheckoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for rec in runner.records:
        for problem in rec["problems"]:
            print(f"op {rec['op']}: {problem}", file=sys.stderr)
    for problem in trace_problems:
        print(f"trace: {problem}", file=sys.stderr)

    result = {"correct": runner.failed == 0 and not trace_problems,
              "attempted": len(runner.records), "failed": runner.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fcat_argv": runner.argv, "input": {"k": wl.k, "sha256": sha256},
              "environment": environment(), "setup_s": setup_times,
              "ops": runner.records, "trace_problems": trace_problems,
              "result": result}
    with open(OUT / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
