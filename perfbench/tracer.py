"""Layer tracer that wraps fcat's public functions from outside the package.

Every function in ``TARGETS`` is replaced, in every ``fcat`` module that
binds it, by a wrapper that keeps a stack of open calls.  Each call gets a
self time (its duration minus its children's) aggregated per
``(name, parent name)``; calls of the hot kernels (``HOT``) are only
aggregated, every other call is also kept as a span with a start, an end
and its parent span.  At each module boundary the wrapper samples
``ru_maxrss`` so that every rise of the high-water mark is charged to the
innermost module that was running.  Nothing under ``src/`` is modified;
``unpatch`` restores the original bindings.
"""

from __future__ import annotations

import functools
import resource
import sys
from time import perf_counter

TARGETS = {
    "category": ("load_category", "validate_pentagon", "validate_hexagon",
                 "hom_dim"),
    "diagrams": ("tensor", "compose", "identity", "decompose_resolution",
                 "factor"),
    "tube": ("tube_compose", "tube_algebra", "lift", "TubeAlgebra.multiply",
             "TubeAlgebra.left_mult_matrix", "tube_to_vector",
             "tube_from_vector"),
    "centre": ("decompose_tube_algebra", "eps_xy", "eps_from_half_braiding",
               "half_braiding_from_idempotent", "half_braiding_residual",
               "hom_between_idempotents", "idempotent_hom_dim",
               "completeness_check", "modular_data", "handle_slide_check",
               "slice_checks"),
    "cli": ("run",),
}
# The subcommand that ``cli.run`` dispatches to, whichever entry of
# ``fcat.cli.COMMANDS`` it is, is traced under this one name.
COMMAND = "cli.command"

# Kernels called tens of thousands of times per op: one span per call would
# not fit in memory, so only their per-(name, parent) aggregates are kept.
HOT = frozenset(
    [f"diagrams.{f}" for f in TARGETS["diagrams"]]
    + ["category.hom_dim", "tube.tube_compose", "tube.lift", "tube.multiply",
       "tube.left_mult_matrix", "tube.tube_to_vector", "tube.tube_from_vector"])

# Return values kept so that the op's state can be read after it ends.
CAPTURE = frozenset(["category.load_category", "tube.tube_algebra"])


def metric_name(module: str, target: str) -> str:
    """``TubeAlgebra.multiply`` in ``tube`` is reported as ``tube.multiply``."""
    return f"{module}.{target.rsplit('.', 1)[-1]}"


ALL_NAMES = tuple(metric_name(m, t) for m, ts in TARGETS.items() for t in ts) \
    + (COMMAND,)
MODULES = tuple(TARGETS)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# A frame of the tracer's stack is a list, the cheapest object to build on
# every call: [name, module, child seconds, span id, parent span id,
# ru_maxrss at entry, rise charged to child modules, the frame where the
# call's module was entered (None if it is this one)].
NAME, MODULE, CHILD_S, SPAN, SPAN_PARENT, RSS0, RSS_CHILD, BOUNDARY = range(8)


class Tracer:
    """Collects spans and per-(name, parent) aggregates, one op at a time."""

    def __init__(self):
        self.stack: list[list] = []
        self.op = -1
        self.spans: list[tuple] = []
        self.aggregates: list[dict] = []
        self.captured: dict = {}
        # Cleared in place between ops: the wrappers hold references to them.
        self._agg: dict = {}
        self._rss: dict = dict.fromkeys(MODULES, 0)
        self._next_id = 0
        self._undo: list = []

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self, op: int) -> None:
        if self.stack:
            raise RuntimeError("tracer stack not empty at the start of an op")
        self.op = op
        self._agg.clear()
        self._rss.update(dict.fromkeys(MODULES, 0))
        self.captured = {}

    def end_op(self) -> dict:
        """Close the op; return its per-name and per-module totals."""
        if self.stack:
            raise RuntimeError("tracer stack not empty at the end of an op")
        calls = dict.fromkeys(ALL_NAMES, 0)
        self_s = dict.fromkeys(ALL_NAMES, 0.0)
        for (name, parent), (n, total, own) in self._agg.items():
            calls[name] += n
            self_s[name] += own
            self.aggregates.append({"op": self.op, "name": name,
                                    "parent": parent, "calls": n,
                                    "total_s": total, "self_s": own})
        module_s = dict.fromkeys(MODULES, 0.0)
        for name, s in self_s.items():
            module_s[name.split(".", 1)[0]] += s
        return {"calls": calls, "self_s": self_s, "module_self_s": module_s,
                "module_rss_rise_kb": dict(self._rss)}

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        tracer = self
        hot = name in HOT
        capture = name in CAPTURE
        agg_table = self._agg
        rss_table = self._rss

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [name, module, 0.0, None, None, 0, 0, None]
            if parent is None or parent[MODULE] != module:
                frame[RSS0] = _maxrss_kb()
            else:
                frame[BOUNDARY] = parent[BOUNDARY] or parent
            if parent is not None:
                frame[SPAN_PARENT] = (parent[SPAN] if parent[SPAN] is not None
                                      else parent[SPAN_PARENT])
            if not hot:
                frame[SPAN] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[CHILD_S]
                if parent is not None:
                    parent[CHILD_S] += dur
                key = (name, parent[NAME] if parent is not None else None)
                agg = agg_table.get(key)
                if agg is None:
                    agg_table[key] = [1, dur, own]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
                if frame[BOUNDARY] is None:
                    rise = _maxrss_kb() - frame[RSS0]
                    rss_table[module] += rise - frame[RSS_CHILD]
                    if parent is not None:
                        (parent[BOUNDARY] or parent)[RSS_CHILD] += rise
                if not hot:
                    tracer.spans.append((tracer.op, frame[SPAN], name,
                                         frame[SPAN_PARENT], t0, t1, own))
            if capture:
                tracer.captured[name] = result
            return result

        return functools.wraps(fn)(traced)

    # -- installing and removing the wrappers ------------------------------

    def patch(self) -> None:
        """Rebind every traced function in every loaded ``fcat`` module."""
        if self._undo:
            raise RuntimeError("tracer already patched")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fcat" or key.startswith("fcat."))]
        for module, targets in TARGETS.items():
            home = sys.modules[f"fcat.{module}"]
            for target in targets:
                name = metric_name(module, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, self._wrap(name, module, original))
                    continue
                original = getattr(home, target)
                wrapper = self._wrap(name, module, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapper)
        commands = sys.modules["fcat.cli"].COMMANDS
        for key, fn in list(commands.items()):
            self._rebind(commands, key, self._wrap(COMMAND, "cli", fn))

    def _rebind(self, owner, key, value) -> None:
        """Set ``owner.key`` (``owner[key]`` for a dict), keeping the old value."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo = []
