"""perfbench's layer tracer must find every function it wraps.

``Tracer.patch`` looks each ``TARGETS`` entry up with ``getattr`` on the
current ``fcat`` modules, so a rename would otherwise break only traced
benchmark runs.  The tracer's source is read and executed here, never
imported from its directory, so that nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("module,target", [(m, t) for m, ts in TARGETS.items()
                                           for t in ts])
def test_tracer_target_resolves(module, target):
    home = importlib.import_module(f"fcat.{module}")
    if "." in target:
        cls_name, meth = target.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, target))


def test_tracer_finds_the_command_table():
    from fcat.cli import COMMANDS
    assert all(callable(fn) for fn in COMMANDS.values())
