"""What the benchmark's traced run patches must keep existing.

perfbench/tracing.py wraps package functions by (module, attribute) and
replaces SchemePlan lookup methods on the class.  A cleanup that renames
or inlines one of them breaks the traced run, so this pins the names.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from asymcsit.schemes import SchemePlan

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _span in tracing.PATCHES])
def test_patched_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", ["all_slots", "slot", "find_layer"])
def test_plan_lookups_are_plain_methods(attr):
    assert attr in tracing.PLAN_LOOKUPS
    assert inspect.isfunction(SchemePlan.__dict__[attr])
