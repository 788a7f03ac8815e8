"""What the benchmark's traced run patches must keep existing.

perfbench/tracing.py wraps package functions by (module, attribute) and
replaces SchemePlan lookup methods on the class.  A cleanup that renames
or inlines one of them breaks the traced run, so this pins the names.
Every workload of perfbench/workloads.py is also set up and warmed up here
at its small warm-up size, so that a change to an API the benchmark calls
(build_preset, perturb_link_prelog, cli.main, ...) fails these tests, not
the benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from asymcsit.schemes import SchemePlan

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _span in tracing.PATCHES])
def test_patched_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", ["all_slots", "slot", "find_layer"])
def test_plan_lookups_are_plain_methods(attr):
    assert attr in tracing.PLAN_LOOKUPS
    assert inspect.isfunction(SchemePlan.__dict__[attr])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_sets_up_and_warms_up(name, tmp_path):
    wl = workloads.make(name, tmp_path)
    wl.prepare()
    wl.build()
    wl.warmup(7)
    assert wl.sizes()["trial_slots"] > 0
