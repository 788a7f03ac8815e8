"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions the workloads reach, each under the
module attribute its caller looks it up by (modules bind names at import,
so patching the defining module alone would miss most calls), plus the
SchemePlan lookup methods on the class.  Nothing under src/ changes.

A span is (name, start, end, parent span index, operation id, work).
Spans stay in a list while the workload runs and are written out once at
the end.  Self time of a span is its duration minus the durations of its
direct child spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

# (module, attribute looked up by the caller, span name)
PATCHES = (
    ("asymcsit.evaluator", "sample_channel", "channel.sample_channel"),
    ("asymcsit.evaluator", "orth_complement", "channel.projection"),
    ("asymcsit.evaluator", "unit", "channel.projection"),
    ("asymcsit.evaluator", "validate_plan", "schemes.validate_plan"),
    ("asymcsit.evaluator", "evaluate_plan", "evaluator.evaluate_plan"),
    ("asymcsit.evaluator", "estimate_dof", "evaluator.estimate_dof"),
    ("asymcsit.evaluator", "residual_power_probe", "evaluator.residual_power_probe"),
    ("asymcsit.schemes", "build_preset", "schemes.build_preset"),
    ("asymcsit.schemes", "dof_region", "geometry.dof_region"),
    ("asymcsit.schemes", "contains", "geometry.contains"),
    ("asymcsit.reports", "estimate_dof", "evaluator.estimate_dof"),
    ("asymcsit.reports", "build_preset", "schemes.build_preset"),
    ("asymcsit.reports", "dof_region", "geometry.dof_region"),
    ("asymcsit.reports", "contains", "geometry.contains"),
    ("asymcsit.reports", "region_export", "reports.region_export"),
    ("asymcsit.reports", "run", "reports.run"),
    ("asymcsit.cli", "sweep", "reports.sweep"),
    ("asymcsit.cli", "run", "reports.run"),
    ("asymcsit.cli", "main", "cli.main"),
)

# SchemePlan methods; only the outermost lookup records a span, because
# slot() and find_layer() call all_slots() themselves.
PLAN_LOOKUPS = ("all_slots", "slot", "find_layer")
PLAN_LOOKUP = "schemes.plan_lookup"

# One sample_channel trial draws 2 users x (estimate, error) x 2 antennas
# complex values = 16 standard normals, and returns six complex128 (2,)
# arrays = 192 bytes.
NORMALS_PER_TRIAL = 16
BYTES_PER_TRIAL = 192


def _trials(args, kwargs) -> int:
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


class Tracer:
    """Records spans around the patched names while installed."""

    def __init__(self, modules: dict, plan_class):
        self._modules = modules
        self._plan_class = plan_class
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self.op = 0

    def _wrap(self, fn, name):
        spans, stack, names = self.spans, self._stack, self._names
        counts_trials = name == "channel.sample_channel"
        nest_through = name == PLAN_LOOKUP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nest_through and names and names[-1] == PLAN_LOOKUP:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            op = self.op
            spans.append(None)
            stack.append(idx)
            names.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                names.pop()
                work = _trials(args, kwargs) if counts_trials else 0
                spans[idx] = (name, t0, t1, parent, op, work)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in PATCHES:
            mod = self._modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span))
        for attr in PLAN_LOOKUPS:
            original = self._plan_class.__dict__[attr]
            self._saved.append((self._plan_class, attr, original))
            setattr(self._plan_class, attr, self._wrap(original, PLAN_LOOKUP))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path, op_labels: dict[int, str]) -> None:
        """Write every span as one CSV row, in start order."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent", "op", "op_label", "work"))
            for i, (name, t0, t1, parent, op, work) in enumerate(self.spans):
                out.writerow((i, name, f"{t0:.9f}", f"{t1:.9f}", parent, op, op_labels.get(op, ""), work))


def layer_totals(spans, ops: set[int]) -> dict[str, float]:
    """Per-span-name calls, busy and self seconds, and computed counts,
    over the spans whose operation id is in ops."""
    child_time = defaultdict(float)
    for name, t0, t1, parent, op, work in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, float] = defaultdict(int)  # counts stay int, times become float
    for i, (name, t0, t1, parent, op, work) in enumerate(spans):
        if op not in ops:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += t1 - t0
        out[f"{name}.self_s"] += (t1 - t0) - child_time[i]
        if work:
            out["channel.normals"] += NORMALS_PER_TRIAL * work
            out["channel.bytes_out"] += BYTES_PER_TRIAL * work
    return dict(out)
