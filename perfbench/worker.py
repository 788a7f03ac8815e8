"""One benchmark process: set up a workload, then time passes over it.

Started by run.py in a fresh interpreter, so that set-up time starts from
interpreter start and peak RSS belongs to this workload alone.  With
--budget 0 it only sets up, which run.py uses to sample set-up time again.
Writes its measurements as JSON to the --out path; run.py aggregates them.

    python -I perfbench/worker.py --root . --workload sweep --seed 7 \
        --budget 20 --trace 0 --out .perfbench_out/child-0.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _import_package(root: Path):
    """Import asymcsit from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import asymcsit

    if Path(asymcsit.__file__).resolve().parent.parent != src:
        raise ImportError(f"asymcsit imported from {asymcsit.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    root = Path(args.root)

    _import_package(root)
    import numpy as np

    import asymcsit
    import hostspeed
    import tracing
    import workloads

    scratch = root / ".perfbench_out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, scratch)
    tracer = None
    if args.trace:
        modules = {name: sys.modules[name] for name in
                   ("asymcsit.evaluator", "asymcsit.schemes", "asymcsit.reports", "asymcsit.cli")}
        tracer = tracing.Tracer(modules, asymcsit.SchemePlan)

    op_labels: dict[int, str] = {}
    phase = "setup"

    def mark(label):
        """Start a new operation; spans recorded until the next mark share its id."""
        if tracer is not None:
            tracer.op += 1
            op_labels[tracer.op] = f"{phase}: {label}"

    wl.prepare()
    if tracer is not None:
        tracer.install()
        mark("build plans and grids")
    wl.build()
    if tracer is not None:
        tracer.uninstall()
    wl.warmup(args.seed)

    ready = time.monotonic()
    hostspeed.reference()  # cold
    ref_after_setup = hostspeed.reference()
    passes = {"untraced": [], "untraced_wall": [], "traced": []}
    outcomes = []
    traced_ops: list[set[int]] = []
    n = 0
    timed_from = time.monotonic()
    while args.budget > 0 and (n == 0 or time.monotonic() - timed_from < args.budget
                               or (tracer is not None and n < 2)):
        traced = tracer is not None and n % 2 == 1
        kind = "traced" if traced else "untraced"
        phase = f"pass {n} ({kind})"
        if traced:
            first_op = tracer.op + 1
            tracer.install()
            t0 = time.perf_counter()
            raw = wl.run_pass(args.seed, mark)
            passes["traced"].append(time.perf_counter() - t0)
            tracer.uninstall()
            traced_ops.append(set(range(first_op, tracer.op + 1)))
        else:
            with hostspeed.Meter() as meter:
                raw = wl.run_pass(args.seed, mark)
            passes["untraced"].append(meter.norm_s)
            passes["untraced_wall"].append(meter.wall_s)
        outcomes.append((kind, wl.check(raw)))
        n += 1

    result = {
        "ready_monotonic": ready,
        "ref_after_setup_s": ref_after_setup,
        "pass_s": passes["untraced"],
        "pass_wall_s": passes["untraced_wall"],
        "traced_pass_s": passes["traced"],
        "sizes": wl.sizes(),
        "outcomes": [
            {"kind": kind, "failures": o.failures, "raised": o.raised, "stderr_max": o.stderr_max,
             "margin_min": o.margin_min, "digest": o.digest, "bytes_written": o.bytes_written}
            for kind, o in outcomes
        ],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        setup_ops = {op for op, label in op_labels.items() if label.startswith("setup")}
        result["setup_layers"] = tracing.layer_totals(tracer.spans, setup_ops)
        result["pass_layers"] = [tracing.layer_totals(tracer.spans, ops) for ops in traced_ops]
        if args.spans:
            tracer.write(args.spans, op_labels)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
