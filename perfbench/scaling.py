"""One-off scaling report for case-ii at (0.3, 0.5); not a gated workload.

    python3 perfbench/scaling.py [--seed 7]

Times estimate_dof on the 60-120 dB grid, in host-normalised seconds (see
hostspeed.py), against n_cycles (50, 100, 200, 400 at 20 trials) and
against n_trials (200, 2000, 20000 at 50 cycles), fits an exponent to each curve (log-log least squares), and reports the
share of a traced call spent in SchemePlan lookups at each point.  Writes
.perfbench_out/scaling.json and prints a markdown table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import asymcsit  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from asymcsit import evaluator, schemes  # noqa: E402
from workloads import GRID_DB  # noqa: E402

REPS = 3
CURVES = {
    "n_cycles": [(c, 20) for c in (50, 100, 200, 400)],
    "n_trials": [(50, t) for t in (200, 2000, 20000)],
}


def _point(n_cycles, n_trials, seed):
    quality = asymcsit.CsitQuality(0.3, 0.5)
    plan = schemes.build_preset("case-ii", quality, n_cycles)
    grid = [asymcsit.SnrPoint.from_db(db, quality) for db in GRID_DB]
    times, walls = [], []
    for _ in range(REPS):
        with hostspeed.Meter() as meter:
            evaluator.estimate_dof(plan, grid, n_trials, seed)
        times.append(meter.norm_s)
        walls.append(meter.wall_s)
    modules = {name: sys.modules[name] for name in
               ("asymcsit.evaluator", "asymcsit.schemes", "asymcsit.reports", "asymcsit.cli")}
    tracer = tracing.Tracer(modules, asymcsit.SchemePlan)
    tracer.install()
    try:
        evaluator.estimate_dof(plan, grid, n_trials, seed)
    finally:
        tracer.uninstall()
    totals = tracing.layer_totals(tracer.spans, {0})
    return {
        "n_cycles": n_cycles,
        "n_trials": n_trials,
        "slots": len(plan.prologue_slots) + len(plan.cycle_slots),
        "links": len(plan.links),
        "pass_s": statistics.median(times),
        "pass_samples_s": times,
        "pass_wall_samples_s": walls,
        "plan_lookup_share": totals["schemes.plan_lookup.busy_s"] / totals["evaluator.estimate_dof.busy_s"],
        "plan_lookup_calls": totals["schemes.plan_lookup.calls"],
    }


def _exponent(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    report = {"seed": args.seed, "reps": REPS, "curves": {}}
    for curve, points in CURVES.items():
        rows = [_point(c, t, args.seed) for c, t in points]
        xs = [r[curve] for r in rows]
        report["curves"][curve] = {
            "points": rows,
            "exponent": _exponent(xs, [r["pass_s"] for r in rows]),
        }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print("| curve | n_cycles | n_trials | slots | links | pass_s (median) | plan_lookup share |")
    print("| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
    for curve, data in report["curves"].items():
        for r in data["points"]:
            print(f"| {curve} | {r['n_cycles']} | {r['n_trials']} | {r['slots']} | {r['links']} "
                  f"| {r['pass_s']:.4g} s | {100 * r['plan_lookup_share']:.1f} % |")
    for curve, data in report["curves"].items():
        print(f"fitted exponent of pass_s in {curve}: {data['exponent']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
