"""asymcsit benchmark: one workload per invocation, run in fresh processes.

    python3 perfbench/run.py --workload acceptance --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Each run starts SETUPS worker processes one after another, each from a
fresh interpreter: import, plan and grid builds, a small warm-up (see
workloads.py).  The first then times passes for --seconds (at least one
pass); the others only set up, so that set-up time is a median of SETUPS.
Times are host-normalised seconds (see hostspeed.py); raw wall seconds
are printed next to them.  With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 the timing process alternates
untraced and traced passes and it carries the per-layer metrics.  Every
pass's outputs are checked; see workloads.py.  Full results and span
files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402

SETUPS = 5
DEADLINE_S = 170.0
WORKLOADS = ("acceptance", "long-horizon", "sweep")
LAYERS = ("channel", "schemes", "evaluator", "reports", "geometry", "cli")

# Per-layer metrics read from tracing.layer_totals' keys of the same name
# (cli.self_s is cli.main's self time).
SPAN_METRICS = (
    "channel.sample_channel.calls", "channel.sample_channel.busy_s",
    "channel.normals", "channel.bytes_out",
    "channel.projection.calls", "channel.projection.busy_s",
    "schemes.plan_lookup.calls", "schemes.plan_lookup.busy_s",
    "schemes.validate_plan.calls", "schemes.validate_plan.busy_s",
    "evaluator.evaluate_plan.calls", "evaluator.evaluate_plan.busy_s", "evaluator.evaluate_plan.self_s",
    "evaluator.estimate_dof.calls", "evaluator.estimate_dof.busy_s", "evaluator.estimate_dof.self_s",
    "evaluator.residual_power_probe.calls", "evaluator.residual_power_probe.busy_s",
    "reports.run.calls", "reports.run.busy_s", "reports.run.self_s",
    "geometry.dof_region.calls", "geometry.dof_region.busy_s", "geometry.contains.calls",
    "cli.main.busy_s", "cli.self_s",
)
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "normals": "count", "bytes_out": "B"}


def _unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def _exact(key: str) -> bool:
    """Counts that must repeat exactly between passes and processes."""
    return key.endswith(".calls") or key in ("channel.normals", "channel.bytes_out")


def _environment(seed: int, child: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": child["python"],
        "numpy": child["numpy"],
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _high_percentile(samples: list[float]) -> str:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in (50, 75, 90, 95, 99):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = f"p{p}={xs[rank - 1]:.6g} s ({n - rank} beyond)"
    return best or "no percentile has >=10 samples beyond it"


def _run_children(args, out_dir: Path) -> list[dict]:
    """Child 0 sets up and times passes; the others only set up."""
    deadline = time.monotonic() + DEADLINE_S
    children = []
    hostspeed.reference()  # cold
    for k in range(SETUPS):
        out = out_dir / f"child-{args.workload}-{k}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", args.workload, "--seed", str(args.seed),
               "--budget", str(args.seconds if k == 0 else 0), "--trace", str(args.trace),
               "--out", str(out)]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{k}.csv")]
        ref_before = hostspeed.reference()
        spawned = time.monotonic()
        # the child's stdout goes to our stderr, so only this process writes the result line
        proc = subprocess.run(cmd, stdout=sys.stderr.fileno(), timeout=max(1.0, deadline - spawned))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
        child = json.loads(out.read_text(encoding="utf-8"))
        child["setup_wall_s"] = child["ready_monotonic"] - spawned
        # host-normalised like the passes, by the reference samples on either side of set-up
        child["setup_s"] = child["setup_wall_s"] * hostspeed.REF_S / (
            (ref_before + child["ref_after_setup_s"]) / 2.0)
        children.append(child)
    return children


def _outcomes(children, kinds):
    return [o for c in children for o in c["outcomes"] if o["kind"] in kinds]


def _check(children, trace: int) -> tuple[bool, list[str]]:
    """Determinism and exact-count checks across every pass of every child."""
    problems = []
    everything = _outcomes(children, ("untraced", "traced"))
    for o in everything:
        problems += o["raised"]
    if len({o["digest"] for o in everything}) != 1:
        problems.append("pass outputs differ between passes of the same seed")
    if trace:
        for group in ([c["setup_layers"] for c in children], children[0]["pass_layers"]):
            keys = sorted({k for totals in group for k in totals if _exact(k)})
            for k in keys:
                values = {totals.get(k, 0) for totals in group}
                if len(values) != 1:
                    problems.append(f"count {k} drifts: {sorted(values)}")
    return not problems, problems


def _trace_metrics(children, timed) -> tuple[dict, list[tuple[str, float]]]:
    timer = children[0]
    passes = timer["pass_layers"]
    setup = timer["setup_layers"]
    metrics = {}
    for metric in SPAN_METRICS:
        key = "cli.main.self_s" if metric == "cli.self_s" else metric
        values = [p.get(key, 0) for p in passes]
        value = values[0] if _exact(key) else statistics.median(values)
        metrics[metric] = (value, _unit(metric))
    for field in ("calls", "busy_s"):
        key = f"schemes.build_preset.{field}"
        per_pass = [p.get(key, 0) for p in passes]
        metrics[key] = (setup.get(key, 0) + (per_pass[0] if field == "calls" else statistics.median(per_pass)),
                        _unit(key))
    sizes = timer["sizes"]
    for key in ("schemes.slots", "schemes.links", "schemes.layers"):
        metrics[key] = (sizes[key], "count")
    traced = _outcomes(children, ("traced",))
    metrics["evaluator.slope_margin_min"] = (min(o["margin_min"] for o in timed), "dof")
    metrics["evaluator.slope_stderr_max"] = (max(o["stderr_max"] for o in timed), "dof")
    metrics["reports.bytes_written"] = (statistics.median(o["bytes_written"] for o in traced), "B")
    # both in raw wall seconds: reference samples would land inside traced spans
    traced_s = statistics.median(timer["traced_pass_s"])
    untraced_s = statistics.median(timer["pass_wall_s"])
    metrics["trace_overhead_s"] = (traced_s - untraced_s, "s")

    # self-time share of each layer and each span name: median over traced passes
    times = timer["traced_pass_s"]
    names = sorted({k[:-len(".self_s")] for p in passes for k in p if k.endswith(".self_s")})
    groups = {layer: [n for n in names if n.split(".")[0] == layer] for layer in LAYERS}
    groups["(benchmark and untraced code)"] = None
    groups.update({"  " + n: [n] for n in names})

    def share(p, t, members):
        if members is None:
            return 1.0 - sum(p.get(f"{n}.self_s", 0.0) for n in names) / t
        return sum(p.get(f"{n}.self_s", 0.0) for n in members) / t

    medians = {g: statistics.median(share(p, t, m) for p, t in zip(passes, times)) for g, m in groups.items()}
    ranked = sorted(((g, v) for g, v in medians.items() if not g.startswith(" ")), key=lambda kv: -kv[1])
    ranked += sorted(((g, v) for g, v in medians.items() if g.startswith(" ")), key=lambda kv: -kv[1])
    return metrics, ranked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "asymcsit" / "__init__.py").is_file():
        print(f"error: no asymcsit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through subprocess.run, which then kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        children = _run_children(args, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    timed = _outcomes(children, ("untraced", "traced"))
    # Every timed pass repeats the same operations on the same seed, and
    # _check holds their outputs identical, so each operation counts once
    # and has failed if it failed in any pass.  The counts then do not
    # depend on how many passes fit in --seconds.
    per_op = list(itertools.zip_longest(*(o["failures"] for o in timed),
                                        fillvalue="operation missing from a pass"))
    attempted = len(per_op)
    failed = sum(any(f is not None for f in op) for op in per_op)
    failures = sorted({f for op in per_op for f in op if f is not None})
    correct, problems = _check(children, args.trace)
    timer = children[0]
    pass_samples = timer["pass_s"]
    pass_s = statistics.median(pass_samples)
    stderr_max = max(o["stderr_max"] for o in timed)
    env = _environment(args.seed, children[0])

    print(f"asymcsit benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"processes={SETUPS} seconds={args.seconds:g}")
    print("env: " + json.dumps(env))
    if args.trace:
        metrics, ranked = _trace_metrics(children, timed)
        print("self-time share of a traced pass, by layer and by span:")
        for name, share in ranked:
            print(f"  {name:<40} {100 * share:6.2f} %")
    else:
        metrics = {
            "pass_s": (pass_s, "s"),
            "trial_slots_per_s": (timer["sizes"]["trial_slots"] / pass_s, "1/s"),
            "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
            "peak_rss_mb": (timer["peak_rss_kb"] / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<40} {shown:<14} {unit}")
    print(f"  {'fail_ratio':<40} {failed / attempted:<14.6g} ratio ({failed}/{attempted} operations, "
          f"each run in all {len(timed)} timed passes)")
    if not args.trace:
        print(f"  {'slope_stderr_max':<40} {stderr_max:<14.6g} dof")
        print(f"  pass_s is the median of {len(pass_samples)} passes; {_high_percentile(pass_samples)}; "
              f"{timer['sizes']['trial_slots']} trial-slots per pass")
        print(f"  raw wall seconds: pass {statistics.median(timer['pass_wall_s']):.6g} s, "
              f"set-up {statistics.median(c['setup_wall_s'] for c in children):.6g} s "
              f"(normalised seconds assume the reference kernel takes {hostspeed.REF_S} s)")
    for f in failures:
        print(f"  failed: {f}")
    for p in problems:
        print(f"  problem: {p}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(result, workload=args.workload, env=env, fail_ratio=failed / attempted,
                slope_stderr_max=stderr_max, pass_samples_s=pass_samples,
                pass_wall_samples_s=timer["pass_wall_s"],
                setup_samples_s=[c["setup_s"] for c in children],
                setup_wall_samples_s=[c["setup_wall_s"] for c in children],
                failures=failures, problems=problems)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
