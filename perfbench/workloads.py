"""The three benchmark workloads: set-up, one pass, and its output checks.

Each workload calls the package through module attributes
(`evaluator.estimate_dof`, `schemes.build_preset`, `cli.main`) so that the
traced run's patches see the calls.  run_pass is the timed part; check
then turns its raw results into one outcome per operation.  An operation
fails when it raises or misses its check.  warmup, the last step of set-up,
runs every kind of call a pass makes once at a small size (few trials,
small plans), so that lazy imports and first-call costs are paid before
timing without a full-size pass.

Why these three (see also BENCHMARK.json):
  acceptance    the compute of tests/test_acceptance.py; the gate every
                change pays for, dominated by channel draws and projections.
  long-horizon  the same evaluator with the opposite shape (many slots, few
                trials), dominated by SchemePlan lookups that re-sort the
                slot list; where an indexed lookup shows and draws do not.
  sweep         many small runs through `asymcsit sweep`, the only workload
                that reaches the front end (plan builds, validation per grid
                point, geometry, report files); covers alpha = 0, alpha = 1
                and the 2*alpha2 - alpha1 = 1 boundary that routes auto to
                case-i.  It runs the package's default 2000 trials: at 200,
                sc-zf's slope stderr (about 0.03 against the 0.05
                tolerance) failed pairs on about one seed in three.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from asymcsit import cli, evaluator, geometry, schemes
from asymcsit.channel import SnrPoint

GRID_DB = (60.0, 80.0, 100.0, 120.0)
TOL = 0.05
WARMUP_TRIALS = 20
WARMUP_CYCLES = 1


@dataclass
class PassOutcome:
    """What one pass produced, after its checks."""

    failures: list[str | None]          # one entry per operation; None = ok
    raised: list[str] = field(default_factory=list)
    stderr_max: float = 0.0
    margin_min: float = math.inf
    digest: str = ""
    bytes_written: int = 0


def _grid(quality):
    return [SnrPoint.from_db(db, quality) for db in GRID_DB]


def _margin(slope, target) -> float:
    """Smallest 0.05 - |slope - target| over the checked components."""
    return min(TOL - abs(s - t) for s, t in zip(slope, target) if t is not None)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _add_plan_sizes(sizes: dict[str, int], plan, n_trials: int) -> None:
    slots = plan.prologue_slots + plan.cycle_slots
    sizes["schemes.slots"] += len(slots)
    sizes["schemes.links"] += len(plan.links)
    sizes["schemes.layers"] += sum(len(s.layers) for s in slots)
    sizes["trial_slots"] += n_trials * len(slots) * len(GRID_DB)


def _new_sizes() -> dict[str, int]:
    return {"schemes.slots": 0, "schemes.links": 0, "schemes.layers": 0, "trial_slots": 0}


def _est_key(est):
    return (est.points, est.point_stderr, est.slope.as_tuple(), est.stderr)


class _Estimates:
    """Shared shape of acceptance and long-horizon: fixed estimate_dof calls
    on plans built at set-up."""

    cases: tuple = ()
    n_trials = 0
    n_cycles = 0

    def prepare(self):
        pass

    def build(self):
        self.plans = []
        self.warm_plans = []
        for name, a1, a2, _target in self.cases:
            quality = geometry.CsitQuality(a1, a2)
            self.plans.append((schemes.build_preset(name, quality, self.n_cycles), _grid(quality)))
            self.warm_plans.append((schemes.build_preset(name, quality, WARMUP_CYCLES), _grid(quality)))

    def warmup(self, seed):
        for plan, grid in self.warm_plans:
            evaluator.estimate_dof(plan, grid, WARMUP_TRIALS, seed)

    def sizes(self) -> dict[str, int]:
        out = _new_sizes()
        for plan, _grid in self.plans:
            _add_plan_sizes(out, plan, self.n_trials)
        return out

    def run_pass(self, seed, mark):
        outcome = PassOutcome(failures=[])
        return outcome, self._run_estimates(seed, mark, outcome)

    def check(self, raw) -> PassOutcome:
        outcome, ests = raw
        self._check_estimates(ests, outcome)
        outcome.digest = _digest([_est_key(e) if e else None for e in ests])
        return outcome

    def _run_estimates(self, seed, mark, outcome):
        ests = []
        for (name, a1, a2, _target), (plan, grid) in zip(self.cases, self.plans):
            mark(f"estimate {name} ({a1}, {a2})")
            try:
                ests.append(evaluator.estimate_dof(plan, grid, self.n_trials, seed))
            except Exception as exc:  # an operation that raises counts as failed
                outcome.raised.append(f"{name} ({a1}, {a2}): {type(exc).__name__}: {exc}")
                ests.append(None)
        return ests

    def _check_estimates(self, ests, outcome):
        for (name, a1, a2, target), (plan, _grid), est in zip(self.cases, self.plans, ests):
            target = target or plan.predicted_dof.as_tuple()
            if est is None:
                outcome.failures.append(f"{name} ({a1}, {a2}) raised")
                continue
            outcome.stderr_max = max(outcome.stderr_max, *est.stderr)
            margin = _margin(est.slope.as_tuple(), target)
            outcome.margin_min = min(outcome.margin_min, margin)
            outcome.failures.append(
                None if margin >= 0.0 else
                f"{name} ({a1}, {a2}) slope {est.slope.as_tuple()} vs {target} +-{TOL}"
            )


class Acceptance(_Estimates):
    """tests/test_acceptance.py's compute: seven full-budget estimates and
    criterion 9's residual-power probe series, checked against the same
    thresholds."""

    n_trials = 2000
    n_cycles = 50
    # (preset, alpha1, alpha2, slope target per user; None = not checked,
    # a missing target means the plan's predicted_dof)
    cases = (
        ("case-ii", 0.3, 0.5, (0.7, 0.9)),
        ("case-i", 0.2, 0.8, (0.6, 1.0)),
        ("sc-zf", 0.3, 0.5, (1.0, 0.3)),
        ("case-ii-alt", 0.3, 0.5, (0.5, 1.0)),
        ("ges12-asym", 0.3, 0.5, (None, 2.5 / 3)),
        ("case-ii", 0.4, 0.4, (0.8, 0.8)),
        ("ges12-asym", 0.4, 0.4, (0.8, 0.8)),
    )
    probe_trials = 4000

    def build(self):
        super().build()
        quality = geometry.CsitQuality(0.3, 0.5)
        self.probe_plan = schemes.build_preset("case-ii", quality, 2)
        self.probe_bad = schemes.perturb_link_prelog(self.probe_plan, "eta_4_1", -0.1)
        self.probe_grid = _grid(quality)

    def warmup(self, seed):
        super().warmup(seed)
        for plan in (self.probe_plan, self.probe_bad):
            evaluator.residual_power_probe(plan, self.probe_grid[0], WARMUP_TRIALS, seed)

    def run_pass(self, seed, mark):
        outcome = PassOutcome(failures=[])
        ests = self._run_estimates(seed, mark, outcome)
        mark("residual_power_probe series")
        try:
            sound = [evaluator.residual_power_probe(self.probe_plan, snr, self.probe_trials, seed)
                     for snr in self.probe_grid]
            bad = [evaluator.residual_power_probe(self.probe_bad, snr, self.probe_trials, seed)["eta_4_1"]
                   for snr in self.probe_grid]
        except Exception as exc:
            outcome.raised.append(f"residual_power_probe: {type(exc).__name__}: {exc}")
            sound = bad = None
        return outcome, ests, sound, bad

    def check(self, raw) -> PassOutcome:
        outcome, ests, sound, bad = raw
        self._check_estimates(ests, outcome)
        self._check_criteria(ests, outcome)
        outcome.failures.append(self._check_probe(sound, bad))
        outcome.digest = _digest([_est_key(e) if e else None for e in ests], sound, bad)
        return outcome

    def _check_criteria(self, ests, outcome):
        """Criteria 6-8, which tie estimates together; a miss fails every
        estimate involved."""

        def fail(i, why):
            if outcome.failures[i] is None:
                outcome.failures[i] = why

        for i in range(5):  # criterion 7 covers the first five cases
            est = ests[i]
            if est is None:
                continue
            name, a1, a2, _ = self.cases[i]
            slack = geometry.outer_bound_slack(geometry.CsitQuality(a1, a2), est.slope)
            if min(slack) < -TOL:
                fail(i, f"{name} ({a1}, {a2}) breaks an outer bound by {-min(slack):.4f}")
        ges = ests[4]
        if ges is not None:  # criterion 6: the baseline's deficit
            deficit = 0.9 - ges.slope.d2
            if abs(deficit - 0.2 / 3) > 0.03:
                fail(4, f"ges12-asym deficit {deficit:.4f} vs 0.0667 +-0.03")
        a, b = ests[5], ests[6]
        if a is not None and b is not None:  # criterion 8: gap within 2x combined stderr
            for k in (0, 1):
                gap = abs(a.slope.as_tuple()[k] - b.slope.as_tuple()[k])
                limit = 2.0 * math.hypot(a.stderr[k], b.stderr[k])
                if gap > limit:
                    fail(5, f"(0.4, 0.4) gap {gap:.4f} > {limit:.4f}")
                    fail(6, f"(0.4, 0.4) gap {gap:.4f} > {limit:.4f}")

    def _check_probe(self, sound, bad):
        if sound is None:
            return "residual_power_probe raised"
        x = [snr.log2p for snr in self.probe_grid]
        series = {}
        for point in sound:
            for k, v in point.items():
                series.setdefault(k, []).append(v)
        flat = max(abs(float(np.polyfit(x, np.log2(ys), 1)[0])) for ys in series.values())
        rising = float(np.polyfit(x, np.log2(bad), 1)[0])
        if flat > TOL:
            return f"sound-plan residual slope {flat:.3f} > {TOL}"
        if rising <= TOL:
            return f"deficient-link residual slope {rising:.3f} <= {TOL}"
        return None


class LongHorizon(_Estimates):
    """case-ii at (0.3, 0.5) with 400 cycles and 20 trials."""

    n_trials = 20
    n_cycles = 400
    cases = (("case-ii", 0.3, 0.5, None),)



class Sweep:
    """`asymcsit sweep` over twelve quality pairs into a fresh directory."""

    pairs = ("0:0", "0:0.2", "0.1:0.3", "0.25:0.45", "0.3:0.5", "0:0.5",
             "0.5:0.75", "0.4:0.4", "0.5:0.7", "0.2:0.8", "0.5:1", "1:1")
    scheme_names = ("sc-zf", "ges12-asym", "auto")
    n_trials = 2000
    n_cycles = 5

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.first_ledgers: list[bytes] | None = None

    def prepare(self):
        """Sizes of the plans the sweep builds, counted before any tracing
        so that these builds are not charged to the workload."""
        self._sizes = _new_sizes()
        for pair in self.pairs:
            a1, a2 = (float(x) for x in pair.split(":"))
            for name in self.scheme_names:
                plan = schemes.build_preset(name, geometry.CsitQuality(a1, a2), self.n_cycles)
                _add_plan_sizes(self._sizes, plan, self.n_trials)

    def build(self):
        pass

    def warmup(self, seed):
        out_dir = Path(tempfile.mkdtemp(prefix="warmup-", dir=self.scratch))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self._argv(seed, out_dir, WARMUP_TRIALS, WARMUP_CYCLES))
            if code != 0:
                raise RuntimeError(f"warm-up sweep returned {code}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def sizes(self):
        return dict(self._sizes)

    def _argv(self, seed, out_dir, n_trials, n_cycles):
        return ["sweep", "--qualities", ",".join(self.pairs),
                "--schemes", ",".join(self.scheme_names),
                "--trials", str(n_trials), "--cycles", str(n_cycles),
                "--seed", str(seed), "--out-dir", str(out_dir)]

    def run_pass(self, seed, mark):
        outcome = PassOutcome(failures=[])
        out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        mark("sweep")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self._argv(seed, out_dir, self.n_trials, self.n_cycles))
            if code != 0:
                outcome.raised.append(f"cli.main returned {code}")
        except Exception as exc:
            outcome.raised.append(f"cli.main: {type(exc).__name__}: {exc}")
        return outcome, out_dir

    def check(self, raw) -> PassOutcome:
        outcome, out_dir = raw
        try:
            if outcome.raised:
                outcome.failures = [f"{pair}: sweep did not complete" for pair in self.pairs]
            else:
                self._check(out_dir, outcome)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return outcome

    def _check(self, out_dir: Path, outcome: PassOutcome):
        index_bytes = (out_dir / "index.json").read_bytes()
        runs = json.loads(index_bytes)["runs"]
        if len(runs) != len(self.pairs):
            outcome.raised.append(f"index lists {len(runs)} runs for {len(self.pairs)} pairs")
        ledgers = []
        for pair, entry in zip(self.pairs, runs):
            if "error" in entry or not entry.get("passed", False):
                missed = [f"{name} slope {s['slope']} vs {s['target']}"
                          for name, s in entry.get("schemes", {}).items() if not s["passed"]]
                outcome.failures.append(f"{pair}: {entry.get('error') or '; '.join(missed)}")
                ledgers.append(b"")
                continue
            run_dir = out_dir / entry["dir"]
            ledgers.append((run_dir / "ledger.csv").read_bytes())
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
            for s in report["schemes"]:
                outcome.stderr_max = max(outcome.stderr_max, *s["stderr"])
                outcome.margin_min = min(outcome.margin_min, _margin(s["slope"], s["target"]))
            outcome.failures.append(None)
        if self.first_ledgers is None:
            self.first_ledgers = ledgers
        for i, (first, now) in enumerate(zip(self.first_ledgers, ledgers)):
            if first != now and outcome.failures[i] is None:
                outcome.failures[i] = f"{self.pairs[i]}: ledger.csv differs from the first pass"
        outcome.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        outcome.digest = _digest(index_bytes, *ledgers)


def make(name: str, scratch: Path):
    if name == "acceptance":
        return Acceptance()
    if name == "long-horizon":
        return LongHorizon()
    if name == "sweep":
        return Sweep(scratch)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("acceptance", "long-horizon", "sweep")
