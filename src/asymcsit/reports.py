"""Experiment configuration, run/sweep drivers and file emission.

A run evaluates the requested scheme presets for one CSIT quality pair over
a power grid, compares the fitted DoF slopes to each scheme's predicted
target, and writes three artifacts into the output directory:

  ledger.csv   one row per (scheme, grid point); fixed, versioned columns
  report.json  full run report (schema asymcsit-report-v1)
  region.json  the DoF region polygon for replotting

Files are written atomically (temp file + rename).  For a fixed config,
including the seed, the CSV is byte-identical across runs; the JSON report
additionally records wall time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channel import SnrPoint
# estimate_dof is not called here (run and sweep estimate their plans in
# one _estimates pass), but the benchmark's tracer (perfbench/tracing.py)
# patches it under this module
from .evaluator import DofEstimate, _estimates, _require_estimable, check_grid_db, estimate_dof  # noqa: F401
from .geometry import CsitQuality, DofPoint, contains, dof_region, region_as_dict
from .schemes import PRESET_NAMES, _require_int, build_preset

__all__ = [
    "ExperimentConfig",
    "SchemeResult",
    "RunReport",
    "run",
    "sweep",
    "region_export",
    "CSV_HEADER",
]

REPORT_SCHEMA = "asymcsit-report-v1"
SWEEP_SCHEMA = "asymcsit-sweep-v1"
CSV_COMMENT = "# asymcsit-ledger-v1; P = 10**(P_dB/10); R1,R2 in bits per plan run; rates r_k = R_k/uses"
CSV_HEADER = "scheme,alpha1,alpha2,P_dB,R1,R2,uses,d1_hat,d2_hat,stderr1,stderr2,seed"

DEFAULT_GRID_DB = (60.0, 80.0, 100.0, 120.0)
DEFAULT_TRIALS = 2000
DEFAULT_CYCLES = 50
DEFAULT_TOLERANCE = 0.05
DEFAULT_SEED = 7
_PAIRS_PER_PASS = 3  # quality pairs that sweep runs through one grid pass


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _plain(x):
    """x as the Python int or float of its value if it is a numpy integer
    or float, which json cannot write (a long double is rounded to a
    float); anything else as it is."""
    return int(x) if isinstance(x, np.integer) else float(x) if isinstance(x, np.floating) else x


@dataclass
class ExperimentConfig:
    """One run's budget and output place.

    Integers (not bools): n_trials >= 2 (one trial has no spread, so its
    stderr of 0 would be no estimate; the library's entry points take 1),
    n_cycles >= 1 and seed >= 0.  Finite
    real numbers: alpha1, alpha2 and tolerance >= 0, with
    0 <= alpha1 <= alpha2 <= 1 (checked before the grid, which reads
    alpha2).  p_grid_db is a list of real dB values that check_grid_db
    accepts at alpha2.  Numpy scalars among these are kept as Python ones
    (_plain), so that the report can be written.  schemes is a list of
    distinct preset names, and output_dir a string or a path.  A violation
    raises ValueError naming the field.
    """

    alpha1: float
    alpha2: float
    schemes: list[str] = field(default_factory=lambda: ["auto"])
    p_grid_db: list[float] = field(default_factory=lambda: list(DEFAULT_GRID_DB))
    n_trials: int = DEFAULT_TRIALS
    n_cycles: int = DEFAULT_CYCLES
    seed: int = DEFAULT_SEED
    output_dir: Path = Path("asymcsit-out")
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a string or a path, got {self.output_dir!r}")
        self.output_dir = Path(self.output_dir)
        for name in ("n_trials", "n_cycles", "seed", "alpha1", "alpha2", "tolerance"):
            setattr(self, name, _plain(getattr(self, name)))
        for name, low in (("n_trials", 2), ("n_cycles", 1), ("seed", 0)):
            _require_int(name, getattr(self, name), low)
        for name in ("alpha1", "alpha2", "tolerance"):
            value = getattr(self, name)
            if not (_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not isinstance(self.p_grid_db, (list, tuple)) or not all(map(_real, self.p_grid_db)):
            raise ValueError(f"p_grid_db must be a list of real numbers, got {self.p_grid_db!r}")
        self.p_grid_db = type(self.p_grid_db)(map(_plain, self.p_grid_db))
        if not isinstance(self.schemes, (list, tuple)) or not all(isinstance(n, str) for n in self.schemes):
            raise ValueError(f"schemes must be a list of strings, got {self.schemes!r}")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for i, name in enumerate(self.schemes):
            if name not in PRESET_NAMES:
                raise ValueError(f"unknown scheme {name!r}; choose from {sorted(PRESET_NAMES)}")
            if name in self.schemes[:i]:
                raise ValueError(f"scheme {name!r} is listed twice")
        CsitQuality(self.alpha1, self.alpha2)  # the pair's own error before any grid check reads alpha2
        check_grid_db(self.p_grid_db, self.alpha2)
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")

    @property
    def quality(self) -> CsitQuality:
        return CsitQuality(self.alpha1, self.alpha2)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["output_dir"] = str(self.output_dir)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError(f"config file {path} must hold a JSON object, got {type(d).__name__}")
        d.update(overrides or {})
        return cls.from_dict(d)


@dataclass(frozen=True, eq=False)
class SchemeResult:
    name: str
    estimate: DofEstimate
    target: DofPoint
    passed: bool
    within_region: bool
    channel_uses: float


@dataclass(frozen=True, eq=False)
class RunReport:
    config: ExperimentConfig
    results: tuple[SchemeResult, ...]
    region_vertices: tuple[tuple[float, float], ...]
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "alpha1": self.config.alpha1,
            "alpha2": self.config.alpha2,
            "seed": self.config.seed,
            "wall_time_s": self.wall_time_s,
            "config": self.config.to_dict(),
            "region_vertices": [list(v) for v in self.region_vertices],
            "all_passed": self.all_passed,
            "schemes": [
                {
                    "name": r.name,
                    "target": list(r.target.as_tuple()),
                    "slope": list(r.estimate.slope.as_tuple()),
                    "stderr": list(r.estimate.stderr),
                    "passed": r.passed,
                    "within_region": r.within_region,
                    "points": [list(pt) for pt in r.estimate.points],
                    "point_stderr": [list(se) for se in r.estimate.point_stderr],
                }
                for r in self.results
            ],
        }


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_rows(config: ExperimentConfig, results) -> str:
    lines = [CSV_COMMENT, CSV_HEADER]
    for r in results:
        d1, d2 = r.estimate.slope.as_tuple()
        se1, se2 = r.estimate.stderr
        for db, (_log2p, r1, r2) in zip(config.p_grid_db, r.estimate.points):
            # points hold rates per channel use; the CSV stores totals + uses
            lines.append(",".join([
                r.name,
                _fmt(config.alpha1),
                _fmt(config.alpha2),
                _fmt(db),
                _fmt(r1 * r.channel_uses),
                _fmt(r2 * r.channel_uses),
                _fmt(r.channel_uses),
                _fmt(d1),
                _fmt(d2),
                _fmt(se1),
                _fmt(se2),
                str(config.seed),
            ]))
    return "\n".join(lines) + "\n"


def region_export(quality: CsitQuality, path: str | Path) -> Path:
    """Write the region polygon + corner annotations as JSON; returns path."""
    path = Path(path)
    _atomic_write(path, json.dumps(region_as_dict(dof_region(quality)), indent=2) + "\n")
    return path


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment: estimate every requested scheme's DoF.

    Every plan is built, and then output_dir made, before the first
    estimate.  Scheme/quality mismatches (the case split) raise
    SchemeConditionError naming the violated condition, two names that
    build one preset (auto and the case it picks) raise ValueError, and an
    output_dir that cannot be made a directory raises OSError.  Every plan
    is then validated (PlanValidationError) before the first stream is
    seeded, and the plans are estimated together, in one grid pass that
    draws each stream once for all of them; each estimate is the one
    estimate_dof gives its plan alone.  Deterministic for a fixed config.
    run is sweep's batch routine (_run_pairs) for one pair, and
    report.json's wall_time_s is the whole run's.
    """
    report = _run_pairs([config])[0]
    if isinstance(report, ValueError):
        raise report
    return report


def _run_pairs(configs: list[ExperimentConfig]) -> list:
    """run of each config, in order, with one grid pass for them all: per
    config its RunReport, or the ValueError that its builds or the checks
    of its plans raised, recorded so that the other pairs go on (any other
    exception propagates).

    The configs differ at most in their quality pair and output_dir: they
    share the grid, trial count and seed, so a stream's key carries no
    quality, and one draw of each stream serves every pair.  Each pair is
    built, its output_dir made and its plans checked (_require_estimable),
    in turn; then the plans of every pair that passed share one pass
    (_estimates), which scales, projects and decodes each chunk's draw once
    per quality, and each pair's files are written.  Each estimate is ==
    to run's of its pair alone, so every file is too, but for wall_time_s:
    the seconds from the start of the batch to the pair's report, the
    shared pass included.  The pass holds more memory for each pair it
    serves (its waiting parts, and each plan's per-trial totals).
    """
    t0 = time.monotonic()
    reports: list = []
    pairs = []  # (its place in reports, config, region, grid, plans) per pair that the pass serves
    for config in configs:
        plans = []
        built: dict[str, str] = {}  # preset -> the scheme name that built it
        try:
            quality = config.quality
            region = dof_region(quality)
            grid = [SnrPoint.from_db(db, quality) for db in config.p_grid_db]
            for name in config.schemes:
                plans.append(build_preset(name, quality, config.n_cycles))
                first = built.setdefault(plans[-1].name, name)
                if first != name:
                    raise ValueError(f"schemes {first!r} and {name!r} both build {plans[-1].name}")
            config.output_dir.mkdir(parents=True, exist_ok=True)
            _require_estimable(plans, grid)
        except ValueError as exc:  # includes SchemeConditionError and PlanValidationError
            reports.append(exc)
            continue
        pairs.append((len(reports), config, region, grid, plans))
        reports.append(None)
    if not pairs:
        return reports
    # the pairs' grids differ only in their quality, which the pass reads off
    # each plan, so any pair's serves them all
    _, config, _, grid, _ = pairs[0]
    ests = iter(_estimates([plan for *_, plans in pairs for plan in plans], grid, config.n_trials, config.seed))
    for at, config, region, _grid, plans in pairs:
        results = []
        for plan in plans:
            est, target = next(ests), plan.predicted_dof
            results.append(SchemeResult(
                name=plan.name,
                estimate=est,
                target=target,
                passed=max(abs(est.slope.d1 - target.d1), abs(est.slope.d2 - target.d2)) <= config.tolerance,
                within_region=contains(region, est.slope, tol=config.tolerance),
                channel_uses=plan.channel_uses(),
            ))
        reports[at] = report = RunReport(
            config=config,
            results=tuple(results),
            region_vertices=tuple(v.as_tuple() for v in region.vertices),
            wall_time_s=time.monotonic() - t0,
        )
        out = config.output_dir
        _atomic_write(out / "ledger.csv", _csv_rows(config, results))
        _atomic_write(out / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
        region_export(config.quality, out / "region.json")
    return reports


def sweep(qualities: list[CsitQuality], base: ExperimentConfig) -> dict:
    """One run per quality pair under base's budget; writes an index file.

    Failures of individual runs (for example a scheme requested outside its
    validity condition) are recorded in the index and do not stop the sweep.
    base.output_dir is made after every pair is checked and before the
    first run, so a path that cannot be a directory raises OSError first.
    The pairs run in batches of _PAIRS_PER_PASS, in order, each batch
    through one grid pass (_run_pairs), which draws each stream once for
    the batch; each pair's files are those that run writes for it alone,
    but for report.json's wall_time_s, which counts from its batch's start.
    """
    if not qualities:
        raise ValueError("qualities must be nonempty")
    # every pair's config is checked (the grid ceiling depends on alpha2),
    # and pairs are checked for repeats, before the first run starts.  A
    # repeat is an equal pair of values: 0.0 and -0.0 are one pair, though
    # their directory tags differ
    runs = []
    for q in qualities:
        if any((entry["alpha1"], entry["alpha2"]) == (q.alpha1, q.alpha2) for _sub, entry in runs):
            raise ValueError(f"quality pair ({q.alpha1}, {q.alpha2}) is listed twice")
        tag = f"a1_{float(q.alpha1)!r}_a2_{float(q.alpha2)!r}".replace(".", "p")
        sub = dataclasses.replace(base, alpha1=q.alpha1, alpha2=q.alpha2, output_dir=base.output_dir / tag)
        runs.append((sub, {"alpha1": sub.alpha1, "alpha2": sub.alpha2, "dir": tag}))
    base.output_dir.mkdir(parents=True, exist_ok=True)
    for b in range(0, len(runs), _PAIRS_PER_PASS):
        batch = runs[b:b + _PAIRS_PER_PASS]
        for (_sub, entry), report in zip(batch, _run_pairs([sub for sub, _entry in batch])):
            if isinstance(report, ValueError):
                entry["passed"] = False
                entry["error"] = f"{type(report).__name__}: {report}"
            else:
                entry["passed"] = report.all_passed
                entry["schemes"] = {
                    r.name: {"slope": list(r.estimate.slope.as_tuple()),
                             "target": list(r.target.as_tuple()),
                             "passed": r.passed}
                    for r in report.results
                }
    entries = [entry for _sub, entry in runs]
    index = {
        "schema": SWEEP_SCHEMA,
        "version": __version__,
        "runs": entries,
        "all_passed": all(e.get("passed", False) for e in entries),
    }
    _atomic_write(base.output_dir / "index.json", json.dumps(index, indent=2) + "\n")
    return index
