"""Command-line front end: region export, runs, sweeps, plan inspection.

Subcommands:
    region    export the DoF region polygon for a quality pair as JSON
    run       estimate DoF slopes for one quality pair and scheme set
    sweep     repeat `run` over a list of quality pairs, with an index file
    validate  print a preset's per-slot layer tables and any diagnostics
"""

from __future__ import annotations

import argparse
import json
import sys

from .geometry import CsitQuality, dof_region, region_as_dict
from .reports import ExperimentConfig, region_export, run, sweep
from .schemes import PRESET_NAMES, build_preset, plan_as_dict, validate_plan


def _quality(args) -> CsitQuality:
    return CsitQuality(args.alpha1, args.alpha2)


def _add_quality_args(p):
    p.add_argument("--alpha1", type=float, required=True, help="CSIT quality exponent of user 1")
    p.add_argument("--alpha2", type=float, required=True, help="CSIT quality exponent of user 2 (>= alpha1)")


def _add_budget_args(p):
    # budget flags default to None so that only flags actually given are
    # layered over the config file (or over ExperimentConfig's defaults)
    p.add_argument("--schemes", default=None,
                   help=f"comma-separated preset names from {sorted(PRESET_NAMES)} (default: auto)")
    p.add_argument("--grid-db", default=None,
                   help="comma-separated SNR grid in dB, P = 10**(dB/10)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--config", default=None, help="JSON config file; flags override its values")


def _config_from_args(args, alpha1, alpha2) -> ExperimentConfig:
    given = {"alpha1": alpha1, "alpha2": alpha2}
    if args.schemes is not None:
        given["schemes"] = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if args.grid_db is not None:
        given["p_grid_db"] = [float(x) for x in args.grid_db.split(",")]
    for key, value in (("n_trials", args.trials), ("n_cycles", args.cycles), ("seed", args.seed),
                       ("tolerance", args.tolerance), ("output_dir", args.out_dir)):
        if value is not None:
            given[key] = value
    if args.config:
        return ExperimentConfig.from_file(args.config, given)
    return ExperimentConfig.from_dict(given)


def _cmd_region(args) -> int:
    quality = _quality(args)
    if args.out:
        region_export(quality, args.out)
        print(f"wrote {args.out}")
    else:
        json.dump(region_as_dict(dof_region(quality)), sys.stdout, indent=2)
        print()
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args, args.alpha1, args.alpha2)
    report = run(config)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.name}: slope=({r.estimate.slope.d1:.4f}, {r.estimate.slope.d2:.4f}) "
            f"target=({r.target.d1:.4f}, {r.target.d2:.4f}) tol={config.tolerance}"
        )
    print(f"report: {config.output_dir / 'report.json'}")
    return 0


def _parse_quality_list(arg: str) -> list[CsitQuality]:
    out = []
    for item in arg.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            a1, a2 = (float(x) for x in item.split(":"))
        except ValueError:
            raise ValueError(f"--qualities item {item!r} is not of the form alpha1:alpha2") from None
        out.append(CsitQuality(a1, a2))
    return out


def _cmd_sweep(args) -> int:
    qualities = _parse_quality_list(args.qualities)
    base = _config_from_args(args, 0.0, 0.0)
    index = sweep(qualities, base)
    for entry in index["runs"]:
        status = "PASS" if entry.get("passed") else "FAIL"
        extra = f" ({entry['error']})" if "error" in entry else ""
        print(f"{status} alpha=({entry['alpha1']}, {entry['alpha2']}){extra}")
    print(f"index: {base.output_dir / 'index.json'}")
    return 0


def _cmd_validate(args) -> int:
    quality = _quality(args)
    plan = build_preset(args.scheme, quality, args.cycles)
    diags = validate_plan(plan)
    print(f"plan {plan.name} at alpha=({quality.alpha1}, {quality.alpha2}), "
          f"{plan.n_cycles} cycles, predicted DoF ({plan.predicted_dof.d1:.4f}, {plan.predicted_dof.d2:.4f})")
    print(f"channel uses: {plan.channel_uses():g} "
          f"(prologue {plan.prologue_channel_uses:g} + {plan.n_cycles} x {plan.cycle_channel_uses:g})")
    if args.json:
        json.dump(plan_as_dict(plan), sys.stdout, indent=2)
        print()
    else:
        for slot in plan.all_slots():
            print(f"slot {slot.index}:")
            for l in slot.layers:
                power = f"{l.power_coefficient:g}*P^{l.power_exponent:g}"
                if l.power_sub_coefficient:
                    power += f" - {l.power_sub_coefficient:g}*P^{l.power_sub_exponent:g}"
                target = l.precoder.kind if l.precoder.user is None else f"{l.precoder.kind}(user{l.precoder.user})"
                print(f"  {l.id:<16} {l.owner:<7} {target:<13} power {power:<28} prelog {l.encoding_prelog:g}")
        if plan.links:
            print("links:")
            for k in plan.links:
                print(f"  {k.interference_id:<12} observer {k.observer} quant prelog {k.quant_prelog:g} "
                      f"-> {k.retransmit_layer}")
    if diags:
        print("diagnostics:")
        for d in diags:
            print(f"  - {d}")
        return 1
    print("plan valid")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="asymcsit",
        description="DoF region and scheme simulator for the 2-user MISO broadcast channel "
                    "with delayed CSIT and unequal-quality current CSIT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="export the DoF region polygon")
    _add_quality_args(p_region)
    p_region.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p_region.set_defaults(fn=_cmd_region)

    p_run = sub.add_parser("run", help="estimate DoF slopes for one quality pair")
    _add_quality_args(p_run)
    _add_budget_args(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run over a list of quality pairs")
    p_sweep.add_argument("--qualities", required=True,
                         help='comma-separated alpha1:alpha2 pairs, e.g. "0:0.2,0.25:0.45"')
    _add_budget_args(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="print a preset's slot tables and diagnostics")
    _add_quality_args(p_val)
    p_val.add_argument("--scheme", required=True, choices=sorted(PRESET_NAMES))
    p_val.add_argument("--cycles", type=int, default=2)
    p_val.add_argument("--json", action="store_true", help="emit the plan as JSON instead of tables")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
