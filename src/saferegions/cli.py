"""Command-line front end.

Verbs:
    plan           print calibration sizes and certifiability for risk levels
    generate       write the configured datasets as CSV files
    run            full pipeline: train, calibrate, select, evaluate, report
    boundary-grid  export 2-D decision grids of the selected models
    evaluate       recompute test frequencies from a finished run directory

Exit codes: 0 when every requested plan is certified, 1 for argument or
validation errors, 2 when any plan is uncertified (with or without the
--force-uncertified override).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import SafeRegionsError, UncertifiedPlanError
from .pipeline import (
    boundary_grid_rows,
    build_datasets,
    check_plans,
    data_bbox,
    evaluate_saved,
    resolve_plans,
    run_experiment,
    write_csv,
    write_resolved_config,
)
from .scaling import ScalingPlan, check_plan, kappa, min_calibration_size

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, not argparse's default 2 (2 is reserved for
    uncertified plans)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", type=Path, metavar="PATH",
                        help="experiment config file (YAML)")
    shared.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    shared.add_argument("--out", type=Path, metavar="DIR",
                        help="override the config output directory")
    shared.add_argument("--force-uncertified", action="store_true",
                        help="proceed even when a plan cannot be certified")

    parser = _Parser(prog="saferegions",
                     description="Train scalable classifiers and calibrate "
                                 "probabilistic safety regions.")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    plan = sub.add_parser("plan", parents=[shared],
                          help="print calibration sizes for given risk levels")
    plan.add_argument("--eps", type=float, nargs="+", metavar="E",
                      help="risk levels (default: from --config)")
    plan.add_argument("--delta", type=float, metavar="D",
                      help="confidence target (default: from --config, else 1e-6)")
    plan.add_argument("--beta", type=float, metavar="B",
                      help="discarding split in (0, 1) (default: from --config, else 0.5)")
    plan.add_argument("--n-c", type=int, metavar="N", dest="n_c",
                      help="check this calibration size instead of the formula sizes")

    sub.add_parser("generate", parents=[shared],
                   help="write the configured datasets as CSV files")
    sub.add_parser("run", parents=[shared],
                   help="run the full train/calibrate/evaluate pipeline")
    grid = sub.add_parser("boundary-grid", parents=[shared],
                          help="export 2-D decision grids for the selected models")
    grid.add_argument("--resolution", type=int, metavar="R",
                      help="grid points per axis (default: from --config)")
    sub.add_parser("evaluate", parents=[shared],
                   help="recompute test frequencies from a finished run directory")
    return parser


def _load_experiment(args) -> ExperimentConfig:
    if args.config is None:
        raise SafeRegionsError("--config is required for this command")
    return load_config(args.config).with_overrides(
        seed=args.seed, output_dir=None if args.out is None else str(args.out))


def cmd_plan(args) -> int:
    if args.eps is None and args.config is None:
        raise SafeRegionsError("plan needs --eps or --config")
    config = ExperimentConfig() if args.config is None else load_config(args.config)
    given = {"eps": args.eps, "delta": args.delta, "beta": args.beta, "n_c": args.n_c}
    risk = replace(config.risk, **{k: v for k, v in given.items() if v is not None})
    config = replace(config, risk=risk)

    # every plan is built, and so every value checked, before anything prints
    plans = resolve_plans(config)
    formula_sized = risk.n_c is None and config.data.generator != "csv"
    kappa_exact = kappa(risk.beta)
    kappa_rounded = math.ceil(kappa_exact * 100.0) / 100.0
    rows = []
    for eps, plan in plans.items():
        sizes = [("given n_c", plan)]
        if formula_sized:
            rounded = max(1, round((kappa_rounded / eps) * math.log(1.0 / risk.delta)))
            sizes = [(f"exact kappa={kappa_exact!r}", plan),
                     (f"rounded kappa={kappa_rounded!r}",
                      ScalingPlan.from_risk(eps, risk.delta, risk.beta, n_c=rounded))]
        rows.append((eps, sizes))
    all_certified = True
    for eps, sizes in rows:
        print(f"eps={eps!r} delta={risk.delta!r} beta={risk.beta!r}")
        for label, plan in sizes:
            verdict = check_plan(plan)
            state = "certified" if verdict.certified else "NOT certified"
            print(f"  {label}: n_c={plan.n_c} r={plan.r} tail={verdict.tail!r} ({state})")
            if not verdict.certified:
                all_certified = False
                print(f"  minimal certifiable n_c at these levels: "
                      f"{min_calibration_size(eps, risk.delta, risk.beta)}")
    return EXIT_OK if all_certified else EXIT_UNCERTIFIED


def cmd_generate(args) -> int:
    config = _load_experiment(args)
    if config.data.generator == "csv":
        raise SafeRegionsError("the csv generator reads existing files; "
                               "nothing to generate")
    plans = resolve_plans(config)
    certified = check_plans(plans, args.force_uncertified)
    train, calibs, test = build_datasets(config, plans)
    out = write_resolved_config(config).parent
    train.to_csv(out / "train.csv")
    print(f"wrote {out / 'train.csv'} ({train.n_samples} rows)")
    for eps, calib in calibs.items():
        path = out / f"calib_eps_{repr(float(eps))}.csv"
        calib.to_csv(path)
        print(f"wrote {path} ({calib.n_samples} rows)")
    test.to_csv(out / "test.csv")
    print(f"wrote {out / 'test.csv'} ({test.n_samples} rows)")
    return EXIT_OK if certified else EXIT_UNCERTIFIED


def cmd_run(args) -> int:
    config = _load_experiment(args)
    result = run_experiment(config, force_uncertified=args.force_uncertified)
    for (variant, eps), family_result in result.family_results.items():
        member = family_result.selected
        cert = member.certificate
        print(f"{variant} eps={eps!r}: selected member {member.index} "
              f"(eta={member.hyperparameters.eta!r}, tau={member.hyperparameters.tau!r}), "
              f"rho_eps={cert.reported_rho}, confidence={cert.confidence!r}, "
              f"certified={'yes' if cert.certified else 'no'}")
    print(f"report: {result.files['report']}")
    return EXIT_OK if result.all_certified else EXIT_UNCERTIFIED


def cmd_boundary_grid(args) -> int:
    config = _load_experiment(args)
    result = run_experiment(config, force_uncertified=args.force_uncertified,
                            write=False, evaluate=False)
    train = result.train_original
    if train.dim != 2:
        raise SafeRegionsError(f"boundary grids need 2-D data, got {train.dim} features")
    resolution = args.resolution or config.grid.resolution
    bbox = config.grid.bbox or data_bbox(train, config.grid.margin)
    out = write_resolved_config(config).parent
    for (variant, eps), family_result in result.family_results.items():
        member = family_result.selected
        rows = boundary_grid_rows(member.model, member.certificate, bbox,
                                  resolution, scaler=result.scaler)
        path = out / f"grid_{variant}_eps_{repr(float(eps))}.csv"
        write_csv(path, ["x1", "x2", "f_value", "inside"], rows)
        print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK if result.all_certified else EXIT_UNCERTIFIED


def cmd_evaluate(args) -> int:
    run_dir = args.out
    if run_dir is None and args.config is not None:
        run_dir = Path(load_config(args.config).output_dir)
    if run_dir is None:
        raise SafeRegionsError("evaluate needs --out (a finished run directory)")
    rows = evaluate_saved(run_dir)
    certified = True
    for row in rows:
        print(f"{row[0]} eps={row[4]!r}: joint_freq={row[9]!r} "
              f"accuracy_rho0={row[11]!r} certified={'yes' if row[7] else 'no'}")
        certified &= bool(row[7])
    print(f"evaluation: {Path(run_dir) / 'evaluation.csv'}")
    return EXIT_OK if certified else EXIT_UNCERTIFIED


_COMMANDS = {
    "plan": cmd_plan,
    "generate": cmd_generate,
    "run": cmd_run,
    "boundary-grid": cmd_boundary_grid,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except UncertifiedPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (SafeRegionsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
