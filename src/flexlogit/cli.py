"""Command-line front end.

Subcommands mirror the library: ``estimate``, ``lrtest``, ``bootstrap``,
``crossval``, ``simulate``, ``policy-sweep``, and ``policy-target``. Every
run writes its tables as CSV plus a ``manifest.json`` recording the command,
arguments, seed, and output files; given the same inputs and seed the output
bytes are identical across runs. Each subcommand declares only the flags it
reads: ``--threads`` belongs to ``estimate``, ``bootstrap`` and ``crossval``,
the commands that refit in parallel, and ``simulate`` takes only
``--config``, ``--out`` and ``--seed``. ``estimate --bootstrap`` and
``bootstrap`` write the same BCa interval table. Exit codes: 0 success, 2
configuration error, 3 data error, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ChoiceDataset,
    CovariateSpec,
    SchemaMapping,
    SimulationConfig,
    load_csv,
    simulate,
    write_csv,
)
from .errors import (
    DataError,
    EmptySelection,
    FlexLogitError,
    InvalidParams,
    KTooLarge,
    SpecError,
)
from .estimation import FitOptions, fit
from .inference import bca_interval, bootstrap, lr_test
from .likelihood import ModelSpec, NaturalParams, Packing
from .policy import Scenario, TargetingProblem, select_targets, sweep
from .validation import cross_validate

CONFIG_EXIT = 2
DATA_EXIT = 3
ESTIMATION_EXIT = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_manifest(out: Path, command: str, args: dict, outputs: list[str]) -> None:
    plain = {
        k: v
        for k, v in args.items()
        if k != "func" and isinstance(v, (str, int, float, bool, list, type(None)))
    }
    manifest = {
        "command": command,
        "version": __version__,
        "args": {k: v for k, v in sorted(plain.items())},
        "seed": args.get("seed"),
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_data(args) -> ChoiceDataset:
    schema = None
    if args.schema:
        with open(args.schema) as fh:
            schema = SchemaMapping.from_dict(json.load(fh))
    return load_csv(args.data, schema)


def _load_options(args) -> FitOptions:
    kwargs = {}
    if args.options:
        with open(args.options) as fh:
            kwargs = json.load(fh)
    if args.weights:
        kwargs["use_weights"] = True
    if args.seed is not None:
        kwargs.setdefault("seed", args.seed)
    return FitOptions.from_dict(kwargs)


def _stars(lo95, hi95, lo99, hi99) -> str:
    if lo99 > 0 or hi99 < 0:
        return "**"
    if lo95 > 0 or hi95 < 0:
        return "*"
    return ""


def _write_intervals(path: Path, res, run) -> list[str]:
    """Write the estimates with their 95% and 99% BCa endpoints and stars;
    returns the stars."""
    iv95 = bca_interval(run, res.packed, 0.95)
    iv99 = bca_interval(run, res.packed, 0.99)
    rows = [
        [n, float(res.packed[m]), float(iv95[m, 0]), float(iv95[m, 1]),
         float(iv99[m, 0]), float(iv99[m, 1]),
         _stars(iv95[m, 0], iv95[m, 1], iv99[m, 0], iv99[m, 1])]
        for m, n in enumerate(res.param_names)
    ]
    _write_table(path, ["parameter", "estimate", "lo95", "hi95", "lo99", "hi99", "stars"],
                 rows)
    return [r[-1] for r in rows]


def _print_summary(names, estimates, stars=None) -> None:
    width = max(len(n) for n in names)
    print(f"{'parameter':<{width}}  {'estimate':>14}  ")
    for i, n in enumerate(names):
        s = stars[i] if stars else ""
        print(f"{n:<{width}}  {estimates[i]:>14.6f}  {s}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_estimate(args) -> int:
    data = _load_data(args)
    spec = ModelSpec.from_json(args.spec)
    opts = _load_options(args)
    out = _out_dir(args)
    res = fit(data, spec, options=opts)
    outputs = ["params.csv", "ll_by_alt.csv"]

    if args.bootstrap:
        run = bootstrap(
            data, spec, B=args.bootstrap, seed=args.seed or 0,
            options=opts, threads=args.threads,
        )
        stars = _write_intervals(out / "params.csv", res, run)
    else:
        stars = None
        _write_table(out / "params.csv", ["parameter", "estimate"],
                     [[n, float(res.packed[m])] for m, n in enumerate(res.param_names)])

    _write_table(out / "ll_by_alt.csv", ["alt_id", "ll"],
                 [[a, res.ll_by_alt[a]] for a in sorted(res.ll_by_alt)])
    _write_manifest(out, "estimate", vars(args) | {"status": res.status}, outputs)
    _print_summary(res.param_names, res.packed, stars)
    print(f"log-likelihood {res.ll:.6f}  status {res.status} "
          f"({res.optimizer_used}, {res.iterations} iterations)")
    return 0


def cmd_lrtest(args) -> int:
    data = _load_data(args)
    full_spec = ModelSpec.from_json(args.full)
    restr_spec = ModelSpec.from_json(args.restricted)
    opts = _load_options(args)
    full = fit(data, full_spec, options=opts)
    restr = fit(data, restr_spec, options=opts)
    pk_full = Packing(full_spec, data.alternatives)
    pk_restr = Packing(restr_spec, data.alternatives)
    df = args.df if args.df is not None else pk_full.dim - pk_restr.dim
    res = lr_test(full, restr, df)
    print(f"LR stat {res.stat:.6f}  df {res.df}  p-value {res.p_value:.6g}")
    if args.out:
        out = _out_dir(args)
        _write_table(out / "lrtest.csv", ["stat", "df", "p_value"],
                     [[res.stat, res.df, res.p_value]])
        _write_manifest(out, "lrtest", vars(args), ["lrtest.csv"])
    return 0


def cmd_bootstrap(args) -> int:
    data = _load_data(args)
    spec = ModelSpec.from_json(args.spec)
    opts = _load_options(args)
    out = _out_dir(args)
    res = fit(data, spec, options=opts)
    run = bootstrap(
        data, spec, B=args.B, seed=args.seed or 0,
        stratified=not args.unstratified, options=opts, threads=args.threads,
    )
    stars = _write_intervals(out / "intervals.csv", res, run)
    _write_manifest(out, "bootstrap", vars(args) | {"failures": run.failures},
                    ["intervals.csv"])
    _print_summary(res.param_names, res.packed, stars)
    print(f"{run.n_replicates} replicates, {run.failures} failures "
          f"({'stratified' if run.stratified else 'unstratified'})")
    return 0


def cmd_crossval(args) -> int:
    data = _load_data(args)
    specs = {}
    for item in args.spec:
        if "=" in item:
            label, path = item.split("=", 1)
        else:
            label, path = Path(item).stem, item
        specs[label] = ModelSpec.from_json(path)
    opts = _load_options(args)
    out = _out_dir(args)
    report = cross_validate(
        data, specs, k=args.k, seed=args.seed or 0, options=opts,
        threads=args.threads,
    )
    rows = [
        [r["spec"], r["fold"], r["train_ll"], r["test_ll"], int(r["converged"])]
        for r in report.rows
    ]
    for label in specs:
        rows.append([label, "mean", "", report.mean_test_ll[label], ""])
    _write_table(out / "cv.csv", ["spec", "fold", "train_ll", "test_ll", "converged"], rows)
    _write_manifest(out, "crossval", vars(args), ["cv.csv"])
    for label in report.ranking():
        print(f"{label}: mean held-out ll {report.mean_test_ll[label]:.6f} "
              f"({report.failures[label]} failed folds)")
    return 0


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg_raw = json.load(fh)
    spec = ModelSpec.from_dict(cfg_raw["spec"])
    tp = cfg_raw["true_params"]
    gamma = tp.get("gamma")
    params = NaturalParams(
        beta=np.asarray(tp["beta"], dtype=float),
        tau={int(a): float(v) for a, v in tp.get("tau", {}).items()},
        gamma=None if gamma is None else {
            int(a): (tuple(v) if isinstance(v, (list, tuple)) else float(v))
            for a, v in gamma.items()
        },
    )
    seed = args.seed if args.seed is not None else int(cfg_raw.get("seed", 0))
    config = SimulationConfig(
        spec=spec,
        true_params=params,
        alternatives=tuple(int(a) for a in cfg_raw["alternatives"]),
        n_obs=int(cfg_raw["n_obs"]),
        covariates=tuple(
            CovariateSpec(c["name"], float(c["low"]), float(c["high"]))
            for c in cfg_raw["covariates"]
        ),
        seed=seed,
    )
    out = _out_dir(args)
    data = simulate(config)
    write_csv(data, out / "data.csv")
    _write_manifest(out, "simulate", vars(args) | {"seed": seed}, ["data.csv"])
    print(f"wrote {data.n_obs} observations x {len(data.alternatives)} alternatives")
    return 0


def _params_from_csv(path, packing: Packing) -> NaturalParams:
    by_name = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_name[row["parameter"]] = float(row["estimate"])
    names = packing.names()
    missing = [n for n in names if n not in by_name]
    if missing:
        raise InvalidParams(f"params file lacks entries for {missing}")
    return packing.unpack(np.array([by_name[n] for n in names]))


def cmd_policy_sweep(args) -> int:
    data = _load_data(args)
    spec = ModelSpec.from_json(args.spec)
    scenario = Scenario.from_json(args.scenario)
    opts = _load_options(args)
    packing = Packing(spec, data.alternatives)
    if args.params:
        params = _params_from_csv(args.params, packing)
    else:
        params = fit(data, spec, options=opts).params
    out = _out_dir(args)
    rows = []
    for point in sweep(data, spec, params, scenario):
        for a, (count, share) in sorted(point["by_alt"].items()):
            rows.append([point["value"], a, count, share])
    _write_table(out / "sweep.csv",
                 [scenario.sweep_parameter or "value", "alt_id", "expected_count", "share"],
                 rows)
    _write_manifest(out, "policy-sweep", vars(args), ["sweep.csv"])
    print(f"swept {scenario.sweep_parameter} over {len(scenario.sweep_grid)} points")
    return 0


def cmd_policy_target(args) -> int:
    data = _load_data(args)
    sel_spec = ModelSpec.from_json(args.selection_spec)
    truth_spec = ModelSpec.from_json(args.truth_spec)
    opts = _load_options(args)
    selection = fit(data, sel_spec, options=opts)
    truth = (
        selection
        if args.truth_spec == args.selection_spec
        else fit(data, truth_spec, options=opts)
    )
    problem = TargetingProblem(
        data=data,
        selection_model=selection,
        truth_model=truth,
        target_alt=args.target_alt,
        cost_column=args.cost_column,
        related_alts=tuple(args.related_alts or ()),
        cost_multiplier=args.multiplier,
    )
    out = _out_dir(args)
    rows = []
    for budget in args.budgets:
        report = select_targets(problem, budget, args.skip_unaffordable)
        chosen = set(int(o) for o in report.selected_obs)
        for rank, o in enumerate(report.ranked_obs):
            rows.append([budget, int(o), rank,
                         float(report.gain_selection[rank]),
                         float(report.gain_truth[rank]),
                         float(report.costs[rank]),
                         int(int(o) in chosen)])
        print(f"budget {budget}: {len(report.selected_obs)} selected, "
              f"cost {report.total_cost:.2f}, "
              f"truth gain {report.total_gain_truth:.4f}, "
              f"efficiency {report.efficiency:.2f} per unit gain")
    _write_table(out / "targeting.csv",
                 ["budget", "obs_id", "rank", "gain_selection", "gain_truth",
                  "cost", "selected"],
                 rows)
    _write_manifest(out, "policy-target", vars(args), ["targeting.csv"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flexlogit", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, threads=False):
        sp.add_argument("--data", required=True, help="long-format CSV")
        sp.add_argument("--schema", help="JSON column mapping")
        sp.add_argument("--options", help="JSON fit options")
        sp.add_argument("--seed", type=int, default=None)
        if threads:
            sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--weights", action="store_true",
                        help="weight the likelihood by the weight column")

    sp = sub.add_parser("estimate", help="fit one model")
    common(sp, threads=True)
    sp.add_argument("--spec", required=True, help="model spec JSON")
    sp.add_argument("--out", required=True)
    sp.add_argument("--bootstrap", type=int, default=0, metavar="B",
                    help="add BCa intervals from B bootstrap replicates")
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("lrtest", help="likelihood-ratio test of nested specs")
    common(sp)
    sp.add_argument("--full", required=True)
    sp.add_argument("--restricted", required=True)
    sp.add_argument("--df", type=int, default=None,
                    help="override the packed-dimension difference")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lrtest)

    sp = sub.add_parser("bootstrap", help="BCa intervals for one model")
    common(sp, threads=True)
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--B", type=int, default=1000)
    sp.add_argument("--unstratified", action="store_true")
    sp.set_defaults(func=cmd_bootstrap)

    sp = sub.add_parser("crossval", help="stratified k-fold comparison")
    common(sp, threads=True)
    sp.add_argument("--spec", required=True, action="append",
                    help="label=spec.json (repeatable)")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_crossval)

    sp = sub.add_parser("simulate", help="draw a synthetic dataset")
    sp.add_argument("--config", required=True, help="simulation JSON")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("policy-sweep", help="expected shares over a parameter grid")
    common(sp)
    sp.add_argument("--spec", required=True)
    sp.add_argument("--scenario", required=True, help="scenario JSON")
    sp.add_argument("--params", help="params.csv from a previous estimate run")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_policy_sweep)

    sp = sub.add_parser("policy-target", help="budgeted incentive targeting")
    common(sp)
    sp.add_argument("--selection-spec", required=True)
    sp.add_argument("--truth-spec", required=True)
    sp.add_argument("--target-alt", type=int, required=True)
    sp.add_argument("--cost-column", required=True)
    sp.add_argument("--related-alts", type=lambda s: [int(x) for x in s.split(",")],
                    default=None)
    sp.add_argument("--budgets", type=lambda s: [float(x) for x in s.split(",")],
                    required=True)
    sp.add_argument("--multiplier", type=float, default=22.0)
    sp.add_argument("--skip-unaffordable", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_policy_target)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as e:  # before ValueError: EmptyDataset is both
        print(f"data error: {e}", file=sys.stderr)
        return DATA_EXIT
    except (
        FileNotFoundError,
        json.JSONDecodeError,
        SpecError,
        InvalidParams,
        EmptySelection,
        KTooLarge,
        ValueError,
        KeyError,
    ) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return CONFIG_EXIT
    except FlexLogitError as e:
        print(f"estimation error: {e}", file=sys.stderr)
        return ESTIMATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
