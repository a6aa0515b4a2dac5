"""Drives ``flexlogit.cli.main`` end to end with argv lists.

Everything runs in-process against scratch directories; nothing shells out.
Contract under test: exit 0 on success with the documented CSV plus
manifest.json outputs, exit 2 for configuration problems, 3 for data
problems, 4 for estimation failures, and byte-identical outputs when inputs
and seed are unchanged.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flexlogit
from flexlogit import cli, inference
from flexlogit.cli import build_parser, main
from flexlogit.data import SchemaMapping, load_csv, write_csv
from flexlogit.estimation import fd_hessian, fit
from flexlogit.inference import chi2_sf
from flexlogit.likelihood import Design, ModelSpec, build_design
from flexlogit.policy import TargetingProblem, select_targets

import csv_oracle
from conftest import toy_dataset


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One shared workspace: a small dataset plus the spec/scenario files."""
    root = tmp_path_factory.mktemp("cli")
    write_csv(toy_dataset(n_obs=50, seed=3), root / "data.csv")
    (root / "schema.json").write_text(json.dumps({"weight": "weight"}))

    def coef(col):
        return {"name": f"b_{col}", "column": col, "alts": "all"}

    specs = {
        "mnl.json": {"transform": "mnl", "ref_alt": 3,
                     "coefficients": [coef("time"), coef("cost")]},
        "time_only.json": {"transform": "mnl", "ref_alt": 3,
                           "coefficients": [coef("time")]},
        "exp.json": {"transform": "exponential", "ref_alt": 3,
                     "coefficients": [coef("time"), coef("cost")]},
    }
    for name, payload in specs.items():
        (root / name).write_text(json.dumps(payload))
    (root / "scenario.json").write_text(json.dumps({
        "name": "toll",
        "edits": [{"column": "cost", "op": "add", "amount": "toll",
                   "where": {"alt_ids": [1]}}],
        "sweep": {"parameter": "toll", "grid": [0.0, 0.5, 1.0]},
    }))
    return root


def base(ws):
    return ["--data", str(ws / "data.csv"), "--schema", str(ws / "schema.json")]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# global flags and argparse plumbing
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == flexlogit.__version__


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--out", "x"])
    assert exc.value.code == 2


DATA_FLAGS = {"--data", "--schema", "--options", "--seed", "--weights"}
CLI_SURFACE = {
    "estimate": DATA_FLAGS | {"--threads", "--spec", "--out", "--bootstrap"},
    "lrtest": DATA_FLAGS | {"--full", "--restricted", "--df", "--out"},
    "bootstrap": DATA_FLAGS | {"--threads", "--spec", "--out", "--B",
                               "--unstratified"},
    "crossval": DATA_FLAGS | {"--threads", "--spec", "--k", "--out"},
    "simulate": {"--config", "--out", "--seed"},
    "policy-sweep": DATA_FLAGS | {"--spec", "--scenario", "--params", "--out"},
    "policy-target": DATA_FLAGS | {
        "--selection-spec", "--truth-spec", "--target-alt", "--cost-column",
        "--related-alts", "--budgets", "--multiplier", "--skip-unaffordable",
        "--out"},
}


def test_cli_surface_is_pinned():
    # every flag a subcommand declares is one it reads; a new flag must be
    # added to this table on purpose
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {o for a in sp._actions if not isinstance(a, argparse._HelpAction)
               for o in a.option_strings}
        for name, sp in sub.choices.items()
    }
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("command,flag", [
    ("lrtest", "--threads"), ("policy-sweep", "--threads"),
    ("policy-target", "--threads"), ("simulate", "--options"),
    ("simulate", "--threads"), ("simulate", "--weights"),
])
def test_unread_flag_exits_2(ws, target_ws, tmp_path, capsys, command, flag):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    spec, tspec = str(ws / "mnl.json"), str(target_ws / "mnl.json")
    out = ["--out", str(tmp_path / "o")]
    valid = {
        "lrtest": [*base(ws), "--full", spec,
                   "--restricted", str(ws / "time_only.json")],
        "policy-sweep": [*base(ws), "--spec", spec,
                         "--scenario", str(ws / "scenario.json"), *out],
        "policy-target": ["--data", str(target_ws / "data.csv"),
                          "--selection-spec", tspec, "--truth-spec", tspec,
                          "--target-alt", "1", "--cost-column", "cost",
                          "--budgets", "15", "--multiplier", "1.0", *out],
        "simulate": ["--config", str(cfg), *out],
    }[command]
    value = [] if flag == "--weights" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([command, *valid, flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_writes_tables_and_manifest(ws, tmp_path, capsys):
    out = tmp_path / "est"
    rc = main(["estimate", *base(ws), "--spec", str(ws / "mnl.json"),
               "--out", str(out)])
    assert rc == 0

    rows = read_rows(out / "params.csv")
    assert [r["parameter"] for r in rows] == [
        "beta:b_time", "beta:b_cost", "tau:1", "tau:2"]
    assert all(np.isfinite(float(r["estimate"])) for r in rows)

    ll_rows = read_rows(out / "ll_by_alt.csv")
    assert [int(r["alt_id"]) for r in ll_rows] == [1, 2, 3]
    total = sum(float(r["ll"]) for r in ll_rows)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["version"] == flexlogit.__version__
    assert manifest["outputs"] == ["ll_by_alt.csv", "params.csv"]
    assert manifest["args"]["status"] == "converged"
    assert "func" not in manifest["args"]

    text = capsys.readouterr().out
    assert "status converged" in text
    printed_ll = float(text.split("log-likelihood")[1].split()[0])
    assert printed_ll == pytest.approx(total, abs=1e-5)


def test_estimate_reruns_are_byte_identical(ws, tmp_path):
    args = ["estimate", *base(ws), "--spec", str(ws / "mnl.json")]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    for name in ("params.csv", "ll_by_alt.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1["args"].pop("out"), m2["args"].pop("out")
    assert m1 == m2


def test_estimate_with_bootstrap_adds_interval_columns(ws, tmp_path):
    out = tmp_path / "estb"
    rc = main(["estimate", *base(ws), "--seed", "5",
               "--spec", str(ws / "mnl.json"), "--out", str(out),
               "--bootstrap", "8"])
    assert rc == 0
    rows = read_rows(out / "params.csv")
    assert set(rows[0]) == {"parameter", "estimate", "lo95", "hi95",
                            "lo99", "hi99", "stars"}
    for r in rows:
        lo95, hi95 = float(r["lo95"]), float(r["hi95"])
        lo99, hi99 = float(r["lo99"]), float(r["hi99"])
        assert lo95 <= hi95 and lo99 <= hi99
        assert lo99 <= lo95 and hi95 <= hi99
        expected = ("**" if lo99 > 0 or hi99 < 0
                    else "*" if lo95 > 0 or hi95 < 0 else "")
        assert r["stars"] == expected


def test_estimate_bootstrap_table_equals_bootstrap_command(ws, tmp_path):
    est, boot = tmp_path / "est", tmp_path / "boot"
    common = [*base(ws), "--spec", str(ws / "mnl.json"), "--seed", "3"]
    assert main(["estimate", *common, "--bootstrap", "8", "--out", str(est)]) == 0
    assert main(["bootstrap", *common, "--B", "8", "--out", str(boot)]) == 0
    assert (est / "params.csv").read_bytes() == (boot / "intervals.csv").read_bytes()


def test_bootstrap_commands_fit_the_full_sample_once(ws, tmp_path, monkeypatch):
    spec = ModelSpec.from_json(ws / "mnl.json")
    data = load_csv(ws / "data.csv", SchemaMapping.from_dict({"weight": "weight"}))
    full_X = build_design(data, spec).X
    full_fits = []

    def counting(real):
        def wrapper(sample, spec, *args, **kwargs):
            X = sample.X if isinstance(sample, Design) else build_design(sample, spec).X
            if X.shape == full_X.shape and np.array_equal(X, full_X):
                full_fits.append(sample)
            return real(sample, spec, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "fit", counting(cli.fit))
    monkeypatch.setattr(inference, "fit", counting(inference.fit))
    common = [*base(ws), "--spec", str(ws / "mnl.json"), "--seed", "3"]
    plain, est, boot = tmp_path / "plain", tmp_path / "est", tmp_path / "boot"
    assert main(["estimate", *common, "--out", str(plain)]) == 0
    assert len(full_fits) == 1
    assert main(["estimate", *common, "--bootstrap", "3", "--out", str(est)]) == 0
    assert len(full_fits) == 2
    assert main(["bootstrap", *common, "--B", "3", "--out", str(boot)]) == 0
    assert len(full_fits) == 3
    assert (est / "params.csv").read_bytes() == (boot / "intervals.csv").read_bytes()
    # the bootstrap's full-sample fit is the one a plain estimate makes
    assert (est / "ll_by_alt.csv").read_bytes() == (plain / "ll_by_alt.csv").read_bytes()
    point = lambda out, name: [(r["parameter"], r["estimate"])
                               for r in read_rows(out / name)]
    assert point(est, "params.csv") == point(plain, "params.csv")


# ---------------------------------------------------------------------------
# lrtest
# ---------------------------------------------------------------------------


def test_lrtest_prints_and_writes(ws, tmp_path, capsys):
    out = tmp_path / "lr"
    rc = main(["lrtest", *base(ws), "--full", str(ws / "mnl.json"),
               "--restricted", str(ws / "time_only.json"), "--out", str(out)])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("LR stat ")][0]
    row, = read_rows(out / "lrtest.csv")
    stat, df, p = float(row["stat"]), int(row["df"]), float(row["p_value"])
    assert df == 1  # one extra coefficient in the full model
    assert stat >= 0.0
    assert p == pytest.approx(chi2_sf(stat, 1), rel=1e-12)
    assert f"df {df}" in line
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["lrtest.csv"]


def test_lrtest_df_override(ws, capsys):
    rc = main(["lrtest", *base(ws), "--full", str(ws / "mnl.json"),
               "--restricted", str(ws / "time_only.json"), "--df", "3"])
    assert rc == 0
    assert "df 3 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_writes_intervals(ws, tmp_path, capsys):
    out = tmp_path / "boot"
    rc = main(["bootstrap", *base(ws), "--spec", str(ws / "mnl.json"),
               "--out", str(out), "--B", "8", "--seed", "5"])
    assert rc == 0
    rows = read_rows(out / "intervals.csv")
    assert len(rows) == 4
    assert all(r["stars"] in ("", "*", "**") for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["B"] == 8
    assert manifest["args"]["failures"] == 0
    assert manifest["seed"] == 5
    assert "8 replicates, 0 failures (stratified)" in capsys.readouterr().out


def test_bootstrap_without_replicates_exits_2(ws, tmp_path, capsys):
    rc = main(["bootstrap", *base(ws), "--spec", str(ws / "mnl.json"),
               "--out", str(tmp_path / "boot"), "--B", "0"])
    assert rc == 2
    assert "configuration error: B must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# crossval
# ---------------------------------------------------------------------------


def test_crossval_reports_folds_and_means(ws, tmp_path, capsys):
    out = tmp_path / "cv"
    rc = main(["crossval", *base(ws),
               "--spec", f"mnl={ws / 'mnl.json'}",
               "--spec", f"tonly={ws / 'time_only.json'}",
               "--k", "3", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "cv.csv")
    fold_rows = [r for r in rows if r["fold"] != "mean"]
    mean_rows = {r["spec"]: float(r["test_ll"]) for r in rows if r["fold"] == "mean"}
    assert len(fold_rows) == 6 and set(mean_rows) == {"mnl", "tonly"}
    for label in mean_rows:
        fold_lls = [float(r["test_ll"]) for r in fold_rows if r["spec"] == label]
        assert len(fold_lls) == 3
        assert mean_rows[label] == pytest.approx(np.mean(fold_lls), rel=1e-12)

    # stdout ranks by mean held-out ll, best first
    lines = [l for l in capsys.readouterr().out.splitlines()
             if "mean held-out ll" in l]
    assert len(lines) == 2
    first = lines[0].split(":")[0]
    assert mean_rows[first] == max(mean_rows.values())


# ---------------------------------------------------------------------------
# simulate, and the simulate -> estimate pipeline
# ---------------------------------------------------------------------------


SIM_CONFIG = {
    "spec": {"transform": "mnl", "ref_alt": 3, "coefficients": [
        {"name": "b_time", "column": "time", "alts": "all"},
        {"name": "b_cost", "column": "cost", "alts": "all"}]},
    "true_params": {"beta": [-1.0, 0.8], "tau": {"1": 0.5, "2": -0.3}},
    "alternatives": [1, 2, 3],
    "n_obs": 400,
    "covariates": [{"name": "time", "low": -2.0, "high": 2.0},
                   {"name": "cost", "low": -2.0, "high": 2.0}],
    "seed": 9,
}


def test_simulate_deterministic_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out1, out2, out3 = (tmp_path / d for d in ("s1", "s2", "s3"))
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out3),
                 "--seed", "99"]) == 0
    assert "wrote 400 observations x 3 alternatives" in capsys.readouterr().out
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
    assert (out1 / "data.csv").read_bytes() != (out3 / "data.csv").read_bytes()
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 9
    assert json.loads((out3 / "manifest.json").read_text())["seed"] == 99

    data = load_csv(out1 / "data.csv")
    assert data.n_obs == 400 and data.alternatives == (1, 2, 3)


# data.csv of SIM_CONFIG at n_obs = 3, as the row-wise csv.writer loop wrote it
SIM_3_OBS_BYTES = (
    b"obs_id,alt_id,chosen,weight,time,cost\r\n"
    b"0,1,1,1.0,-0.935640559194947,-0.2030489257184085\r\n"
    b"0,2,0,1.0,1.4849598362084064,-0.9668889534691982\r\n"
    b"0,3,0,1.0,-0.16696191706109031,-0.3041450497448599\r\n"
    b"1,1,0,1.0,-0.7808617105969353,-0.9025191706518365\r\n"
    b"1,2,1,1.0,-0.5672730588424959,1.3793750486787557\r\n"
    b"1,3,0,1.0,0.8763223012508239,0.289804216209018\r\n"
    b"2,1,0,1.0,1.4950576980461103,-0.9597848420734039\r\n"
    b"2,2,0,1.0,1.536967081000408,-1.0884558785473395\r\n"
    b"2,3,1,1.0,-1.1378070079681692,1.5062562124134868\r\n"
)


def test_simulate_bytes_are_unchanged(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(dict(SIM_CONFIG, n_obs=3)))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "data.csv").read_bytes() == SIM_3_OBS_BYTES


@pytest.mark.parametrize("edit", [
    {"spec": dict(SIM_CONFIG["spec"], transform="scobit"),
     "true_params": dict(SIM_CONFIG["true_params"],
                         gamma={"1": -1.0, "2": 1.0, "3": 0.5})},
    {"spec": dict(SIM_CONFIG["spec"], ref_alt=4)},
], ids=["scobit-negative-shape", "ref-alt"])
def test_simulate_bad_true_params_exit_2(tmp_path, capsys, edit):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(dict(SIM_CONFIG, **edit)))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "s" / "data.csv").exists()


def test_simulate_then_estimate_recovers_truth(ws, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    sim_out, est_out = tmp_path / "sim", tmp_path / "est"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    assert main(["estimate", "--data", str(sim_out / "data.csv"),
                 "--spec", str(ws / "mnl.json"), "--out", str(est_out)]) == 0
    est = {r["parameter"]: float(r["estimate"])
           for r in read_rows(est_out / "params.csv")}
    truth = {"beta:b_time": -1.0, "beta:b_cost": 0.8, "tau:1": 0.5, "tau:2": -0.3}
    for name, v in truth.items():
        assert est[name] == pytest.approx(v, abs=0.35)


# ---------------------------------------------------------------------------
# policy-sweep
# ---------------------------------------------------------------------------


def test_policy_sweep_from_saved_params(ws, tmp_path):
    est_out, sweep_out = tmp_path / "est", tmp_path / "sweep"
    assert main(["estimate", *base(ws), "--spec", str(ws / "mnl.json"),
                 "--out", str(est_out)]) == 0
    rc = main(["policy-sweep", *base(ws), "--spec", str(ws / "mnl.json"),
               "--scenario", str(ws / "scenario.json"),
               "--params", str(est_out / "params.csv"),
               "--out", str(sweep_out)])
    assert rc == 0
    rows = read_rows(sweep_out / "sweep.csv")
    assert len(rows) == 9  # 3 grid points x 3 alternatives
    assert set(rows[0]) == {"toll", "alt_id", "expected_count", "share"}
    by_point = {}
    for r in rows:
        by_point.setdefault(float(r["toll"]), {})[int(r["alt_id"])] = (
            float(r["expected_count"]), float(r["share"]))
    assert sorted(by_point) == [0.0, 0.5, 1.0]
    for point in by_point.values():
        assert sum(c for c, _ in point.values()) == pytest.approx(50.0, abs=1e-9)
        assert sum(s for _, s in point.values()) == pytest.approx(1.0, abs=1e-12)
    # the tolled alternative's share moves monotonically, in the direction
    # of the fitted cost coefficient's sign
    b_cost = {r["parameter"]: float(r["estimate"])
              for r in read_rows(est_out / "params.csv")}["beta:b_cost"]
    shares = [by_point[t][1][1] for t in (0.0, 0.5, 1.0)]
    if b_cost < 0:
        assert shares[0] > shares[1] > shares[2]
    else:
        assert shares[0] < shares[1] < shares[2]


@pytest.mark.parametrize("amount,rc", [("c", 0), ("1e308 * 1e308 * c", 3)])
def test_policy_sweep_edit_exit_codes(ws, tmp_path, capsys, amount, rc):
    # zeroing a generic covariate everywhere is a valid scenario; an edit
    # that overflows the covariates is a data error
    scenario = tmp_path / "edit.json"
    scenario.write_text(json.dumps({
        "name": "edit",
        "edits": [{"column": "cost", "op": "multiply", "amount": amount}],
        "sweep": {"parameter": "c", "grid": [0.0, 1.0]},
    }))
    got = main(["policy-sweep", *base(ws), "--spec", str(ws / "mnl.json"),
                "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert got == rc
    if rc == 3:
        assert "covariates contain NaN or infinite entries" in capsys.readouterr().err
    else:
        assert len(read_rows(tmp_path / "o" / "sweep.csv")) == 6


# ---------------------------------------------------------------------------
# policy-target
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def target_ws(tmp_path_factory):
    """Separate workspace with strictly positive costs for targeting."""
    root = tmp_path_factory.mktemp("cli_target")
    write_csv(toy_dataset(n_obs=30, seed=11, low=0.5, high=2.5),
              root / "data.csv")
    (root / "mnl.json").write_text(json.dumps({
        "transform": "mnl", "ref_alt": 3,
        "coefficients": [{"name": "b_time", "column": "time", "alts": "all"},
                         {"name": "b_cost", "column": "cost", "alts": "all"}]}))
    return root


def test_policy_target_budgets_and_flags(target_ws, tmp_path, capsys):
    out = tmp_path / "tgt"
    spec = str(target_ws / "mnl.json")
    rc = main(["policy-target", "--data", str(target_ws / "data.csv"),
               "--selection-spec", spec, "--truth-spec", spec,
               "--target-alt", "1", "--cost-column", "cost",
               "--related-alts", "2", "--budgets", "3,15",
               "--multiplier", "1.0", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "targeting.csv")
    assert len(rows) == 60  # 2 budgets x 30 ranked observations
    by_budget = {}
    for r in rows:
        by_budget.setdefault(float(r["budget"]), []).append(r)
    for budget, rs in by_budget.items():
        assert [int(r["rank"]) for r in rs] == list(range(30))
        chosen = [int(r["obs_id"]) for r in rs if r["selected"] == "1"]
        cost = sum(float(r["cost"]) for r in rs if r["selected"] == "1")
        assert chosen and cost <= budget + 1e-9
    # same ranking for both budgets, and selections nest as the budget grows
    ranked = lambda b: [int(r["obs_id"]) for r in by_budget[b]]
    assert ranked(3.0) == ranked(15.0)
    sel = lambda b: {int(r["obs_id"]) for r in by_budget[b] if r["selected"] == "1"}
    assert sel(3.0) <= sel(15.0)
    assert "budget 3.0:" in capsys.readouterr().out


def test_policy_target_table_equals_row_wise_construction(target_ws, tmp_path):
    """targeting.csv, built column-wise from the reports, has the bytes of the
    per-row construction with a set lookup for ``selected``."""
    spec = str(target_ws / "mnl.json")
    args = ["--selection-spec", spec, "--truth-spec", spec, "--target-alt", "1",
            "--cost-column", "cost", "--related-alts", "2", "--multiplier", "1.0"]
    assert main(["policy-target", "--data", str(target_ws / "data.csv"), *args,
                 "--budgets", "15,3", "--out", str(tmp_path / "tgt")]) == 0

    data = load_csv(target_ws / "data.csv")
    model = fit(data, ModelSpec.from_json(spec))
    problem = TargetingProblem(data=data, selection_model=model, truth_model=model,
                               target_alt=1, cost_column="cost", related_alts=(2,),
                               cost_multiplier=1.0)
    budgets = [15.0, 3.0]
    rows = []
    for budget, report in zip(budgets, select_targets(problem, budgets)):
        chosen = set(int(o) for o in report.selected_obs)
        for rank, o in enumerate(report.ranked_obs):
            rows.append([budget, int(o), rank, float(report.gain_selection[rank]),
                         float(report.gain_truth[rank]), float(report.costs[rank]),
                         int(int(o) in chosen)])
    csv_oracle.write_table(tmp_path / "want.csv",
                           ["budget", "obs_id", "rank", "gain_selection", "gain_truth",
                            "cost", "selected"], rows)
    assert (tmp_path / "tgt" / "targeting.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_policy_target_unaffordable_budget_is_config_error(target_ws, tmp_path, capsys):
    spec = str(target_ws / "mnl.json")
    rc = main(["policy-target", "--data", str(target_ws / "data.csv"),
               "--selection-spec", spec, "--truth-spec", spec,
               "--target-alt", "1", "--cost-column", "cost",
               "--budgets", "0.01", "--multiplier", "1.0",
               "--out", str(tmp_path / "tgt")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_fits_compute_no_hessian(ws, target_ws, tmp_path, monkeypatch):
    """No fit computes a Hessian; the bootstrap computes exactly one, at the
    full-sample estimate, to seed its jackknife refits."""
    def boom(*args, **kwargs):
        raise AssertionError("fd_hessian called")

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fd_hessian(*args, **kwargs)

    monkeypatch.setattr("flexlogit.estimation.fd_hessian", boom)
    monkeypatch.setattr("flexlogit.inference.fd_hessian", counted)
    spec = str(ws / "mnl.json")
    assert main(["estimate", *base(ws), "--spec", spec, "--bootstrap", "3",
                 "--out", str(tmp_path / "est")]) == 0
    assert len(calls) == 1
    assert main(["lrtest", *base(ws), "--full", spec,
                 "--restricted", str(ws / "time_only.json")]) == 0
    assert main(["policy-sweep", *base(ws), "--spec", spec,
                 "--scenario", str(ws / "scenario.json"),
                 "--out", str(tmp_path / "sweep")]) == 0
    tspec = str(target_ws / "mnl.json")
    assert main(["policy-target", "--data", str(target_ws / "data.csv"),
                 "--selection-spec", tspec, "--truth-spec", tspec,
                 "--target-alt", "1", "--cost-column", "cost",
                 "--budgets", "15", "--multiplier", "1.0",
                 "--out", str(tmp_path / "tgt")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_malformed_spec_json_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    rc = main(["estimate", *base(ws), "--spec", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_transform_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "bad_transform.json"
    bad.write_text(json.dumps({"transform": "logit", "ref_alt": 3,
                               "coefficients": [{"name": "b", "column": "time"}]}))
    rc = main(["estimate", *base(ws), "--spec", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown transform" in capsys.readouterr().err


def test_unknown_fit_option_exits_2(ws, tmp_path, capsys):
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps({"bogus": 1}))
    rc = main(["estimate", *base(ws), "--options", str(opts),
               "--spec", str(ws / "mnl.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    {"tol_grad": "x"}, {"tol_grad": 0.0}, {"tol_grad": float("nan")},
    {"tol_ll": -1e-9}, {"max_iter": 2.5}, {"max_iter": -3},
    {"multistart": True}, {"multistart_scale": -0.5}, {"seed": "7"},
    {"use_weights": 1},
])
def test_bad_fit_option_value_exits_2(ws, tmp_path, capsys, options):
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps(options))
    rc = main(["estimate", *base(ws), "--options", str(opts),
               "--spec", str(ws / "mnl.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    name, = options
    assert f"configuration error: fit option {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bootstrap", "crossval", "multistart"])
def test_negative_seed_exits_2_naming_the_seed(ws, tmp_path, capsys, command):
    spec = str(ws / "mnl.json")
    out = ["--out", str(tmp_path / "o")]
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps({"multistart": 1, "seed": -1}))
    argv = {
        "bootstrap": ["bootstrap", *base(ws), "--spec", spec, "--B", "3",
                      "--seed", "-1", *out],
        "crossval": ["crossval", *base(ws), "--spec", spec, "--k", "3",
                     "--seed", "-1", *out],
        "multistart": ["estimate", *base(ws), "--spec", spec,
                       "--options", str(opts), *out],
    }[command]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the --seed flag itself
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed" in err and "-1" in err


def test_missing_data_file_exits_2(ws, tmp_path, capsys):
    rc = main(["estimate", "--data", str(tmp_path / "nowhere.csv"),
               "--spec", str(ws / "mnl.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_more_folds_than_observations_exits_2(ws, tmp_path, capsys):
    data = tmp_path / "ten.csv"
    write_csv(toy_dataset(n_obs=10, seed=3), data)
    rc = main(["crossval", "--data", str(data), "--spec", str(ws / "mnl.json"),
               "--k", "50", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "k=50 folds" in err


def test_header_only_csv_exits_3(ws, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("obs_id,alt_id,chosen,time,cost\n")
    rc = main(["estimate", "--data", str(empty), "--spec", str(ws / "mnl.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "dataset has no rows" in err


def test_spec_column_missing_from_data_exits_3(ws, tmp_path, capsys):
    # the spec is well formed; it is the data that lacks the column
    bad = tmp_path / "bad_col.json"
    bad.write_text(json.dumps({"transform": "mnl", "ref_alt": 3,
                               "coefficients": [{"name": "b", "column": "speed"}]}))
    rc = main(["estimate", *base(ws), "--spec", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "speed" in capsys.readouterr().err


def test_non_numeric_cell_exits_3(ws, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("obs_id,alt_id,chosen,time,cost\n"
                   "1,1,1,0.5,1.0\n1,2,0,x,1.0\n"
                   "2,1,0,0.7,2.0\n2,2,1,0.1,0.5\n")
    rc = main(["estimate", "--data", str(bad), "--spec", str(ws / "mnl.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "row 3" in err


@pytest.mark.parametrize("header,name", [
    ("obs_id,alt_id,chosen,x,x", "x"),
    ("obs_id,alt_id,chosen,obs_id,x", "obs_id"),
])
def test_repeated_header_name_exits_3(ws, tmp_path, capsys, header, name):
    bad = tmp_path / "dup.csv"
    bad.write_text(f"{header}\n1,1,1,0.5,9\n1,2,0,0.6,8\n")
    rc = main(["estimate", "--data", str(bad), "--spec", str(ws / "mnl.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert f"column {name!r} appears more than once" in err


def test_estimation_failure_exits_4(ws, tmp_path, capsys):
    # V = 0 everywhere at the default start violates the V > 0 domain
    rc = main(["estimate", *base(ws), "--spec", str(ws / "exp.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "estimation error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up: scipy stays out of the CLI's import path
# ---------------------------------------------------------------------------

SRC = str(Path(flexlogit.__file__).resolve().parents[1])


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_runs_without_importing_scipy(ws, tmp_path):
    """``import flexlogit.cli`` and ``python -m flexlogit`` runs of the
    estimate, crossval and policy commands never import scipy; only lrtest
    p-values and ``lossprob`` need it."""
    done = _python(["-c", "import sys, flexlogit.cli; "
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

    data = ["--data", str(ws / "data.csv"), "--schema", str(ws / "schema.json")]
    mnl = str(ws / "mnl.json")
    for argv in (
        ["estimate", *data, "--spec", mnl, "--out", "est", "--bootstrap", "5"],
        ["crossval", *data, "--spec", mnl, "--k", "3", "--out", "cv"],
        ["policy-sweep", *data, "--spec", mnl, "--params", "est/params.csv",
         "--scenario", str(ws / "scenario.json"), "--out", "sweep"],
    ):
        # -X importtime logs every module imported to stderr
        done = _python(["-X", "importtime", "-m", "flexlogit", *argv], tmp_path)
        assert done.returncode == 0, done.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "flexlogit.cli" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"], argv[0]


def test_lrtest_p_value_is_scipy_gammaincc(ws, tmp_path):
    """lrtest imports scipy on demand, in a fresh process as in real use."""
    from scipy.special import gammaincc

    done = _python(["-m", "flexlogit", "lrtest", "--data", str(ws / "data.csv"),
                    "--schema", str(ws / "schema.json"), "--full", str(ws / "mnl.json"),
                    "--restricted", str(ws / "time_only.json"), "--out", "lr"], tmp_path)
    assert done.returncode == 0, done.stderr
    row, = read_rows(tmp_path / "lr" / "lrtest.csv")
    stat, df, p = float(row["stat"]), int(row["df"]), float(row["p_value"])
    assert stat > 0.0
    assert p == float(gammaincc(df / 2.0, stat / 2.0))
