"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The count test runs every workload traced, twice, through ``bench/run.py``
(about two minutes on two cores).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import checks
import workloads
from run import ROOT

COUNTS = ("estimation.fit_calls", "estimation.objective_evals",
          "estimation.gradient_evals", "estimation.iterations",
          "estimation.backtracks", "estimation.newton_stage_fits",
          "estimation.unconverged_fits", "data.subset_calls",
          "data.resample_calls", "likelihood.build_design_calls",
          "likelihood.probabilities_calls", "parallel.items")


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["estimation.fit_calls"] > 0
    items = {"bootstrap": workloads.BOOTSTRAP_B + workloads.BOOTSTRAP_N,
             "crossval": 2 * workloads.CROSSVAL_K, "policy": 0}[workload]
    assert first["parallel.items"] == items


def reference(workload):
    return checks.load_reference(workload, 0)


def failures(workload, got):
    n_obs = {"bootstrap": workloads.BOOTSTRAP_N, "crossval": workloads.CROSSVAL_N,
             "policy": workloads.POLICY_N}[workload]
    return {name for name, miss in checks.check(workload, got, reference(workload),
                                                n_obs) if miss}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_passes_its_own_checks(workload):
    assert failures(workload, copy.deepcopy(reference(workload))) == set()


def perturbed(workload, edit):
    got = copy.deepcopy(reference(workload))
    edit(got)
    return failures(workload, got)


def shift(table, key, col, by):
    table[key][col] += by


def test_estimate_shifted_by_1e3_fails():
    assert perturbed("bootstrap",
                     lambda g: shift(g["params"], "beta:time", 0, 1e-3)) == {"estimates"}


def test_bca_endpoint_shifted_fails():
    assert "bca95_endpoints" in perturbed(
        "bootstrap", lambda g: shift(g["params"], "shape:1", 2, 1e-3))


def test_estimate_outside_its_interval_fails():
    def edit(g):
        row = g["params"]["beta:cost"]
        row[1] = row[0] + 1.0
    assert "interval_order" in perturbed("bootstrap", edit)


def test_held_out_ll_shifted_fails():
    assert "test_ll" in perturbed(
        "crossval", lambda g: shift(g["cells"], "scobit:2", 1, 1e-3))


def test_mean_test_ll_shifted_fails():
    def edit(g):
        g["mean_test_ll"]["mnl"] += 1e-3
    assert {"mean_test_ll", "mean_is_fold_mean"} <= perturbed("crossval", edit)


def test_sweep_share_shifted_fails():
    assert {"sweep_shares", "sweep_counts_sum"} <= perturbed(
        "policy", lambda g: shift(g["sweep"], "1.5:2", 0, 1e-3))


def test_selected_set_changed_fails():
    def edit(g):
        g["targets"]["2000.0"]["selected_sha256"] = "0" * 64
    assert perturbed("policy", edit) == {"selected_sets"}


def test_summation_order_noise_passes():
    def edit(g):
        for row in g["params"].values():
            row[:] = [x * (1 + 1e-12) for x in row]
    assert perturbed("bootstrap", edit) == set()
