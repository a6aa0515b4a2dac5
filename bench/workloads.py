"""Seeded inputs and CLI command lists for the three benchmark workloads.

The generator is self-contained numpy: it does not call the package, so a
change to ``flexlogit.simulate`` or ``write_csv`` cannot change the inputs a
benchmark run feeds to the CLI. The CLI sees only the files written here and
its arguments.

Reference values for the output checks were taken for ``N_INPUT_SETS``
input sets; ``--seed n`` selects input set ``s = n % N_INPUT_SETS``, so every
run is checked against a stored reference. The set fixes the row order of
the data CSV, which ``load_csv`` sorts back. Beyond that:

* ``crossval``: ``s`` is the CLI's ``--seed``, the fold assignment.
* ``bootstrap`` and ``policy``: nothing else. Their markets are fixed, and
  so are the bootstrap draws (``--seed 11``), because their cost depends
  on the draw far more than the machine's noise does. Over 16 bootstrap
  seeds on this market one run took 6 to 10 s, except seeds 6 and 11
  (14.5 s, 15.9 s): there one replicate's warm-started refit and its cold
  restart each stop at ``line_search_failed`` after about 1000 iterations.
  Letting the seed pick the draws spread wall time by 19 to 47% of its
  median over 10 seeds; seed 11 keeps that failure, and its cost, in every
  run. Likewise the policy run took about 6.3 s on simulated market 6 and
  about 4.0 s on markets 5, 7 and 8.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

N_INPUT_SETS = 16

# README scobit market: alternatives 1..3, reference 3.
SCOBIT_TRUTH = {"beta": [-1.0, 0.8], "tau": {1: 0.4, 2: -0.2},
                "gamma": {1: 2.0, 2: 1.0, 3: 0.5}}
SCOBIT_COVARIATES = (("time", -2.0, 2.0), ("cost", -2.0, 2.0))

# scripts/policy_demo.py market: 1 car, 2 bus, 3 train (reference).
CAR, BUS, TRAIN = 1, 2, 3
UNEVEN_TRUTH = {"beta": [-0.8, -0.5], "tau": {CAR: 0.6, BUS: -0.1},
                "gamma": {CAR: 2.0, BUS: 1.0, TRAIN: 0.5}}
POLICY_COVARIATES = (("fare", 0.5, 3.0), ("time", 0.2, 1.5))

BOOTSTRAP_N, BOOTSTRAP_B, BOOTSTRAP_SEED = 400, 50, 11
CROSSVAL_N, CROSSVAL_K = 20000, 5
POLICY_N = 20000
TOLL_GRID = [round(0.1 * i, 1) for i in range(31)]
BUDGETS = (500.0, 2000.0, 8000.0)

WHY = {
    "bootstrap": "450 small refits (50 replicates + 400 jackknife): per-fit "
                 "fixed cost, evaluation counts, subset/resample and "
                 "build_design dominate",
    "crossval": "10 large fits over 60k rows on 2 threads: transform and "
                "likelihood kernels, iteration counts and the thread pool "
                "dominate; the replicate machinery is bypassed",
    "policy": "forward-only likelihood on 60k rows: CSV ingest, scenario "
              "re-validation, build_design per call and table writes dominate",
}
WORKLOADS = tuple(WHY)


def _softplus(x):
    return np.logaddexp(0.0, x)


def _scobit(v, g):
    return -np.log(np.expm1(g * _softplus(-v)))


def _uneven_logit(v, g):
    return _softplus(v) - _softplus(-g * v)


def _simulate(rng, n, truth, covariates, transform):
    """Long-format rows (obs, alt, chosen, cov...) drawn from the model."""
    alts = np.array(sorted(truth["gamma"]))
    J = alts.shape[0]
    lows = np.array([c[1] for c in covariates])
    highs = np.array([c[2] for c in covariates])
    cov = lows + (highs - lows) * rng.random((n, J, len(covariates)))
    v = cov @ np.asarray(truth["beta"])
    gamma = np.array([truth["gamma"][a] for a in alts])
    tau = np.array([truth["tau"].get(a, 0.0) for a in alts])
    expo = tau + transform(v, gamma)
    expo -= expo.max(axis=1, keepdims=True)
    p = np.exp(expo)
    p /= p.sum(axis=1, keepdims=True)
    pick = np.minimum((p.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1), J - 1)
    return alts, cov, pick


def _write_data(path: Path, alts, cov, pick, names, rng) -> None:
    """Long-format CSV with its rows in an order drawn from ``rng``."""
    n, J, _ = cov.shape
    lines = []
    for i in range(n):
        for j in range(J):
            cells = ",".join(repr(float(x)) for x in cov[i, j])
            lines.append(f"{i},{alts[j]},{int(pick[i] == j)},{cells}")
    lines = [lines[r] for r in rng.permutation(len(lines))]
    header = ",".join(("obs_id", "alt_id", "chosen", *names))
    path.write_text("\n".join([header, *lines]) + "\n")


def _write_spec(path: Path, transform: str, names) -> None:
    spec = {"transform": transform, "ref_alt": 3,
            "coefficients": [{"name": c, "column": c} for c in names]}
    path.write_text(json.dumps(spec, indent=2) + "\n")


def _packed_params(truth, names) -> list[tuple[str, float]]:
    """The CLI's packed layout: beta, non-reference taus, log shapes."""
    rows = [(f"beta:{c}", b) for c, b in zip(names, truth["beta"])]
    rows += [(f"tau:{a}", t) for a, t in sorted(truth["tau"].items())]
    rows += [(f"shape:{a}", math.log(g)) for a, g in sorted(truth["gamma"].items())]
    return rows


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def reference_key(workload: str, seed: int) -> int:
    """Seeds with the same key make the CLI write the same outputs."""
    return input_set(seed) if workload == "crossval" else 0


def generate(workload: str, seed: int, work: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    index = WORKLOADS.index(workload)
    row_order = np.random.default_rng([input_set(seed), index, 1])
    rng = np.random.default_rng([0, index])
    if workload in ("bootstrap", "crossval"):
        n = BOOTSTRAP_N if workload == "bootstrap" else CROSSVAL_N
        names = [c[0] for c in SCOBIT_COVARIATES]
        alts, cov, pick = _simulate(rng, n, SCOBIT_TRUTH, SCOBIT_COVARIATES, _scobit)
        _write_data(work / "data.csv", alts, cov, pick, names, row_order)
        _write_spec(work / "scobit.json", "scobit", names)
        _write_spec(work / "mnl.json", "mnl", names)
        return
    names = [c[0] for c in POLICY_COVARIATES]
    alts, cov, pick = _simulate(rng, POLICY_N, UNEVEN_TRUTH, POLICY_COVARIATES,
                                _uneven_logit)
    _write_data(work / "data.csv", alts, cov, pick, names, row_order)
    _write_spec(work / "uneven.json", "uneven_logit", names)
    _write_spec(work / "mnl.json", "mnl", names)
    with open(work / "params.csv", "w") as fh:
        fh.write("parameter,estimate\n")
        for name, value in _packed_params(UNEVEN_TRUTH, names):
            fh.write(f"{name},{value!r}\n")
    scenario = {"name": "car_toll",
                "edits": [{"column": "fare", "op": "add", "amount": "toll",
                           "where": {"alt_ids": [CAR]}}],
                "sweep": {"parameter": "toll", "grid": TOLL_GRID}}
    (work / "toll.json").write_text(json.dumps(scenario, indent=2) + "\n")


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists, run in order from the input directory."""
    if workload == "bootstrap":
        return [["estimate", "--data", "data.csv", "--spec", "scobit.json",
                 "--out", "out/estimate", "--bootstrap", str(BOOTSTRAP_B),
                 "--seed", str(BOOTSTRAP_SEED), "--threads", "1"]]
    if workload == "crossval":
        return [["crossval", "--data", "data.csv", "--spec", "mnl=mnl.json",
                 "--spec", "scobit=scobit.json", "--k", str(CROSSVAL_K),
                 "--seed", str(input_set(seed)), "--threads", "2",
                 "--out", "out/crossval"]]
    return [
        ["policy-sweep", "--data", "data.csv", "--spec", "uneven.json",
         "--params", "params.csv", "--scenario", "toll.json",
         "--out", "out/sweep"],
        ["policy-target", "--data", "data.csv", "--selection-spec", "mnl.json",
         "--truth-spec", "uneven.json", "--target-alt", str(BUS),
         "--cost-column", "fare", "--related-alts", str(TRAIN),
         "--budgets", ",".join(str(int(b)) for b in BUDGETS),
         "--out", "out/target"],
    ]


def setup_spec(workload: str) -> str:
    """The spec file of the workload's first CLI command."""
    return {"bootstrap": "scobit.json", "crossval": "mnl.json",
            "policy": "uneven.json"}[workload]
