"""Output checks: stored reference values plus invariants of each workload.

Reference values (``reference.json``) were taken from the CLI at the commit
that added the benchmark, one entry per ``workloads.reference_key``.
Tolerances follow the optimizer's stopping rule, ``tol_grad = 1e-5`` on the
sup-norm of the score:

* ``FIT_RTOL = 10 * tol_grad``: quantities read off fitted estimates
  (estimates, 95% BCa endpoints, truth-model gains). A converged fit lies
  within tol_grad / lambda_min of the optimum; lambda_min of the scobit
  information at n = 400 is about 0.23, so two converged fits differ by at
  most about 4e-5 per parameter.
* ``LL_RTOL = tol_grad / 100``: log-likelihoods at a fitted point. They are
  flat to first order at the training optimum and move by the held-out
  score times the parameter error on the test fold.
* ``FORWARD_RTOL = 1e-9``: forward-only quantities from fixed parameters
  (sweep counts and shares), which change only by summation order.

Each value is compared as ``|got - ref| <= rtol * max(1, |ref|)``. Selected
target sets must match exactly.

The 99% BCa endpoints are checked only for their order. With B = 50 they
interpolate between the two most extreme replicates, and in the bootstrap
workload one of those is the replicate whose refits stop without
converging, at a point that moves with rounding: replacing ``logaddexp`` in
``softplus`` by an expression that agrees to 4e-16 moved the hi99 of tau:1
from 37.03 to 37.45, while every other value moved by less than 1e-6.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

TOL_GRAD = 1e-5
FIT_RTOL = 10 * TOL_GRAD
LL_RTOL = TOL_GRAD / 100
FORWARD_RTOL = 1e-9

REFERENCE = Path(__file__).with_name("reference.json")


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def extract(workload: str, out: Path) -> dict:
    """The values the checks compare, read from one workload run's outputs."""
    if workload == "bootstrap":
        est = out / "estimate"
        return {
            "params": {r["parameter"]: [float(r[c]) for c in
                                        ("estimate", "lo95", "hi95", "lo99", "hi99")]
                       for r in _rows(est / "params.csv")},
            "ll_by_alt": {r["alt_id"]: float(r["ll"])
                          for r in _rows(est / "ll_by_alt.csv")},
        }
    if workload == "crossval":
        cells, means = {}, {}
        for r in _rows(out / "crossval" / "cv.csv"):
            if r["fold"] == "mean":
                means[r["spec"]] = float(r["test_ll"])
            else:
                cells[f"{r['spec']}:{r['fold']}"] = [
                    float(r["train_ll"]), float(r["test_ll"]), int(r["converged"])]
        return {"cells": cells, "mean_test_ll": means}
    sweep = {}
    for r in _rows(out / "sweep" / "sweep.csv"):
        sweep[f"{r['toll']}:{r['alt_id']}"] = [float(r["expected_count"]),
                                               float(r["share"])]
    targets = {}
    for r in _rows(out / "target" / "targeting.csv"):
        t = targets.setdefault(r["budget"], {"selected": [], "cost": 0.0,
                                             "gain_truth": 0.0})
        if r["selected"] == "1":
            t["selected"].append(int(r["obs_id"]))
            t["cost"] += float(r["cost"])
            t["gain_truth"] += float(r["gain_truth"])
    for t in targets.values():
        ids = sorted(t.pop("selected"))
        t["n_selected"] = len(ids)
        t["selected_sha256"] = hashlib.sha256(
            ",".join(map(str, ids)).encode()).hexdigest()
    return {"sweep": sweep, "targets": targets}


def _close(got, ref, rtol) -> bool:
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


def _compare(name, got: dict, ref: dict, rtol, cols=None) -> tuple[str, str]:
    """One check over a table of values; returns (name, '' or the first miss)."""
    if set(got) != set(ref):
        return name, f"keys differ: {sorted(set(got) ^ set(ref))[:4]}"
    for key in sorted(ref):
        g, r = got[key], ref[key]
        for c in (range(len(r)) if cols is None else cols):
            if not _close(g[c], r[c], rtol):
                return name, f"{key}[{c}] = {g[c]!r}, reference {r[c]!r}"
    return name, ""


def check(workload: str, got: dict, ref: dict, n_obs: int) -> list[tuple[str, str]]:
    """Every output check of one workload: (name, failure or '')."""
    out = []
    if workload == "bootstrap":
        out.append(_compare("estimates", got["params"], ref["params"], FIT_RTOL, [0]))
        out.append(_compare("bca95_endpoints", got["params"], ref["params"],
                            FIT_RTOL, [1, 2]))
        out.append(_compare("ll_by_alt", {k: [v] for k, v in got["ll_by_alt"].items()},
                            {k: [v] for k, v in ref["ll_by_alt"].items()}, LL_RTOL))
        bad = [k for k, (e, lo95, hi95, lo99, hi99) in got["params"].items()
               if not lo99 <= lo95 <= e <= hi95 <= hi99]
        out.append(("interval_order", f"lo99 <= lo95 <= estimate <= hi95 <= hi99 "
                                      f"fails for {bad}" if bad else ""))
    elif workload == "crossval":
        out.append(_compare("train_ll", got["cells"], ref["cells"], LL_RTOL, [0]))
        out.append(_compare("test_ll", got["cells"], ref["cells"], LL_RTOL, [1]))
        out.append(_compare("mean_test_ll",
                            {k: [v] for k, v in got["mean_test_ll"].items()},
                            {k: [v] for k, v in ref["mean_test_ll"].items()}, LL_RTOL))
        miss = ""
        for spec, mean in got["mean_test_ll"].items():
            folds = [c[1] for k, c in got["cells"].items()
                     if k.split(":")[0] == spec and c[2]]
            if not folds or not _close(sum(folds) / len(folds), mean, FORWARD_RTOL):
                miss = f"{spec} mean {mean!r} is not the mean of its converged folds"
        out.append(("mean_is_fold_mean", miss))
    else:
        out.append(_compare("sweep_shares", got["sweep"], ref["sweep"], FORWARD_RTOL))
        miss = ""
        for toll in {k.split(":")[0] for k in got["sweep"]}:
            rows = [v for k, v in got["sweep"].items() if k.split(":")[0] == toll]
            if not (_close(sum(r[0] for r in rows), n_obs, FORWARD_RTOL)
                    and _close(sum(r[1] for r in rows), 1.0, FORWARD_RTOL)):
                miss = f"toll {toll}: expected counts do not sum to {n_obs}"
        out.append(("sweep_counts_sum", miss))
        g, r = got["targets"], ref["targets"]
        same = set(g) == set(r) and all(
            g[b]["selected_sha256"] == r[b]["selected_sha256"] for b in r)
        out.append(("selected_sets", "" if same else "selected sets differ"))
        out.append(_compare("targeting_totals",
                            {b: [t["cost"], t["gain_truth"]] for b, t in g.items()},
                            {b: [t["cost"], t["gain_truth"]] for b, t in r.items()},
                            FIT_RTOL))
        over = [b for b, t in g.items() if t["cost"] > float(b)]
        out.append(("within_budget", f"budgets {over} overspent" if over else ""))
    return out


def load_reference(workload: str, input_set: int) -> dict | None:
    with open(REFERENCE) as fh:
        return json.load(fh)[workload].get(str(input_set))
