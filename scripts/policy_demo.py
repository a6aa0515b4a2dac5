"""Toll sweep and free-pass targeting on one simulated mode-choice market.

Three alternatives: 1 drives, 2 rides the bus, 3 takes the train (reference).
Demand is generated from an uneven logit with distinct shapes, so the plain
logit is misspecified by construction. The agency's deployable model is that
plain logit (the selection model); the refit uneven logit stands in for the
truth model that audits realized gains.

Part one prices a car toll and tracks how shares move. Part two hands out
free bus passes under a budget, ranking riders by predicted gain per dollar.

    python3 scripts/policy_demo.py --n-obs 400 --budgets 500,2000,8000
"""

import argparse
import sys

import numpy as np

from flexlogit.data import CovariateSpec, SimulationConfig, simulate
from flexlogit.estimation import fit
from flexlogit.likelihood import Coefficient, ModelSpec, NaturalParams
from flexlogit.policy import (
    Amount,
    Scenario,
    ScenarioEdit,
    TargetingProblem,
    select_targets,
    sweep,
)

CAR, BUS, TRAIN = 1, 2, 3


def spec_of(family: str) -> ModelSpec:
    return ModelSpec(
        transform=family,
        ref_alt=TRAIN,
        coefficients=(Coefficient("fare", "fare"), Coefficient("time", "time")),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-obs", type=int, default=400)
    ap.add_argument("--seed", type=int, default=19)
    ap.add_argument("--budgets", default="500,2000,8000")
    ap.add_argument("--multiplier", type=float, default=22.0,
                    help="pass cost per unit fare, e.g. workdays per month")
    args = ap.parse_args(argv)

    cfg = SimulationConfig(
        spec=spec_of("uneven_logit"),
        true_params=NaturalParams(beta=[-0.8, -0.5], tau={CAR: 0.6, BUS: -0.1},
                                  gamma={CAR: 2.0, BUS: 1.0, TRAIN: 0.5}),
        alternatives=(CAR, BUS, TRAIN),
        n_obs=args.n_obs,
        covariates=(CovariateSpec("fare", 0.5, 3.0),
                    CovariateSpec("time", 0.2, 1.5)),
        seed=args.seed,
    )
    data = simulate(cfg)

    selection = fit(data, spec_of("mnl"))
    truth = fit(data, spec_of("uneven_logit"))
    for label, res in (("selection (mnl)", selection), ("truth (uneven)", truth)):
        b_fare = res.params.beta[0]
        print(f"{label:<18} ll {res.ll:9.2f}   fare coefficient {b_fare:+.3f}")

    print("\ncar toll sweep, truth-model shares")
    scenario = Scenario(
        name="car_toll",
        edits=(ScenarioEdit(column="fare", op="add", amount=Amount.parse("toll"),
                            alt_ids=(CAR,)),),
        sweep_parameter="toll",
        sweep_grid=tuple(np.arange(0.0, 3.01, 0.5)),
    )
    rows = sweep(data, truth.spec, truth.params, scenario)
    print(f"{'toll':>6}{'car':>8}{'bus':>8}{'train':>8}")
    for row in rows:
        shares = {a: s for a, (_, s) in row["by_alt"].items()}
        print(f"{row['value']:6.1f}{shares[CAR]:8.3f}{shares[BUS]:8.3f}"
              f"{shares[TRAIN]:8.3f}")

    print("\nfree bus pass, ranked by selection-model gain per dollar")
    problem = TargetingProblem(
        data=data,
        selection_model=selection,
        truth_model=truth,
        target_alt=BUS,
        cost_column="fare",
        related_alts=(TRAIN,),
        cost_multiplier=args.multiplier,
    )
    print(f"{'budget':>8}{'selected':>10}{'spend':>10}{'truth gain':>12}"
          f"{'per unit gain':>15}")
    budgets = [float(b) for b in args.budgets.split(",")]
    reports = select_targets(problem, budgets)
    for budget, rep in zip(budgets, reports):
        print(f"{budget:8.0f}{len(rep.selected_obs):>10}{rep.total_cost:10.2f}"
              f"{rep.total_gain_truth:12.4f}{rep.efficiency:15.2f}")

    rep = reports[-1]
    print("\ntop five under the largest budget")
    print(f"{'obs':>6}{'cost':>8}{'gain sel':>10}{'gain truth':>12}")
    for r in range(5):
        print(f"{rep.ranked_obs[r]:>6}{rep.costs[r]:8.2f}"
              f"{rep.gain_selection[r]:10.4f}{rep.gain_truth[r]:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
