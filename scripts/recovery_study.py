"""Monte Carlo parameter recovery for the core transform families.

Simulates datasets from a fixed generating process, refits the same family,
and reports bias and RMSE per parameter. Useful for checking that tolerances
in the test suite have sensible margins at other sample sizes.

    python3 scripts/recovery_study.py --family scobit --n-obs 5000 --reps 10
"""

import argparse
import sys
import time

import numpy as np

from flexlogit.data import CovariateSpec, SimulationConfig, simulate
from flexlogit.estimation import fit
from flexlogit.likelihood import Coefficient, ModelSpec, NaturalParams, Packing

# generating values per family; shapes chosen well away from the MNL anchor
TRUE_SHAPES = {
    "mnl": None,
    "cloglog": None,
    "scobit": {1: 2.0, 2: 1.0, 3: 0.5},
    "uneven_logit": {1: 2.0, 2: 1.0, 3: 0.5},
    "asym_logit": {1: 0.5, 2: 0.3, 3: 0.2},
}


def build_config(family: str, n_obs: int, seed: int) -> SimulationConfig:
    spec = ModelSpec(
        transform=family,
        ref_alt=3,
        coefficients=(Coefficient("time", "time"), Coefficient("cost", "cost")),
    )
    true = NaturalParams(
        beta=[-1.0, 0.8],
        tau={1: 0.4, 2: -0.2},
        gamma=TRUE_SHAPES[family],
    )
    return SimulationConfig(
        spec=spec,
        true_params=true,
        alternatives=(1, 2, 3),
        n_obs=n_obs,
        covariates=(CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2)),
        seed=seed,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="mnl", choices=sorted(TRUE_SHAPES))
    ap.add_argument("--n-obs", type=int, default=5000)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    cfg0 = build_config(args.family, args.n_obs, args.seed)
    pk = Packing(cfg0.spec, cfg0.alternatives)
    truth = pk.pack(cfg0.true_params)
    names = pk.names()

    estimates = np.empty((args.reps, pk.dim))
    t0 = time.time()
    failures = 0
    for r in range(args.reps):
        cfg = build_config(args.family, args.n_obs, args.seed + r)
        res = fit(simulate(cfg), cfg.spec)
        if res.status != "converged":
            failures += 1
        estimates[r] = res.packed
    elapsed = time.time() - t0

    bias = estimates.mean(axis=0) - truth
    rmse = np.sqrt(np.mean((estimates - truth) ** 2, axis=0))
    width = max(len(n) for n in names)
    print(f"{args.family}: {args.reps} replications, n={args.n_obs}, "
          f"{failures} non-converged, {elapsed:.1f}s")
    print(f"{'parameter':<{width}}  {'true':>9}  {'mean est':>9}  "
          f"{'bias':>9}  {'rmse':>9}")
    for m, n in enumerate(names):
        print(f"{n:<{width}}  {truth[m]:>9.4f}  {estimates[:, m].mean():>9.4f}  "
              f"{bias[m]:>+9.4f}  {rmse[m]:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
