"""Fit every flexible family to one simulated dataset and compare.

Reports in-sample log-likelihood, a likelihood-ratio test against the plain
logit where the family nests it, and stratified k-fold held-out
log-likelihood. The generating process defaults to scobit with distinct
shapes, so the flexible families should separate from the plain logit.

    python3 scripts/family_comparison.py --n-obs 4000 --k 5
"""

import argparse
import sys

import numpy as np

from flexlogit.data import CovariateSpec, SimulationConfig, simulate
from flexlogit.estimation import fit
from flexlogit.inference import lr_test
from flexlogit.likelihood import Coefficient, ModelSpec, NaturalParams, Packing
from flexlogit.validation import cross_validate

NESTS_MNL = {"scobit", "uneven_logit", "asym_logit"}


def spec_of(family: str) -> ModelSpec:
    return ModelSpec(
        transform=family,
        ref_alt=3,
        coefficients=(Coefficient("time", "time"), Coefficient("cost", "cost")),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gen-family", default="scobit",
                    choices=["mnl", "scobit", "uneven_logit"])
    ap.add_argument("--n-obs", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args(argv)

    gen_spec = spec_of(args.gen_family)
    shapes = {1: 2.0, 2: 1.0, 3: 0.5} if args.gen_family != "mnl" else None
    cfg = SimulationConfig(
        spec=gen_spec,
        true_params=NaturalParams(beta=[-1.0, 0.8], tau={1: 0.4, 2: -0.2},
                                  gamma=shapes),
        alternatives=(1, 2, 3),
        n_obs=args.n_obs,
        covariates=(CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2)),
        seed=args.seed,
    )
    data = simulate(cfg)

    families = ["mnl", "cloglog", "scobit", "uneven_logit", "asym_logit"]
    specs = {f: spec_of(f) for f in families}
    fits = {f: fit(data, s) for f, s in specs.items()}
    base = fits["mnl"]

    report = cross_validate(data, specs, k=args.k, seed=args.seed,
                            threads=args.threads)

    print(f"generated from {args.gen_family}, n={args.n_obs}, seed={args.seed}")
    print(f"{'family':<14}{'params':>7}{'ll':>12}{'lr p-value':>12}"
          f"{'cv mean ll':>12}{'folds failed':>14}")
    for f in families:
        res = fits[f]
        dim = Packing(specs[f], data.alternatives).dim
        if f in NESTS_MNL:
            p = lr_test(res, base, df=dim - Packing(base.spec,
                                                    data.alternatives).dim)
            p_str = f"{p.p_value:12.4g}"
        else:
            p_str = f"{'-':>12}"
        print(f"{f:<14}{dim:>7}{res.ll:>12.2f}{p_str}"
              f"{report.mean_test_ll[f]:>12.2f}{report.failures[f]:>14}")
    print("cv ranking:", " > ".join(report.ranking()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
