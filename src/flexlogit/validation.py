"""Stratified k-fold cross-validation of competing model specifications.

Folds are balanced on the chosen alternative: within each chosen-alternative
stratum the observations are shuffled with the given seed and dealt
round-robin to folds, so per-fold per-alternative counts differ by at most
one. ``cross_validate`` fits each spec on every training complement from the
default init and scores the held-out log-likelihood; specs are compared on
the mean held-out log-likelihood across folds. Each spec compiles the data
once. The plan's fold of every observation is looked up once, in canonical
order, so a held-out fold and its training complement are ascending
observation positions, and each is a row gather (``Design.take``) of that
design. A plan that does not assign exactly the data's observations, or
assigns one to a fold outside ``range(plan.k)``, raises ``ValueError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ChoiceDataset
from .errors import (DomainViolation, EstimationError, KTooLarge, NonFiniteIndex,
                     SparseStratumWarning)
from .estimation import FitOptions, fit
from .likelihood import ModelSpec, ll_with_design, build_design

__all__ = ["FoldPlan", "make_folds", "CrossValidationReport", "cross_validate"]


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every observation id to one of k folds."""

    k: int
    seed: int
    assignments: dict[int, int]

    def fold_obs(self, fold: int) -> np.ndarray:
        return np.array(sorted(o for o, f in self.assignments.items() if f == fold))


def make_folds(data: ChoiceDataset, k: int, seed: int = 0) -> FoldPlan:
    """Stratified fold assignment.

    Raises ``KTooLarge`` if k exceeds the number of observations and warns
    when a chosen-alternative stratum is smaller than k (its observations
    then appear in fewer than k folds).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if seed < 0:
        raise ValueError(f"fold seed must be >= 0, got {seed}")
    uniq = data.unique_obs()
    if k > uniq.shape[0]:
        raise KTooLarge(f"k={k} folds but only {uniq.shape[0]} observations")
    chosen = data.chosen_alt_by_obs()
    rng = np.random.default_rng(seed)
    assignments: dict[int, int] = {}
    for a in data.alternatives:
        stratum = uniq[chosen == a]
        if stratum.shape[0] == 0:
            continue
        if stratum.shape[0] < k:
            warnings.warn(
                f"alternative {a} chosen only {stratum.shape[0]} times; "
                f"fewer than k={k} folds will contain it",
                SparseStratumWarning,
                stacklevel=2,
            )
        order = rng.permutation(stratum)
        for pos, obs in enumerate(order):
            assignments[int(obs)] = pos % k
    return FoldPlan(k=k, seed=seed, assignments=assignments)


@dataclass
class CrossValidationReport:
    """Per-fold table plus per-spec mean held-out log-likelihood."""

    rows: list[dict]
    mean_test_ll: dict[str, float]
    failures: dict[str, int]
    plan: FoldPlan

    def ranking(self) -> list[str]:
        return sorted(self.mean_test_ll, key=self.mean_test_ll.get, reverse=True)


def cross_validate(
    data: ChoiceDataset,
    specs: dict[str, ModelSpec],
    k: int = 10,
    seed: int = 0,
    options: FitOptions | None = None,
    plan: FoldPlan | None = None,
    threads: int = 1,
) -> CrossValidationReport:
    """Fit every spec on each training complement, score the held-out fold.

    Fold f holds the positions of the observations ``plan`` assigns to f,
    and its training set every other position. A ``plan`` that does not
    assign exactly the data's observations, or assigns one to a fold outside
    ``range(plan.k)``, raises ``ValueError`` naming the fold, as does a
    ``threads`` that is not an integer >= 1. A fold whose fit raises or fails
    to converge, or whose held-out observations cannot be scored at the
    training optimum (an index outside the family's domain), is excluded from
    that spec's mean and counted under ``failures``.
    """
    from .parallel import check_threads, parallel_map

    check_threads(threads)
    opts = options or FitOptions()
    plan = plan or make_folds(data, k, seed)
    ids = data.unique_obs().tolist()
    if sorted(plan.assignments) != ids:
        raise ValueError("the fold plan does not assign exactly the data's observations")
    fold = np.array([plan.assignments[o] for o in ids])
    outside = np.flatnonzero((fold < 0) | (fold >= plan.k))
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"the fold plan assigns observation {ids[i]} to fold {fold[i]}, outside "
            f"range({plan.k}); {outside.size} observations have such a fold"
        )
    designs = {label: build_design(data, spec) for label, spec in specs.items()}

    def one_cell(job):
        label, f = job
        design = designs[label]
        train = design.take(np.flatnonzero(fold != f))
        try:
            res = fit(train, design.spec, options=opts)
            test_ll, _ = ll_with_design(design.take(np.flatnonzero(fold == f)),
                                        res.packed, opts.use_weights)
        except (EstimationError, DomainViolation, NonFiniteIndex):
            return {"spec": label, "fold": f, "converged": False,
                    "train_ll": np.nan, "test_ll": np.nan}
        return {"spec": label, "fold": f, "converged": res.converged,
                "train_ll": res.ll, "test_ll": test_ll}

    jobs = [(label, f) for label in specs for f in range(plan.k)]
    rows = parallel_map(one_cell, jobs, threads)

    mean_test, failures = {}, {}
    for label in specs:
        good = [r["test_ll"] for r in rows if r["spec"] == label and r["converged"]]
        failures[label] = plan.k - len(good)
        mean_test[label] = float(np.mean(good)) if good else float("-inf")
    return CrossValidationReport(
        rows=rows, mean_test_ll=mean_test, failures=failures, plan=plan
    )
