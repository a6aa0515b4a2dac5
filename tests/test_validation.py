import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexlogit import estimation, validation
from flexlogit.errors import DomainViolation, KTooLarge, SparseStratumWarning
from flexlogit.estimation import FitOptions, fit
from flexlogit.likelihood import build_design, ll_with_design
from flexlogit.validation import FoldPlan, cross_validate, make_folds

from conftest import mnl_spec, scobit_dataset, spec_for, toy_dataset


def fold_class_counts(data, plan):
    """(fold, chosen alternative) -> count table."""
    chosen = dict(zip(data.unique_obs().tolist(), data.chosen_alt_by_obs().tolist()))
    counts = {(f, a): 0 for f in range(plan.k) for a in data.alternatives}
    for obs, f in plan.assignments.items():
        counts[(f, chosen[obs])] += 1
    return counts


def test_folds_partition_everything():
    d = toy_dataset(n_obs=53, seed=2)
    plan = make_folds(d, k=5, seed=0)
    assert sorted(plan.assignments) == d.unique_obs().tolist()
    assert set(plan.assignments.values()) <= set(range(5))
    got = np.sort(np.concatenate([plan.fold_obs(f) for f in range(5)]))
    np.testing.assert_array_equal(got, d.unique_obs())


@given(k=st.integers(2, 9), seed=st.integers(0, 10_000))
def test_folds_balanced_within_class(k, seed):
    d = toy_dataset(n_obs=57, seed=1)
    plan = make_folds(d, k=k, seed=seed)
    counts = fold_class_counts(d, plan)
    for a in d.alternatives:
        per_fold = [counts[(f, a)] for f in range(k)]
        assert max(per_fold) - min(per_fold) <= 1


def test_folds_deterministic():
    d = toy_dataset(n_obs=30, seed=3)
    p1 = make_folds(d, k=4, seed=9)
    p2 = make_folds(d, k=4, seed=9)
    p3 = make_folds(d, k=4, seed=10)
    assert p1.assignments == p2.assignments
    assert p1.assignments != p3.assignments


def test_folds_guardrails():
    d = toy_dataset(n_obs=10, seed=5)
    with pytest.raises(ValueError):
        make_folds(d, k=1)
    with pytest.raises(KTooLarge):
        make_folds(d, k=11)
    with pytest.warns(SparseStratumWarning):
        make_folds(d, k=9)


def test_cross_validate_report(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    specs = {"mnl": spec, "time_only": mnl_spec(columns=("time",))}
    rep = cross_validate(data, specs, k=4, seed=0)
    assert len(rep.rows) == 8
    assert set(rep.mean_test_ll) == {"mnl", "time_only"}
    assert rep.failures == {"mnl": 0, "time_only": 0}
    # the data-generating spec wins on held-out likelihood
    assert rep.ranking()[0] == "mnl"
    # test folds partition the data: total held-out ll is a sum over obs
    for label in specs:
        lls = [r["test_ll"] for r in rep.rows if r["spec"] == label]
        assert rep.mean_test_ll[label] == pytest.approx(np.mean(lls), rel=1e-12)
        assert all(np.isfinite(lls))


def test_cross_validate_deterministic_across_threads(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    specs = {"m": spec}
    r1 = cross_validate(data, specs, k=3, seed=4, threads=1)
    r2 = cross_validate(data, specs, k=3, seed=4, threads=3)
    assert r1.mean_test_ll == r2.mean_test_ll
    assert [r["test_ll"] for r in r1.rows] == [r["test_ll"] for r in r2.rows]


def test_cross_validate_external_plan(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    plan = make_folds(data, k=3, seed=7)
    rep = cross_validate(data, {"m": spec}, plan=plan)
    assert rep.plan is plan
    assert len(rep.rows) == 3


@pytest.mark.parametrize("foreign", ["shifted_ids", "first_half"])
def test_cross_validate_rejects_plan_for_other_data(mnl_sim_small, foreign):
    """A plan must assign exactly the data's observations: neither index
    past the data nor train on observations no fold scores."""
    data, spec, _ = mnl_sim_small
    plan = make_folds(data, k=3, seed=7)
    ids = sorted(plan.assignments)
    if foreign == "shifted_ids":
        assignments = {o + 100: plan.assignments[o] for o in ids}
    else:
        assignments = {o: plan.assignments[o] for o in ids[: len(ids) // 2]}
    with pytest.raises(ValueError, match="fold plan"):
        cross_validate(data, {"m": spec}, plan=FoldPlan(3, 7, assignments))


def test_cross_validate_rejects_fold_outside_plan():
    """Observations assigned to a fold past ``plan.k`` would sit in every
    training set and never be scored; the plan is rejected by that fold."""
    d = toy_dataset(n_obs=30, seed=3)
    spec = mnl_spec()
    plan = make_folds(d, k=3, seed=0)
    moved = sorted(plan.assignments)[:10]
    assignments = {o: (7 if o in moved else f) for o, f in plan.assignments.items()}
    with pytest.raises(ValueError, match=r"fold 7, outside range\(3\)"):
        cross_validate(d, {"m": spec}, plan=FoldPlan(3, 0, assignments))
    negative = {**plan.assignments, moved[0]: -1}
    with pytest.raises(ValueError, match="fold -1"):
        cross_validate(d, {"m": spec}, plan=FoldPlan(3, 0, negative))


def test_cross_validate_counts_failed_folds():
    d = toy_dataset(n_obs=24, seed=6)
    # V = 0 at the default init violates the exponential domain, so every
    # training fit raises and every fold is a failure
    rep = cross_validate(
        d,
        {"exp": spec_for("exponential"), "mnl": mnl_spec()},
        k=3,
        seed=0,
        options=FitOptions(max_iter=50),
    )
    assert rep.failures["exp"] == 3
    assert rep.mean_test_ll["exp"] == float("-inf")
    assert rep.failures["mnl"] == 0
    assert rep.ranking() == ["mnl", "exp"]
    bad_rows = [r for r in rep.rows if r["spec"] == "exp"]
    assert all(not r["converged"] and np.isnan(r["test_ll"]) for r in bad_rows)


def test_cross_validate_counts_inadmissible_optima_as_failed(monkeypatch):
    # every training fit starts where the last uneven_logit shape underflows
    # to 0, stays there and ends outside gamma > 0
    def underflowed_shape(design, spec):
        x = np.zeros(design.packing.dim)
        x[-1] = -800.0
        return x

    monkeypatch.setattr(estimation, "default_init", underflowed_shape)
    d = scobit_dataset(60, seed=2)
    rep = cross_validate(d, {"u": spec_for("uneven_logit")}, k=3, seed=0)
    assert rep.failures == {"u": 3}
    assert all(not r["converged"] and np.isnan(r["test_ll"]) for r in rep.rows)


def test_cross_validate_counts_qgev_folds_as_failed():
    """qgev's Newton difference steps and its held-out scores can leave its
    shape-dependent domain; each such fold fails, and the run goes on."""
    d = scobit_dataset(400, 1)
    rep = cross_validate(d, {"q": spec_for("qgev"), "m": spec_for("mnl")}, k=3)
    assert rep.failures == {"q": 3, "m": 0}
    assert rep.ranking() == ["m", "q"]


def test_cross_validate_counts_unscorable_folds_as_failed(monkeypatch):
    """A held-out fold whose index leaves the domain at the training optimum
    cannot be scored: the fold fails instead of aborting the run."""
    def outside(*args, **kwargs):
        raise DomainViolation("mnl", "V > 0", -1.0)

    monkeypatch.setattr(validation, "ll_with_design", outside)
    rep = cross_validate(toy_dataset(n_obs=30, seed=3), {"m": mnl_spec()}, k=3)
    assert rep.failures == {"m": 3}
    assert all(not r["converged"] and np.isnan(r["test_ll"]) for r in rep.rows)


def test_cross_validate_equals_subset_oracle():
    """Fold fits and scores on row gathers equal those on datasets rebuilt
    through subset and build_design, bit for bit."""
    d = scobit_dataset(60, seed=2)
    specs = {t: spec_for(t)
             for t in ("mnl", "scobit", "uneven_logit", "asym_logit")}
    rep = cross_validate(d, specs, k=3, seed=2)
    uniq = d.unique_obs()
    for row in rep.rows:
        spec = specs[row["spec"]]
        test_ids = rep.plan.fold_obs(row["fold"])
        res = fit(d.subset(np.setdiff1d(uniq, test_ids)), spec)
        test_ll, _ = ll_with_design(
            build_design(d.subset(test_ids), spec), res.params
        )
        assert row == {"spec": row["spec"], "fold": row["fold"],
                       "converged": res.converged, "train_ll": res.ll,
                       "test_ll": test_ll}
