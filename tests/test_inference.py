import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest

from flexlogit.data import ChoiceDataset
from flexlogit.errors import (
    DegenerateDistribution,
    InadmissibleOptimum,
    NegativeStatBeyondSlack,
    TooManyFailures,
)
from flexlogit.estimation import FitOptions, fit
from flexlogit import estimation, inference
from flexlogit.inference import (
    BootstrapRun,
    bca_interval,
    bootstrap,
    chi2_sf,
    lr_test,
    _curvature_seed,
    _refit,
    _resample_positions,
)
from flexlogit.likelihood import build_design
from flexlogit.validation import cross_validate, make_folds

from conftest import mnl_spec, scobit_dataset, spec_for, toy_dataset
from interval_oracle import percentile_interval
from resample_oracle import resample_ids

ORACLE_FAMILIES = ("mnl", "scobit", "uneven_logit", "asym_logit")


def test_chi2_sf_frozen_values():
    # 3.841459 is the 95th percentile of chi-square(1)
    assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(11.0705, 5) == pytest.approx(0.05, abs=1e-4)
    assert 0.0 < chi2_sf(100.0, 1) < 1e-20


def test_lr_test_basics():
    r = lr_test(-100.0, -102.5, df=3)
    assert r.stat == pytest.approx(5.0)
    assert r.df == 3
    assert r.p_value == pytest.approx(chi2_sf(5.0, 3), rel=1e-12)
    with pytest.raises(ValueError):
        lr_test(-100.0, -102.5, df=0)


def test_lr_test_negative_slack():
    # within optimizer slack: clamp to zero
    r = lr_test(-100.0000002, -100.0, df=1)
    assert r.stat == 0.0 and r.p_value == 1.0
    # far beyond slack: the nesting claim is wrong
    with pytest.raises(NegativeStatBeyondSlack):
        lr_test(-101.0, -100.0, df=1)


def test_lr_test_accepts_results(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    full = fit(data, spec)
    restricted = fit(data, mnl_spec(columns=("time",)))
    r = lr_test(full, restricted, df=1)
    assert r.stat >= 0.0
    assert r.p_value == pytest.approx(chi2_sf(r.stat, 1), rel=1e-12)


def test_stratified_resample_preserves_class_counts():
    d = toy_dataset(n_obs=60, seed=8)
    chosen = d.chosen_alt_by_obs()
    uniq = d.unique_obs()
    by_alt = {a: int(np.sum(chosen == a)) for a in d.alternatives}
    rng = np.random.default_rng(4)
    ids = resample_ids(d, rng, stratified=True)
    assert ids.shape == uniq.shape
    alt_of = dict(zip(uniq.tolist(), chosen.tolist()))
    got = {a: 0 for a in d.alternatives}
    for i in ids:
        got[alt_of[int(i)]] += 1
    assert got == by_alt


def test_unstratified_resample_draws_from_all():
    d = toy_dataset(n_obs=60, seed=8)
    rng = np.random.default_rng(4)
    ids = resample_ids(d, rng, stratified=False)
    assert ids.shape == d.unique_obs().shape
    assert set(ids) <= set(d.unique_obs().tolist())


@pytest.mark.parametrize("stratified", [True, False])
def test_position_draws_equal_id_draws(stratified):
    """Draws of positions on the design are the id draws of the oracle,
    located among the sorted observation ids."""
    d = toy_dataset(n_obs=50, seed=8)
    d = ChoiceDataset(obs_ids=7 * d.obs_ids + 100, alt_ids=d.alt_ids, chosen=d.chosen,
                      weights=d.weights, covariates=d.covariates, columns=d.columns)
    design = build_design(d, mnl_spec())
    uniq = d.unique_obs()
    for seed in range(5):
        ids = resample_ids(d, np.random.default_rng(seed), stratified)
        got = _resample_positions(design, np.random.default_rng(seed), stratified)
        assert np.array_equal(got, np.searchsorted(uniq, ids))


def test_bootstrap_deterministic_across_threads():
    d = toy_dataset(n_obs=25, seed=14)
    spec = mnl_spec()
    r1 = bootstrap(d, spec, B=8, seed=5, threads=1)
    r2 = bootstrap(d, spec, B=8, seed=5, threads=4)
    np.testing.assert_array_equal(r1.replicate_estimates, r2.replicate_estimates)
    np.testing.assert_array_equal(r1.jackknife_estimates, r2.jackknife_estimates)
    assert r1.n_replicates == 8
    assert r1.jackknife_estimates.shape == (25, 4)
    assert r1.failures == 0
    assert r1.full.param_names == ["beta:time", "beta:cost", "tau:1", "tau:2"]
    # the returned full-sample fit is the one a separate call makes
    alone = fit(d, spec)
    assert np.array_equal(r1.full.packed, alone.packed)
    assert r1.full.ll_by_alt == alone.ll_by_alt
    # a different seed moves the replicates
    r3 = bootstrap(d, spec, B=8, seed=6, threads=1)
    assert not np.array_equal(r1.replicate_estimates, r3.replicate_estimates)


def test_bootstrap_needs_a_replicate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("B is checked before any fit")

    monkeypatch.setattr("flexlogit.inference.fit", refuse)
    for B in (0, -2):
        with pytest.raises(ValueError, match="B must be at least 1"):
            bootstrap(toy_dataset(n_obs=10), mnl_spec(), B=B)


def test_bootstrap_too_many_failures():
    d = toy_dataset(n_obs=20, seed=14)
    # a zero-iteration budget cannot converge anywhere
    with pytest.raises(TooManyFailures):
        bootstrap(d, mnl_spec(), B=5, options=FitOptions(max_iter=0))


def test_bootstrap_keeps_rare_alternative():
    """Alternative 4 is offered only in observation 7, so the jackknife
    sample without it never offers 4; every refit still uses the full
    packed layout."""
    d = toy_dataset(n_obs=60, seed=8)
    chosen = d.chosen.copy()
    chosen[d.obs_ids == 7] = False
    rare = ChoiceDataset(
        obs_ids=np.append(d.obs_ids, 7),
        alt_ids=np.append(d.alt_ids, 4),
        chosen=np.append(chosen, True),
        weights=np.append(d.weights, 1.0),
        covariates=np.vstack([d.covariates, [[0.5, -0.5]]]),
        columns=d.columns,
    )
    run = bootstrap(rare, mnl_spec(), B=5)
    assert run.full.param_names == [
        "beta:time", "beta:cost", "tau:1", "tau:2", "tau:4"
    ]
    assert run.replicate_estimates.shape == (5, 5)
    assert run.jackknife_estimates.shape == (60, 5)
    assert run.failures == 0


def _assert_same_design(a, b):
    for name in ("X", "alt_index", "obs_ptr", "row_obs", "chosen",
                 "chosen_rows", "weights_obs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.alternatives == b.alternatives


@pytest.mark.parametrize("transform", ORACLE_FAMILIES)
def test_gathered_refits_equal_rebuilt_datasets(transform):
    """Refits on row gathers of one design equal refits on datasets rebuilt
    through resample and subset, bit for bit, warm and cold."""
    d = scobit_dataset(60, seed=1, weights=np.linspace(0.5, 2.0, 60))
    spec = spec_for(transform)
    opts = FitOptions(use_weights=True)
    design = build_design(d, spec)
    x_hat = fit(design, spec, options=opts).packed
    uniq = d.unique_obs()

    def same_fit(gathered, rebuilt, init):
        a = fit(gathered, spec, init=init, options=opts)
        b = fit(rebuilt, spec, init=init, options=opts)
        assert np.array_equal(a.packed, b.packed)
        assert a.ll == b.ll and a.ll_by_alt == b.ll_by_alt

    for b in range(3):
        ids = resample_ids(d, np.random.default_rng(b), stratified=True)
        gathered = design.take(np.searchsorted(uniq, ids))
        rebuilt = d.resample(ids)
        _assert_same_design(gathered, build_design(rebuilt, spec))
        same_fit(gathered, rebuilt, x_hat)
        same_fit(gathered, rebuilt, None)
    for i in (0, 17, 59):
        gathered = design.take(np.delete(np.arange(60), i))
        rebuilt = d.subset(np.delete(uniq, i))
        _assert_same_design(gathered, build_design(rebuilt, spec))
        same_fit(gathered, rebuilt, x_hat)


def test_refits_do_not_rebuild_datasets(monkeypatch):
    def refuse(self, obs):
        raise AssertionError("refits gather rows of one compiled design")

    monkeypatch.setattr(ChoiceDataset, "subset", refuse)
    monkeypatch.setattr(ChoiceDataset, "resample", refuse)
    d = toy_dataset(n_obs=25, seed=14)
    run = bootstrap(d, mnl_spec(), B=4, seed=1)
    assert run.jackknife_estimates.shape == (25, 4)
    assert run.failures == 0
    rep = cross_validate(d, {"m": mnl_spec()}, k=3)
    assert rep.failures == {"m": 0}


SEEDED_CASES = {
    "mnl": (lambda: toy_dataset(n_obs=120, seed=21), mnl_spec()),
    "scobit": (lambda: scobit_dataset(150, seed=4), spec_for("scobit")),
}


@functools.lru_cache(maxsize=None)
def _unseeded_run(case, B=6, seed=3):
    """The stratified bootstrap with every refit's BFGS started from the
    identity: the oracle of the curvature-seeded jackknife."""
    make, spec = SEEDED_CASES[case]
    data = make()
    design = build_design(data, spec)
    full = fit(design, spec)
    uniq = data.unique_obs()
    reps = [
        _refit(design.take(np.searchsorted(uniq, resample_ids(
            data, np.random.default_rng(np.random.SeedSequence((seed, b))), True
        ))), full.packed, FitOptions())[0]
        for b in range(B)
    ]
    n = uniq.shape[0]
    jack = [_refit(design.take(np.delete(np.arange(n), i)), full.packed,
                   FitOptions())[0] for i in range(n)]
    return full, np.vstack(reps), np.vstack(jack)


@pytest.mark.parametrize("case", sorted(SEEDED_CASES))
def test_seeded_jackknife_matches_identity_start(case):
    """Jackknife refits start BFGS from the full-sample (-H)^-1 and land
    within 10 tol_grad of the identity-start refits; the replicates and the
    full fit keep the identity start and their bits."""
    make, spec = SEEDED_CASES[case]
    run = bootstrap(make(), spec, B=6, seed=3)
    full, reps, jack = _unseeded_run(case)
    assert np.array_equal(run.full.packed, full.packed)
    assert np.array_equal(run.replicate_estimates, reps)
    assert np.max(np.abs(run.jackknife_estimates - jack)) <= 1e-4
    # the seed took effect: the jackknife does not repeat the oracle's bits
    assert not np.array_equal(run.jackknife_estimates, jack)


def test_jackknife_without_positive_definite_curvature_is_unseeded(monkeypatch):
    make, spec = SEEDED_CASES["scobit"]
    # -H = -I is not positive definite: the refits start from the identity
    monkeypatch.setattr(inference, "fd_hessian",
                        lambda design, *a: np.eye(design.packing.dim))
    run = bootstrap(make(), spec, B=6, seed=3)
    full, reps, jack = _unseeded_run("scobit")
    assert np.array_equal(run.replicate_estimates, reps)
    assert np.array_equal(run.jackknife_estimates, jack)


def test_seeded_bootstrap_does_not_depend_on_threads():
    make, spec = SEEDED_CASES["scobit"]
    d = make()
    r1 = bootstrap(d, spec, B=6, seed=3, threads=1)
    r2 = bootstrap(d, spec, B=6, seed=3, threads=2)
    assert np.array_equal(r1.replicate_estimates, r2.replicate_estimates)
    assert np.array_equal(r1.jackknife_estimates, r2.jackknife_estimates)
    assert np.array_equal(r1.full.packed, r2.full.packed)
    assert r1.failures == r2.failures


@pytest.mark.parametrize("case", sorted(SEEDED_CASES))
def test_seeded_jackknife_refits_evaluate_less(case, monkeypatch):
    make, spec = SEEDED_CASES[case]
    d = make()
    design = build_design(d, spec)
    opts = FitOptions()
    full = fit(design, spec, options=opts)
    h0 = _curvature_seed(design, full, opts)
    assert h0 is not None
    calls = [0]
    objective = estimation.ll_with_design

    def counted(*args, **kwargs):
        calls[0] += 1
        return objective(*args, **kwargs)

    monkeypatch.setattr(estimation, "ll_with_design", counted)
    n = d.unique_obs().shape[0]

    def evaluations(seed):
        calls[0] = 0
        for i in range(0, n, 5):
            _refit(design.take(np.delete(np.arange(n), i)), full.packed,
                   opts, seed)
        return calls[0]

    assert evaluations(h0) < evaluations(None)


def test_refit_from_inadmissible_optimum_falls_back_to_cold_fit():
    make, spec = SEEDED_CASES["scobit"]
    spec = dataclasses.replace(spec, transform="uneven_logit")
    design = build_design(make(), spec)
    x = np.zeros(design.packing.dim)
    x[-1] = -800.0  # the last shape underflows to 0 and stays there
    with pytest.raises(InadmissibleOptimum):
        fit(design, spec, init=x)
    packed, converged = _refit(design, x, FitOptions())
    cold = fit(design, spec)
    assert converged and cold.converged
    assert np.array_equal(packed, cold.packed)


def test_negative_seeds_are_rejected_before_any_fit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the seed is checked before any fit")

    monkeypatch.setattr("flexlogit.inference.fit", refuse)
    d = toy_dataset(n_obs=10)
    with pytest.raises(ValueError, match="bootstrap seed must be >= 0, got -1"):
        bootstrap(d, mnl_spec(), B=2, seed=-1)
    with pytest.raises(ValueError, match="fold seed must be >= 0, got -1"):
        make_folds(d, k=2, seed=-1)
    with pytest.raises(ValueError, match="fit option seed must be an integer >= 0"):
        FitOptions(multistart=1, seed=-1)


def _run_from(reps, jack):
    return BootstrapRun(
        replicate_estimates=np.asarray(reps, dtype=float).reshape(len(reps), -1),
        jackknife_estimates=np.asarray(jack, dtype=float).reshape(len(jack), -1),
        seed=0,
        stratified=True,
    )


def test_bca_degenerate_distribution():
    run = _run_from([1.5] * 30, [1.5] * 10)
    ci = bca_interval(run, np.array([1.5]))
    assert ci.tolist() == [[1.5, 1.5]]
    with pytest.raises(DegenerateDistribution):
        bca_interval(run, np.array([2.0]))


def test_bca_reduces_to_percentile_when_symmetric():
    """Exactly half the replicates below the point and a skewless jackknife
    mean z0 = a = 0, and the BCa endpoints are plain percentiles."""
    rng = np.random.default_rng(9)
    u = rng.uniform(0.1, 2.0, 250)
    reps = np.concatenate([-u, u])  # symmetric around 0, no ties at 0
    w = rng.uniform(0.5, 1.0, 20)
    jack = np.concatenate([-w, w])
    run = _run_from(reps, jack)
    bca = bca_interval(run, np.array([0.0]))
    perc = percentile_interval(run)
    # equal up to the ndtr(ndtri(alpha)) round trip, one ulp of alpha
    np.testing.assert_allclose(bca, perc, rtol=1e-12)


def test_bca_shifts_with_bias():
    rng = np.random.default_rng(10)
    reps = rng.normal(0.0, 1.0, 400)
    jack = rng.normal(0.0, 0.05, 25)
    # point below the replicate median -> fewer reps below it -> z0 < 0
    run = _run_from(reps, jack)
    point = np.quantile(reps, 0.30)
    bca = bca_interval(run, np.array([point]))
    perc = percentile_interval(run)
    assert bca[0, 0] <= perc[0, 0]
    assert bca[0, 1] <= perc[0, 1]


def test_bca_large_acceleration_keeps_endpoints_ordered():
    """Every replicate below the point (z0 > 0) and a strongly skewed
    jackknife (a ~ 0.16) put the 99.9% upper level past the pole of the BCa
    map, where 1 - a(z0 + z) <= 0; the level is then the limit 1, not the
    far end of the wrong tail."""
    reps = np.random.default_rng(0).normal(0.0, 1.0, 2000) - 10.0
    jack = np.zeros(50)
    jack[0] = -50.0
    run = _run_from(reps, jack)
    ci = bca_interval(run, np.array([0.0]), level=0.999)
    assert ci[0, 0] <= ci[0, 1]
    assert ci[0, 1] == np.max(reps)


def test_bootstrap_bca_end_to_end():
    d = toy_dataset(n_obs=30, seed=31)
    spec = mnl_spec()
    run = bootstrap(d, spec, B=19, seed=2)
    point = fit(d, spec).packed
    ci = bca_interval(run, point)
    assert ci.shape == (4, 2)
    assert np.all(np.isfinite(ci))
    assert np.all(ci[:, 0] <= ci[:, 1])
    # nondegenerate data: the intervals have width
    assert np.all(ci[:, 1] - ci[:, 0] > 0)


def test_bca_rejects_mismatched_point():
    run = _run_from(np.arange(10.0), np.arange(5.0))
    with pytest.raises(ValueError):
        bca_interval(run, np.zeros(3))


@pytest.mark.parametrize("level", [-0.2, 0.0, 1.0, 1.5, float("nan")])
def test_bca_rejects_level_outside_unit_interval(level):
    # -0.2 used to return lo > hi; 1.0 and 1.5 failed inside np.quantile
    run = _run_from(np.arange(10.0), np.arange(5.0))
    with pytest.raises(ValueError, match=rf"level must be in \(0, 1\), got {level!r}"):
        bca_interval(run, np.array([4.5]), level)


def test_bca_normal_functions_agree_with_scipy(monkeypatch):
    """``statistics.NormalDist`` in place of scipy's ``ndtr``/``ndtri`` moves
    the endpoints by at most a few ulps: 1e-14 of the replicates' scale."""
    from scipy.special import ndtr, ndtri

    rng = np.random.default_rng(12)
    runs = [
        _run_from(rng.normal(0.3, 1.0, (400, 3)), rng.normal(0.0, 0.05, (25, 3))),
        _run_from(rng.gamma(2.0, 1.0, (199, 2)), rng.gamma(2.0, 0.1, (40, 2)) ** 3),
    ]
    levels = (0.5, 0.9, 0.95, 0.99, 0.999)
    point = [np.full(3, 0.25), np.array([1.5, 2.5])]
    got = [bca_interval(r, p, lv) for r, p in zip(runs, point) for lv in levels]
    monkeypatch.setattr(inference, "_NORMAL", SimpleNamespace(cdf=ndtr, inv_cdf=ndtri))
    want = [bca_interval(r, p, lv) for r, p in zip(runs, point) for lv in levels]
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-14 * np.max(np.abs(w)))
