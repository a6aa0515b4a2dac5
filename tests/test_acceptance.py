"""Whole-package acceptance suite.

Each test exercises one headline guarantee end to end and prints a single
PASS line with the measured numbers (run ``pytest tests/test_acceptance.py -s``
to see every line; a failing criterion prints FAIL before the traceback).
Expected values come from exact algebra or an independent recomputation,
never from captured output of the code under test.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import expit

from flexlogit.data import (
    ChoiceDataset,
    CovariateSpec,
    SimulationConfig,
    simulate,
)
from flexlogit.estimation import FitOptions, fit
from flexlogit.inference import BootstrapRun, bca_interval
from flexlogit.likelihood import (
    NaturalParams,
    Packing,
    build_design,
    gradient_with_design,
    ll_by_alternative_with_design,
    ll_with_design,
    probabilities,
    probabilities_from_design,
)
from flexlogit.lossprob import (
    asym_nll_derivative,
    prob_from_composite,
    prob_from_cpe,
    uneven_log_loss_pair,
)
from flexlogit.policy import Scenario, TargetingProblem, select_targets, sweep
from flexlogit.transforms import (
    CORE_FAMILY_NAMES,
    RESTRICTED_FAMILY_NAMES,
    get_family,
)
from flexlogit.validation import cross_validate, make_folds

from conftest import mnl_spec, packed_fd_gradient, spec_for, toy_dataset
from interval_oracle import percentile_interval

ALL_FAMILIES = CORE_FAMILY_NAMES + RESTRICTED_FAMILY_NAMES


@contextmanager
def criterion(name):
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}: {info['detail']} [{time.perf_counter() - t0:.1f}s]")


# ---------------------------------------------------------------------------
# random instances that respect each family's index domain
# ---------------------------------------------------------------------------

# covariate range and coefficient range per family; positive boxes keep V
# inside the restricted domains (V > 0, V > 1, |V| < 1, 1 + (g-1)V > 0)
# with two covariates
_BOX = {
    "mnl": (-2.0, 2.0, -1.5, 1.5),
    "cloglog": (-2.0, 2.0, -1.5, 1.5),
    "scobit": (-2.0, 2.0, -1.5, 1.5),
    "uneven_logit": (-2.0, 2.0, -1.5, 1.5),
    "asym_logit": (-2.0, 2.0, -1.5, 1.5),
    "exponential": (0.2, 3.0, 0.4, 1.5),
    "rayleigh": (0.2, 3.0, 0.4, 1.5),
    "weibull": (0.2, 3.0, 0.4, 1.5),
    "pareto": (1.2, 3.0, 0.6, 1.2),
    "qgev": (0.05, 2.0, 0.3, 1.0),
    "czado": (-0.45, 0.45, 0.3, 0.9),
}

# families whose transform has a kink; keep indices away from it so central
# differences see a smooth function
_KINKED = {"asym_logit", "czado"}


def _family_instance(family, rng, n_obs=50, n_alts=4):
    """Random (data, spec, packing, packed point) with all rows in-domain."""
    x_lo, x_hi, b_lo, b_hi = _BOX[family]
    spec = spec_for(family, ref=n_alts)
    for _ in range(100):
        data = toy_dataset(n_obs=n_obs, n_alts=n_alts,
                           seed=int(rng.integers(2**31)), low=x_lo, high=x_hi)
        pk = Packing(spec, data.alternatives)
        x = np.empty(pk.dim)
        for m, nm in enumerate(pk.names()):
            if nm.startswith("beta:"):
                x[m] = rng.uniform(b_lo, b_hi)
            elif nm.startswith("tau:"):
                x[m] = rng.uniform(-0.5, 0.5)
            else:
                x[m] = rng.uniform(-1.0, 1.0)
        if family in _KINKED:
            v = build_design(data, spec).X @ pk.unpack(x).beta
            if np.min(np.abs(v)) <= 1e-3:
                continue
        return data, spec, pk, x
    raise AssertionError(f"could not draw an in-domain instance for {family}")


# ---------------------------------------------------------------------------
# 1. analytic gradients against central finite differences
# ---------------------------------------------------------------------------


def test_gradients_match_finite_differences_all_families():
    rng = np.random.default_rng(2024)
    worst = 0.0
    with criterion("gradient-correctness") as info:
        for family in ALL_FAMILIES:
            for _ in range(20):
                data, spec, pk, x = _family_instance(family, rng)
                g = gradient_with_design(build_design(data, spec), pk.unpack(x))
                g_fd = packed_fd_gradient(data, spec, x)
                err = float(np.max(np.abs(g - g_fd)
                                   / np.maximum(1.0, np.abs(g_fd))))
                assert err < 1e-6, (family, err)
                worst = max(worst, err)
        info["detail"] = (f"max rel err {worst:.2e} over "
                          f"{len(ALL_FAMILIES)}x20 instances (J=4, N=50)")


@pytest.mark.parametrize("use_weights", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("family,shape_ref", [(f, None) for f in ALL_FAMILIES]
                         + [("asym_logit", 1)])
def test_packed_vectors_evaluate_like_natural_params(family, shape_ref, use_weights):
    # the compiled evaluators read a packed vector through Packing.arrays; the
    # NaturalParams path is the oracle, and every kernel must see the same floats
    rng = np.random.default_rng(11)
    for _ in range(5):
        data, spec, _, x = _family_instance(family, rng)
        if shape_ref is not None:
            spec = spec_for(family, ref=4, shape_ref=shape_ref)
        if use_weights:
            data = ChoiceDataset(
                obs_ids=data.obs_ids, alt_ids=data.alt_ids, chosen=data.chosen,
                weights=np.repeat(rng.uniform(0.5, 2.0, data.n_obs), 4),
                covariates=data.covariates, columns=data.columns,
            )
        design = build_design(data, spec)
        nat = design.packing.unpack(x)
        assert (ll_with_design(design, x, use_weights)
                == ll_with_design(design, nat, use_weights))
        assert np.array_equal(gradient_with_design(design, x, use_weights),
                              gradient_with_design(design, nat, use_weights))
        assert (ll_by_alternative_with_design(design, x, use_weights)
                == ll_by_alternative_with_design(design, nat, use_weights))


# ---------------------------------------------------------------------------
# 2. probabilities form a simplex for every family
# ---------------------------------------------------------------------------


def test_probabilities_sum_to_one_all_families():
    worst = 0.0
    with criterion("normalization") as info:
        for family in ALL_FAMILIES:
            rng = np.random.default_rng(hash(family) % 2**31)
            data, spec, pk, _ = _family_instance(family, rng, n_obs=30)
            design_sums = None
            for _ in range(1000):
                _, _, _, x = _family_instance(family, rng, n_obs=30)
                P = probabilities(data, spec, pk.unpack(x))
                sums = np.add.reduceat(P, data.obs_ptr[:-1])
                gap = float(np.max(np.abs(sums - 1.0)))
                assert gap <= 1e-12, (family, gap)
                worst = max(worst, gap)
            del design_sums
        info["detail"] = (f"max |sum-1| {worst:.1e} over 1000 draws x "
                          f"{len(ALL_FAMILIES)} families")


# ---------------------------------------------------------------------------
# 3. exact reductions to the plain logit, and fitted-LL dominance
# ---------------------------------------------------------------------------


def _mnl_embedded_init(family, mnl_params, alternatives):
    """Natural parameters at which the flexible family reproduces an MNL fit."""
    beta = np.asarray(mnl_params.beta, dtype=float)
    tau = dict(mnl_params.tau)
    J = len(alternatives)
    if family in ("scobit", "uneven_logit"):
        return NaturalParams(beta=beta, tau=tau,
                             gamma={a: 1.0 for a in alternatives})
    if family == "asym_logit":
        # the family at the simplex anchor scales the index by log J
        return NaturalParams(beta=beta / math.log(J), tau=tau,
                             gamma={a: 1.0 / J for a in alternatives})
    raise ValueError(family)


def test_nesting_reductions_and_ll_dominance(mnl_sim_small, scobit_sim_small):
    with criterion("nesting-reductions") as info:
        data = toy_dataset(n_obs=60, seed=17)
        beta = np.array([-0.7, 0.4])
        tau = {1: 0.3, 2: -0.6}
        ones = {a: 1.0 for a in (1, 2, 3)}
        p_mnl = probabilities(data, mnl_spec(),
                              NaturalParams(beta=beta, tau=tau))
        for family in ("scobit", "uneven_logit"):
            p = probabilities(data, spec_for(family),
                              NaturalParams(beta=beta, tau=tau, gamma=ones))
            assert np.max(np.abs(p - p_mnl)) <= 1e-12, family

        third = {a: 1.0 / 3.0 for a in (1, 2, 3)}
        p_asym = probabilities(data, spec_for("asym_logit"),
                               NaturalParams(beta=beta, tau=tau, gamma=third))
        p_scaled = probabilities(data, mnl_spec(),
                                 NaturalParams(beta=beta * math.log(3), tau=tau))
        assert np.max(np.abs(p_asym - p_scaled)) <= 1e-10

        # each flexible family's MLE must reach at least the MNL optimum
        margins = []
        for sim_data, _, _ in (mnl_sim_small, scobit_sim_small):
            base = fit(sim_data, mnl_spec())
            for family in ("scobit", "uneven_logit", "asym_logit"):
                flex = spec_for(family)
                warm = _mnl_embedded_init(family, base.params,
                                          sim_data.alternatives)
                best = max(
                    fit(sim_data, flex).ll,
                    fit(sim_data, flex, init=warm).ll,
                )
                assert best >= base.ll - 1e-6, (family, best - base.ll)
                margins.append(best - base.ll)
        info["detail"] = (f"reductions exact; min LL margin over MNL "
                          f"{min(margins):+.2e} across 2 datasets x 3 families")


# ---------------------------------------------------------------------------
# 4. parameter recovery on large simulated samples
# ---------------------------------------------------------------------------


def test_parameter_recovery_at_scale():
    with criterion("parameter-recovery") as info:
        covs = (CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2))

        spec = mnl_spec()
        true = NaturalParams(beta=[-1.2, 0.6], tau={1: 0.4, 2: -0.4})
        data = simulate(SimulationConfig(spec=spec, true_params=true,
                                         alternatives=(1, 2, 3), n_obs=20000,
                                         covariates=covs, seed=42))
        res = fit(data, spec)
        assert res.status == "converged"
        mnl_errs = list(np.abs(np.asarray(res.params.beta) - true.beta))
        mnl_errs += [abs(res.params.tau[a] - true.tau[a]) for a in (1, 2)]
        assert max(mnl_errs) < 0.05, mnl_errs

        spec_s = spec_for("scobit")
        true_s = NaturalParams(beta=[-1.0, 0.8], tau={1: 0.4, 2: -0.2},
                               gamma={1: 2.0, 2: 1.0, 3: 0.5})
        data_s = simulate(SimulationConfig(spec=spec_s, true_params=true_s,
                                           alternatives=(1, 2, 3), n_obs=20000,
                                           covariates=covs, seed=7))
        res_s = fit(data_s, spec_s)
        assert res_s.status == "converged"
        beta_errs = np.abs(np.asarray(res_s.params.beta) - true_s.beta)
        shape_errs = [abs(res_s.params.gamma[a] - true_s.gamma[a])
                      for a in (1, 2, 3)]
        assert np.max(beta_errs) < 0.1, beta_errs
        assert max(shape_errs) < 0.3, shape_errs
        info["detail"] = (f"n=20000: plain-logit max err {max(mnl_errs):.3f} "
                          f"(tol 0.05); scobit beta {np.max(beta_errs):.3f} "
                          f"(tol 0.1), shape {max(shape_errs):.3f} (tol 0.3)")


# ---------------------------------------------------------------------------
# 5. loss-derivation oracles agree with the closed forms
# ---------------------------------------------------------------------------


def test_loss_derivation_oracles():
    with criterion("derivation-oracles") as info:
        grid = np.linspace(-6.0, 6.0, 121)
        fam = get_family("uneven_logit")
        worst_comp = 0.0
        for g in (0.3, 0.5, 1.0, 2.0, 5.0):
            p = prob_from_composite(uneven_log_loss_pair(g), grid)
            closed = expit(fam.value(grid, np.full_like(grid, g)))
            worst_comp = max(worst_comp, float(np.max(np.abs(p - closed))))
        assert worst_comp <= 1e-10

        worst_ode = 0.0
        for g in (0.2, 0.5, 0.7):
            p = prob_from_cpe(asym_nll_derivative(g, "upper"), g, grid,
                              d_loss2_dp_neg=asym_nll_derivative(g, "lower"))
            closed = np.where(grid >= 0,
                              1.0 / (1.0 + (1.0 / g - 1.0) * g ** grid),
                              1.0 / (1.0 + (1.0 / g - 1.0) * (1.0 - g) ** grid))
            worst_ode = max(worst_ode, float(np.max(np.abs(p - closed))))
        assert worst_ode <= 1e-6
        info["detail"] = (f"composite gap {worst_comp:.1e} (tol 1e-10); "
                          f"ODE gap {worst_ode:.1e} (tol 1e-6) on V in [-6, 6]")


# ---------------------------------------------------------------------------
# 6. BCa intervals: exact unit cases plus a seeded coverage experiment
# ---------------------------------------------------------------------------


def _mean_coverage(seed, n=40, B=399, reps=200, level=0.95):
    """Share of replications whose BCa interval covers the true mean 1.0."""
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(reps):
        sample = rng.exponential(1.0, size=n)
        point = np.array([sample.mean()])
        idx = rng.integers(0, n, size=(B, n))
        boots = sample[idx].mean(axis=1)[:, None]
        jack = ((sample.sum() - sample) / (n - 1))[:, None]
        run = BootstrapRun(replicate_estimates=boots, jackknife_estimates=jack,
                           seed=0, stratified=False)
        lo, hi = bca_interval(run, point, level)[0]
        hits += lo <= 1.0 <= hi
    return hits / reps


def test_bca_unit_cases_and_coverage():
    with criterion("bca-intervals") as info:
        # all replicates at the point estimate: exactly the point interval
        run = BootstrapRun(replicate_estimates=np.full((64, 1), 2.5),
                           jackknife_estimates=np.full((20, 1), 2.5),
                           seed=0, stratified=False)
        iv = bca_interval(run, np.array([2.5]), 0.95)
        assert iv[0, 0] == 2.5 == iv[0, 1]

        # symmetric replicates around the point: bias and acceleration vanish
        # and BCa reduces to the percentile interval (identical up to one
        # round trip through the normal cdf/quantile pair)
        rng = np.random.default_rng(3)
        u = rng.normal(size=300)
        w = rng.normal(size=25)
        run = BootstrapRun(replicate_estimates=np.concatenate([u, -u])[:, None],
                           jackknife_estimates=np.concatenate([w, -w])[:, None],
                           seed=0, stratified=False)
        bca = bca_interval(run, np.array([0.0]), 0.95)
        pct = percentile_interval(run, 0.95)
        np.testing.assert_allclose(bca, pct, rtol=1e-12)

        cov = _mean_coverage(seed=13)
        assert 0.90 <= cov <= 0.99, cov
        info["detail"] = (f"degenerate and symmetric cases exact; "
                          f"coverage {cov:.3f} in [0.90, 0.99] "
                          f"(200 reps, nominal 0.95)")


# ---------------------------------------------------------------------------
# 7. cross-validation: stratification invariant and model ranking
# ---------------------------------------------------------------------------


def test_crossval_stratification_and_ranking():
    with criterion("cross-validation") as info:
        data = toy_dataset(n_obs=57, seed=5)
        ids = data.unique_obs()
        chosen = data.chosen_alt_by_obs()
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            plan = make_folds(data, k, int(rng.integers(1_000_000)))
            for a in data.alternatives:
                counts = [
                    int(np.sum(chosen[np.searchsorted(ids, plan.fold_obs(f))] == a))
                    for f in range(k)
                ]
                assert max(counts) - min(counts) <= 1, (k, a, counts)

        spec = spec_for("scobit")
        true = NaturalParams(beta=[-1.0, 0.8], tau={1: 0.4, 2: -0.2},
                             gamma={1: 2.0, 2: 2.0, 3: 2.0})
        cv_data = simulate(SimulationConfig(
            spec=spec, true_params=true, alternatives=(1, 2, 3), n_obs=10000,
            covariates=(CovariateSpec("time", -2, 2),
                        CovariateSpec("cost", -2, 2)),
            seed=21))
        report = cross_validate(cv_data, {"scobit": spec, "mnl": mnl_spec()},
                                k=5, seed=0, threads=4)
        assert report.failures == {"scobit": 0, "mnl": 0}
        assert report.ranking()[0] == "scobit"
        margin = report.mean_test_ll["scobit"] - report.mean_test_ll["mnl"]
        assert margin > 0.0
        info["detail"] = (f"counts within +-1 on 50 (k, seed) pairs; held-out "
                          f"LL margin scobit over mnl {margin:+.1f} at n=10000")


# ---------------------------------------------------------------------------
# 8. policy: conservation under sweeps, greedy targeting against brute force
# ---------------------------------------------------------------------------


def _oracle_softplus(x):
    return math.log1p(math.exp(x)) if x < 30 else x


def _oracle_probs(result, rows):
    """Per-alternative choice probabilities for one observation, recomputed
    with plain python floats; rows is [(alt_id, fare, time), ...]."""
    b = [float(v) for v in np.asarray(result.params.beta)]
    tau = {int(a): float(t) for a, t in result.params.tau.items()}
    idx = []
    for alt, fare, tm in rows:
        v = b[0] * fare + b[1] * tm
        if result.spec.transform == "mnl":
            s = v
        elif result.spec.transform == "uneven_logit":
            g = float(result.params.gamma[alt])
            s = _oracle_softplus(v) - _oracle_softplus(-g * v)
        else:
            raise ValueError(result.spec.transform)
        idx.append(tau.get(alt, 0.0) + s)
    mx = max(idx)
    ex = [math.exp(t - mx) for t in idx]
    tot = sum(ex)
    return {rows[i][0]: ex[i] / tot for i in range(len(rows))}


def _oracle_targeting(data, selection, truth, budget, mult):
    """Brute-force re-derivation of the greedy selection on a tiny instance."""
    per_obs = {}
    for o in data.unique_obs():
        rows = []
        for r in range(data.n_rows):
            if data.obs_ids[r] == o:
                rows.append((int(data.alt_ids[r]),
                             float(data.covariates[r, 0]),
                             float(data.covariates[r, 1])))
        fare1 = next(f for a, f, _ in rows if a == 1)
        edited = [(a,
                   0.0 if a == 1 else (max(f - fare1, 0.0) if a == 2 else f),
                   t)
                  for a, f, t in rows]
        gain_sel = (_oracle_probs(selection, edited)[1]
                    - _oracle_probs(selection, rows)[1])
        gain_tru = (_oracle_probs(truth, edited)[1]
                    - _oracle_probs(truth, rows)[1])
        cost = mult * fare1
        per_obs[int(o)] = (gain_sel, gain_tru, cost)

    ranked = sorted(per_obs, key=lambda o: (-per_obs[o][0] / per_obs[o][2], o))
    selected, spent = [], 0.0
    for o in ranked:
        cost = per_obs[o][2]
        if spent + cost > budget:
            break  # strict prefix stop
        selected.append(o)
        spent += cost
    gain = sum(per_obs[o][1] for o in selected)
    eff = spent / gain if gain > 0 else float("inf")
    return ranked, selected, spent, gain, eff, per_obs


def test_policy_sweep_conservation_and_targeting_oracle():
    with criterion("policy-analyses") as info:
        spec = mnl_spec(columns=("fare", "time"))
        true = NaturalParams(beta=[-0.8, 0.5], tau={1: 0.3, 2: -0.2})
        sim = simulate(SimulationConfig(
            spec=spec, true_params=true, alternatives=(1, 2, 3), n_obs=80,
            covariates=(CovariateSpec("fare", 0.5, 3.0),
                        CovariateSpec("time", -1.0, 1.0)),
            seed=33))
        w_obs = np.random.default_rng(8).uniform(0.5, 2.0, sim.n_obs)
        data = ChoiceDataset(obs_ids=sim.obs_ids, alt_ids=sim.alt_ids,
                             chosen=sim.chosen, weights=np.repeat(w_obs, 3),
                             covariates=sim.covariates, columns=sim.columns)

        sel = fit(data, spec)
        assert sel.params.beta[0] < 0  # the monotonicity claim needs this

        scenario = Scenario.from_dict({
            "name": "toll",
            "edits": [{"column": "fare", "op": "add", "amount": "toll",
                       "where": {"alt_ids": [1]}}],
            "sweep": {"parameter": "toll",
                      "grid": list(np.arange(0.0, 5.01, 0.5))},
        })
        points = sweep(data, spec, sel.params, scenario)
        assert len(points) == 11
        total_w = float(np.sum(w_obs))
        tolled = []
        for point in points:
            counts = {a: c for a, (c, _) in point["by_alt"].items()}
            assert abs(sum(counts.values()) - total_w) <= 1e-9
            tolled.append(point["by_alt"][1][1])
        assert all(b - a <= 1e-12 for a, b in zip(tolled, tolled[1:]))
        drop = tolled[0] - tolled[-1]

        # greedy targeting equals an exhaustive per-individual recomputation
        truth = fit(data, spec_for("uneven_logit", columns=("fare", "time")))
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(6):
            small = toy_dataset(n_obs=int(rng.integers(6, 11)),
                                seed=int(rng.integers(2**31)),
                                columns=("fare", "time"), low=0.5, high=2.5)
            problem = TargetingProblem(data=small, selection_model=sel,
                                       truth_model=truth, target_alt=1,
                                       cost_column="fare", related_alts=(2,),
                                       cost_multiplier=22.0)
            fares = small.covariates[small.alt_ids == 1, 0]
            total = 22.0 * float(np.sum(fares))
            ranking, _, _, _, _, per0 = _oracle_targeting(
                small, sel, truth, math.inf, 22.0)
            first_cost = per0[ranking[0]][2]  # the budget gate is the top rank
            for budget in (first_cost * 1.05, 0.45 * total, 1.1 * total):
                rep = select_targets(problem, [budget])[0]
                ranked, selected, spent, gain, eff, per = _oracle_targeting(
                    small, sel, truth, budget, 22.0)
                assert list(map(int, rep.ranked_obs)) == ranked
                assert sorted(map(int, rep.selected_obs)) == sorted(selected)
                np.testing.assert_allclose(
                    rep.gain_selection, [per[o][0] for o in ranked], atol=1e-10)
                np.testing.assert_allclose(
                    rep.gain_truth, [per[o][1] for o in ranked], atol=1e-10)
                np.testing.assert_allclose(
                    rep.costs, [per[o][2] for o in ranked], atol=1e-10)
                assert rep.total_cost == pytest.approx(spent, abs=1e-9)
                assert rep.total_gain_truth == pytest.approx(gain, abs=1e-10)
                if math.isinf(eff):
                    assert math.isinf(rep.efficiency)
                else:
                    assert rep.efficiency == pytest.approx(eff, rel=1e-9)
                checked += 1

        # selections nest as the budget grows
        big = TargetingProblem(data=data, selection_model=sel,
                               truth_model=truth, target_alt=1,
                               cost_column="fare", related_alts=(2,),
                               cost_multiplier=22.0)
        prev = set()
        for budget in (60.0, 200.0, 600.0, 1500.0, 4000.0):
            now = set(int(o) for o in select_targets(big, [budget])[0].selected_obs)
            assert prev <= now, budget
            prev = now
        info["detail"] = (f"11-point sweep conserves weight to 1e-9, tolled "
                          f"share drops {drop:.3f}; greedy == brute force on "
                          f"{checked} small instances; budgets nest")


# ---------------------------------------------------------------------------
# 9. numerical stability at extreme arguments
# ---------------------------------------------------------------------------


def test_stability_extreme_arguments():
    with criterion("numerical-stability") as info:
        fam = get_family("cloglog")
        v = np.linspace(-700.0, 700.0, 10000)
        s = fam.value(v)
        assert np.all(np.isfinite(s))
        assert np.all(np.diff(s) > 0)

        # the optimizer evaluates probabilities straight from packed vectors,
        # so the no-NaN guarantee is tested on that path; the public entry
        # point would reject a float-saturated simplex (gamma rounding to
        # exactly 1) before any probability is computed
        data = toy_dataset(n_obs=25, n_alts=4, seed=2)
        rng = np.random.default_rng(6)
        checked = 0
        for family in CORE_FAMILY_NAMES:
            spec = spec_for(family, ref=4)
            pk = Packing(spec, data.alternatives)
            d = build_design(data, spec)
            patterns = [np.full(pk.dim, 50.0), np.full(pk.dim, -50.0)]
            patterns += [rng.choice([-50.0, 50.0], size=pk.dim)
                         for _ in range(4)]
            patterns += [rng.uniform(-50.0, 50.0, size=pk.dim)
                         for _ in range(4)]
            for x in patterns:
                P = probabilities_from_design(d, pk.unpack(x))
                assert np.all(np.isfinite(P))
                assert P.min() >= 0.0 and P.max() <= 1.0
                sums = np.add.reduceat(P, data.obs_ptr[:-1])
                assert np.max(np.abs(sums - 1.0)) <= 1e-9
                checked += 1
        info["detail"] = (f"cloglog finite and strictly monotone on 10000 "
                          f"points; {checked} extreme parameter vectors gave "
                          f"clean simplexes")
