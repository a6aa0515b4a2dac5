import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import flexlogit
from flexlogit import estimation, inference, likelihood
from flexlogit.data import ChoiceDataset, load_csv
from flexlogit.errors import (
    DegenerateSharesWarning,
    DomainViolation,
    EstimationError,
    InadmissibleOptimum,
    InvalidParams,
    NonFiniteObjectiveAtInit,
    SpecDataMismatch,
)
from flexlogit.estimation import FitOptions, default_init, fd_hessian, fit
from flexlogit.likelihood import (
    Coefficient,
    ModelSpec,
    NaturalParams,
    Packing,
    build_design,
    gradient_with_design,
    ll_with_design,
    log_likelihood,
)
from flexlogit.validation import make_folds

import cascade_oracle
from bfgs_oracle import identity_bfgs, identity_start
from cascade_oracle import staged
from conftest import mnl_spec, scobit_dataset, spec_for, toy_dataset

LN4 = 1.3862943611198906


def identity_warm_start(design, spec):
    """The default init with the identity as its inverse Hessian: a warm
    start, whose BFGS phase keeps the plain relative stall rule and so
    reaches the Newton phase on the tests' markets."""
    x0 = default_init(design, spec)
    return estimation._WarmStart(x0, np.eye(x0.shape[0]))


def test_fit_options():
    o = FitOptions()
    assert (o.tol_grad, o.tol_ll, o.max_iter) == (1e-5, 1e-9, 500)
    assert o.multistart == 0 and not o.use_weights
    assert FitOptions.from_dict({"max_iter": 42}).max_iter == 42
    with pytest.raises(ValueError):
        FitOptions.from_dict({"tol": 1e-3})


def shares_82_dataset():
    # 8 of 10 observations choose alternative 1
    n = 10
    chosen_alt = np.array([1] * 8 + [2] * 2)
    return ChoiceDataset(
        obs_ids=np.repeat(np.arange(n), 2),
        alt_ids=np.tile([1, 2], n),
        chosen=np.repeat(chosen_alt, 2) == np.tile([1, 2], n),
        weights=np.ones(2 * n),
        covariates=np.linspace(0, 1, 2 * n).reshape(-1, 1),
        columns=("x",),
    )


def test_default_init_matches_shares():
    d = shares_82_dataset()
    spec = mnl_spec(ref=2, columns=("x",))
    x0 = default_init(d, spec)
    # beta zero, tau_1 = log(0.8 / 0.2)
    assert x0[0] == 0.0
    assert x0[1] == pytest.approx(LN4, rel=1e-12)
    # intercept-only model: this init is already stationary in tau
    pk = Packing(spec, d.alternatives)
    g = gradient_with_design(build_design(d, spec), pk.unpack(x0))
    assert abs(g[1]) < 1e-12


def test_default_init_shapes_flat():
    d = toy_dataset(n_obs=12, seed=3)
    x0 = default_init(d, spec_for("scobit"))
    assert np.all(x0[-3:] == 0.0)  # log gamma = 0, i.e. gamma = 1


def test_default_init_degenerate_shares():
    d = ChoiceDataset(
        obs_ids=[0, 0, 0, 1, 1, 1],
        alt_ids=[1, 2, 3, 1, 2, 3],
        chosen=[True, False, False, True, False, False],
        weights=np.ones(6),
        covariates=np.arange(6.0).reshape(6, 1),
        columns=("x",),
    )
    with pytest.warns(DegenerateSharesWarning):
        x0 = default_init(d, mnl_spec(columns=("x",)))
    assert np.all(x0 == 0.0)


def test_fit_mnl_converges(mnl_sim_small):
    data, spec, true = mnl_sim_small
    res = fit(data, spec)
    assert res.converged and res.status == "converged"
    assert res.grad_norm_inf < 1e-5
    assert res.optimizer_used.startswith("bfgs")
    assert res.iterations > 0
    assert res.param_names == ["beta:time", "beta:cost", "tau:1", "tau:2"]
    # accepted points never lower the log-likelihood
    assert np.all(np.diff(res.ll_path) >= -1e-9)
    assert res.ll == pytest.approx(res.ll_path[-1], abs=1e-9)
    # the maximum dominates the truth
    assert res.ll >= log_likelihood(data, spec, true) - 1e-6
    # crude recovery bound for n = 600
    np.testing.assert_allclose(res.params.beta, true.beta, atol=0.2)
    assert sum(res.ll_by_alt.values()) == pytest.approx(res.ll, rel=1e-12)
    assert res.n_floored == 0


def test_fit_hessian_is_concave_maximum(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    res = fit(data, spec)
    H = fd_hessian(data, spec, res.params)
    np.testing.assert_allclose(H, H.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(H) < 0)
    # quadratic model sanity: LL(x + d) - LL(x) ~ g.d + d.H.d / 2
    rng = np.random.default_rng(0)
    d = 1e-2 * rng.standard_normal(res.packed.shape[0])
    pk = build_design(data, spec).packing
    lhs = log_likelihood(data, spec, pk.unpack(res.packed + d)) - res.ll
    quad = float(res.score @ d + 0.5 * d @ H @ d)
    assert lhs == pytest.approx(quad, abs=5e-2 * abs(quad) + 1e-8)


def test_fit_computes_no_hessian(mnl_sim_small, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("fd_hessian called")

    monkeypatch.setattr("flexlogit.estimation.fd_hessian", boom)
    data, spec, _ = mnl_sim_small
    assert fit(data, spec).converged
    # the Newton phase, reached through a stall, differences the score on its own
    res = fit(data, spec, options=FitOptions(tol_ll=1e6, tol_grad=1e-14))
    assert res.optimizer_used == "bfgs+newton"
    assert not hasattr(res, "hessian")
    assert list(inspect.signature(fit).parameters) == ["data", "spec", "init", "options"]


def test_fd_hessian_is_exported():
    assert flexlogit.fd_hessian is fd_hessian


def test_refit_from_optimum_is_immediate(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    res = fit(data, spec)
    again = fit(data, spec, init=res.packed)
    assert again.converged
    assert again.iterations <= 2
    assert again.ll == pytest.approx(res.ll, abs=1e-10)


def test_fit_accepts_natural_init(mnl_sim_small):
    data, spec, true = mnl_sim_small
    res = fit(data, spec, init=true)
    assert res.converged
    with pytest.raises(ValueError):
        fit(data, spec, init=np.zeros(3))


def test_fit_scobit_dominates_truth(scobit_sim_small):
    data, spec, true = scobit_sim_small
    res = fit(data, spec)
    assert res.converged
    assert res.ll >= log_likelihood(data, spec, true) - 1e-6
    np.testing.assert_allclose(res.params.beta, true.beta, atol=0.35)


def test_nonfinite_at_init_raises():
    # V = x.beta = 0 at the default start violates the V > 0 domain
    data = toy_dataset(n_obs=10, seed=2)
    with pytest.raises(NonFiniteObjectiveAtInit):
        fit(data, spec_for("exponential"))


def test_inadmissible_optimum_is_an_estimation_error():
    # exp(-800) underflows: the last uneven_logit shape is 0, outside gamma > 0,
    # where the log-likelihood is still finite
    d = scobit_dataset(150, seed=4)
    spec = spec_for("uneven_logit")
    x = np.zeros(Packing(spec, d.alternatives).dim)
    x[-1] = -800.0
    with pytest.raises(InadmissibleOptimum, match="gamma > 0") as err:
        fit(d, spec, init=x, options=FitOptions(max_iter=0))
    assert isinstance(err.value, EstimationError)
    assert isinstance(err.value.__cause__, InvalidParams)


def test_multistart_deterministic(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    opts = FitOptions(multistart=3, seed=123)
    r1 = fit(data, spec, options=opts)
    r2 = fit(data, spec, options=opts)
    np.testing.assert_array_equal(r1.packed, r2.packed)
    single = fit(data, spec)
    assert r1.ll >= single.ll - 1e-8


def test_weighted_fit_equals_duplicated_rows():
    d = toy_dataset(n_obs=30, seed=13, weights=np.full(30, 2.0))
    spec = mnl_spec()
    dup = d.resample(np.repeat(d.unique_obs(), 2))
    res_w = fit(d, spec, options=FitOptions(use_weights=True))
    res_d = fit(dup, spec)
    assert res_w.ll == pytest.approx(res_d.ll, rel=1e-9)
    np.testing.assert_allclose(res_w.packed, res_d.packed, atol=1e-5)


def test_budget_exhaustion_reports_max_iters(mnl_sim_small):
    data, spec, _ = mnl_sim_small
    res = fit(data, spec, options=FitOptions(max_iter=1, tol_grad=1e-14))
    assert res.status == "max_iters"
    assert res.optimizer_used == "bfgs"
    assert res.iterations == 1


def test_fd_hessian_matches_score_differences(mnl_sim_small):
    data, spec, true = mnl_sim_small
    design = build_design(data, spec)
    pk = design.packing
    H = fd_hessian(design, spec, true)
    x = pk.pack(true)
    e = np.zeros(pk.dim)
    e[0] = 1e-5
    col = (
        gradient_with_design(design, pk.unpack(x + e))
        - gradient_with_design(design, pk.unpack(x - e))
    ) / 2e-5
    np.testing.assert_allclose(H[:, 0], col, rtol=1e-6, atol=1e-6)


def test_fit_unpacks_once(monkeypatch):
    # evaluations read packed vectors directly; only the result's params are
    # unpacked, and fd_hessian differences packed vectors without unpacking
    calls = []
    unpack = Packing.unpack

    def counted(self, vec):
        calls.append(1)
        return unpack(self, vec)

    monkeypatch.setattr(Packing, "unpack", counted)
    data, spec = scobit_dataset(100, 0), spec_for("scobit")
    res = fit(data, spec, init=identity_warm_start(data, spec))
    assert "newton" in res.optimizer_used
    assert len(calls) == 1
    fd_hessian(data, spec, res.params)
    assert len(calls) == 1


def test_design_compiled_against_another_spec_is_refused():
    # the two specs differ only in the alternatives one coefficient enters
    data = scobit_dataset(100, 0)
    a = spec_for("scobit")
    b = ModelSpec("scobit", ref_alt=3, coefficients=(
        Coefficient("time", "time"), Coefficient("cost", "cost", alts=(1, 2))))
    design = build_design(data, a)
    res = fit(design, a)
    for call in (lambda: fit(design, b),
                 lambda: fd_hessian(design, b, res.params),
                 lambda: default_init(design, b)):
        with pytest.raises(SpecDataMismatch, match="another spec"):
            call()
    assert fit(data, b).spec == b


def test_pack_recomputes_a_stale_shape_cache():
    # unpack caches the unconstrained shapes; once gamma no longer matches
    # them, by replace or by an in-place edit, pack works from gamma
    data, spec = scobit_dataset(400, 7), spec_for("scobit")
    res = fit(data, spec)
    pk = build_design(data, spec).packing
    shapes = slice(pk.n_beta + pk.n_tau, None)
    edited = dataclasses.replace(res.params, gamma={1: 3.0, 2: 1.0, 3: 0.5})
    assert np.array_equal(pk.pack(edited)[shapes], np.log([3.0, 1.0, 0.5]))
    start = fit(data, spec, init=edited, options=FitOptions(max_iter=0))
    assert start.ll == pytest.approx(log_likelihood(data, spec, edited), rel=1e-12)

    res.params.gamma[1] = 3.0
    want = pk.pack(dataclasses.replace(res.params, packed_shapes=None))
    assert np.array_equal(pk.pack(res.params), want)
    assert pk.pack(res.params)[shapes][0] == np.log(3.0)


def test_stall_is_reported_as_stalled(mnl_sim_small):
    # every accepted step changes the log-likelihood by less than tol_ll: a
    # warm start stalls after two BFGS and two Newton steps
    data, spec, _ = mnl_sim_small
    opts = FitOptions(tol_ll=1e6, tol_grad=1e-14)
    res = fit(data, spec, init=identity_warm_start(data, spec), options=opts)
    assert res.status == "stalled"
    assert res.optimizer_used == "bfgs+newton"
    assert res.iterations == 4


def test_cold_bfgs_step_that_shrinks_the_score_is_no_stall(mnl_sim_small):
    """A cold BFGS phase counts a step as a stall only when it also leaves
    |g|_inf no smaller, so with every gain below ``tol_ll`` it goes on while
    the score shrinks; its warm twin stalls after two steps."""
    data, spec, _ = mnl_sim_small
    opts = FitOptions(tol_ll=1e6, tol_grad=1e-14)
    res = fit(data, spec, options=opts)
    assert res.iterations > 4
    assert res.converged and res.grad_norm_inf < 1e-14
    with staged():
        want = fit(data, spec, options=opts)
    assert (want.status, want.iterations) == ("stalled", 4)


def test_failed_bfgs_line_search_hands_over_to_newton(monkeypatch):
    data, spec = toy_dataset(n_obs=40), mnl_spec()
    want = fit(data, spec)
    assert want.optimizer_used == "bfgs"

    def refuse_first(backtrack):
        calls = []

        def refusing(*args):
            calls.append(1)
            return None if len(calls) == 1 else backtrack(*args)

        return refusing

    monkeypatch.setattr(estimation, "_backtrack", refuse_first(estimation._backtrack))
    res = fit(data, spec)
    # BFGS stops at its start point; Newton, not a BFGS retry, takes over
    assert res.optimizer_used == "bfgs+newton"
    assert res.converged
    assert res.ll == pytest.approx(want.ll, abs=1e-8)
    # the two budgeted stages of the oracle, refused the same first line
    # search, take the same steps
    monkeypatch.setattr(cascade_oracle, "backtrack", refuse_first(cascade_oracle.backtrack))
    with staged():
        staged_res = fit(data, spec)
    assert np.array_equal(res.packed, staged_res.packed)
    assert (res.iterations, res.ll_path) == (staged_res.iterations, staged_res.ll_path)


def _refit_case():
    """A replicate-style refit: a resample warm-started from the full fit
    with the identity as its inverse Hessian."""
    data, spec = scobit_dataset(400, 1), spec_for("scobit")
    design = build_design(data, spec)
    full = fit(design, spec)
    rows = np.sort(np.random.default_rng(5).integers(0, 400, 400))
    return design.take(rows), spec, estimation._WarmStart(full.packed, np.eye(full.packed.size))


def _jackknife_case():
    """A jackknife-style refit: one observation left out, warm-started from
    the full fit with (-H)^-1 at it as its inverse Hessian."""
    data, spec = scobit_dataset(400, 1), spec_for("scobit")
    design = build_design(data, spec)
    full = fit(design, spec)
    h0 = inference._curvature_seed(design, full, FitOptions())
    return design.take(np.delete(np.arange(400), 7)), spec, estimation._WarmStart(
        full.packed, h0)


def _identity_start_case(n_obs, transform):
    def make():
        design = build_design(scobit_dataset(n_obs, 1), spec_for(transform))
        return design, design.spec, identity_warm_start(design, design.spec)
    return make


# case -> (data, spec, init) and the oracle's optimizer and status
ONE_LOOP_CASES = {
    "mnl_converges_in_bfgs": (lambda: (scobit_dataset(400, 1), spec_for("mnl"), None),
                              "bfgs", "converged"),
    "scobit_stalls_then_converges": (
        _identity_start_case(400, "scobit"), "bfgs+newton", "converged"),
    "uneven_logit_stalls_then_converges": (
        _identity_start_case(400, "uneven_logit"), "bfgs+newton", "converged"),
    "czado_stalls_then_converges": (
        _identity_start_case(400, "czado"), "bfgs+newton", "converged"),
    "asym_logit_stalls_twice": (
        _identity_start_case(300, "asym_logit"), "bfgs+newton", "stalled"),
    "warm_refit": (_refit_case, "bfgs+newton", "converged"),
    "jackknife_refit": (_jackknife_case, "bfgs", "converged"),
}


@pytest.mark.parametrize("case", sorted(ONE_LOOP_CASES))
def test_one_loop_repeats_the_staged_oracle(case):
    """A warm-started fit, or a cold one whose BFGS phase never stalls, that
    ends within ``max_iter`` accepted steps gets the bits of the two budgeted
    stages of ``cascade_oracle``; the ``*_stalls_*`` cases start from the
    default init with the identity as their inverse Hessian. A forced BFGS
    line-search failure is checked in
    ``test_failed_bfgs_line_search_hands_over_to_newton``."""
    make, stage, status = ONE_LOOP_CASES[case]
    data, spec, init = make()
    res = fit(data, spec, init=init)
    with staged():
        want = fit(data, spec, init=init)
    assert (want.optimizer_used, want.status) == (stage, status)
    assert want.iterations <= FitOptions().max_iter
    assert np.array_equal(res.packed, want.packed)
    assert res.ll == want.ll
    assert (res.iterations, res.status, res.optimizer_used) == (
        want.iterations, want.status, want.optimizer_used)
    assert res.ll_path == want.ll_path


STALLED_COLD_CASES = {
    "scobit": (400, "converged"),
    "uneven_logit": (400, "converged"),
    "czado": (400, "converged"),
    "asym_logit": (300, "stalled"),
}


@pytest.mark.parametrize("transform", sorted(STALLED_COLD_CASES))
def test_cold_fit_reaches_the_staged_optimum(transform):
    """Cold fits whose BFGS phase the oracle's relative rule stalls take
    other steps under the score-aware rule, and reach the oracle's optimum:
    within 1e-6 in log-likelihood, the tolerance of the scaled-start
    comparison, which |g|_inf < tol_grad = 1e-5 at n = 400 leaves room for
    (czado moves by 9e-8, the others by less than 5e-9)."""
    n_obs, status = STALLED_COLD_CASES[transform]
    design = build_design(scobit_dataset(n_obs, 1), spec_for(transform))
    res = fit(design, design.spec)
    with staged():
        want = fit(design, design.spec)
    assert want.optimizer_used == "bfgs+newton"
    assert res.status == want.status == status
    assert res.ll == pytest.approx(want.ll, abs=1e-6)


def test_one_budget_covers_both_phases(mnl_sim_small):
    """Every accepted step of a warm start stalls: BFGS stalls after two, and
    the Newton phase gets what is left of the budget, not a budget of its
    own."""
    data, spec, _ = mnl_sim_small
    init = identity_warm_start(data, spec)
    opts = FitOptions(tol_ll=1e6, tol_grad=1e-14, max_iter=3)
    res = fit(data, spec, init=init, options=opts)
    assert (res.status, res.optimizer_used, res.iterations) == (
        "max_iters", "bfgs+newton", 3)
    assert len(res.ll_path) == 4
    with staged():
        want = fit(data, spec, init=init, options=opts)
    assert (want.status, want.iterations) == ("stalled", 4)


def count_forward_passes(monkeypatch):
    calls = []
    forward = likelihood._forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(likelihood, "_forward", counted)
    return calls


def test_budget_used_up_in_bfgs_ends_the_fit(mnl_sim_small, monkeypatch):
    """A BFGS phase that uses up ``max_iter`` ends the fit: one forward pass
    at the start, one per accepted step (here each line search's first
    trial) and one at the end, and no Newton phase, whose every iteration
    would difference the score 2 dim times."""
    passes = count_forward_passes(monkeypatch)
    data, spec, _ = mnl_sim_small
    res = fit(data, spec, options=FitOptions(max_iter=5, tol_grad=1e-14))
    assert (res.status, res.optimizer_used, res.iterations) == ("max_iters", "bfgs", 5)
    assert len(passes) == 7


def test_one_forward_pass_per_trial(monkeypatch):
    """The start point and each line search's first trial get the
    log-likelihood and the score from one forward pass, and the end point
    its log-likelihood and the split by alternative from one more. So a fit
    makes trials + 2 passes, plus one score pass per iteration whose
    accepted trial was not its first; evaluating f and g apart took
    trials + iterations + 4, 27 passes on this fit."""
    passes = count_forward_passes(monkeypatch)
    counts = {"trials": 0, "later_accepted": 0}
    inside = []
    ll, backtrack = estimation.ll_with_design, estimation._backtrack

    def counted_ll(*args, **kwargs):
        counts["trials"] += bool(inside)
        return ll(*args, **kwargs)

    def counted_backtrack(*args):
        inside.append(1)
        try:
            step = backtrack(*args)
        finally:
            inside.pop()
        counts["later_accepted"] += step is not None and step[2] is None
        return step

    monkeypatch.setattr(estimation, "ll_with_design", counted_ll)
    monkeypatch.setattr(estimation, "_backtrack", counted_backtrack)
    res = fit(toy_dataset(n_obs=40), mnl_spec())
    assert (res.status, res.optimizer_used, res.iterations) == ("converged", "bfgs", 11)
    assert len(passes) == counts["trials"] + 2 + counts["later_accepted"]
    assert (counts["trials"], counts["later_accepted"], len(passes)) == (12, 1, 15)
    assert counts["trials"] + res.iterations + 4 == 27


@pytest.mark.parametrize("use_weights", [False, True])
def test_fit_tail_is_one_pass_with_the_evaluators_bits(use_weights):
    """``ll``, ``n_floored`` and ``ll_by_alt`` at the optimum come from one
    pass, with the bits of a plain log-likelihood pass and of the split the
    fit used to compute in a pass of its own."""
    data = scobit_dataset(300, 5, weights=np.linspace(0.5, 2.0, 300))
    spec = spec_for("scobit")
    design = build_design(data, spec)
    res = fit(design, spec, options=FitOptions(use_weights=use_weights))
    assert (res.ll, res.n_floored) == ll_with_design(design, res.packed, use_weights)
    _, logp, *_ = likelihood._forward(design, res.packed)
    contrib = (design.weights_obs if use_weights else 1.0) * logp
    chosen_alt = design.chosen_alt_by_obs()
    assert res.ll_by_alt == {
        int(a): float(np.sum(contrib[chosen_alt == a])) for a in design.alternatives}


def _load_bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crossval_input_set_13_mnl_fold_converges(tmp_path):
    """The benchmark's crossval input set 13 (``bench/run.py --workload
    crossval --seed 13``): under the relative stall rule alone, the cold mnl
    fit on fold 4's training rows stalled at |g|_inf = 1.1e-5, since each
    full Newton step changed the log-likelihood by less than its rounding,
    Armijo took half steps at equal values, and two zero-gain steps ended the
    fit one halving of the score short of ``tol_grad``."""
    workloads = _load_bench_workloads()
    workloads.generate("crossval", 13, tmp_path)
    data = load_csv(tmp_path / "data.csv")
    plan = make_folds(data, workloads.CROSSVAL_K, seed=13)
    fold = np.array([plan.assignments[o] for o in data.unique_obs().tolist()])
    spec = ModelSpec.from_json(tmp_path / "mnl.json")
    res = fit(build_design(data, spec).take(np.flatnonzero(fold != 4)), spec)
    assert res.status == "converged"
    assert res.grad_norm_inf < FitOptions().tol_grad


def test_newton_difference_step_outside_the_domain_ends_the_fit():
    """qgev's domain depends on its shapes; the Newton phase's difference
    steps leave it, which ends the fit as a failed line search instead of
    raising out of ``fit``."""
    data, spec = scobit_dataset(400, 1), spec_for("qgev")
    res = fit(data, spec)
    assert (res.status, res.optimizer_used) == ("line_search_failed", "bfgs+newton")
    assert np.isfinite(res.ll) and res.iterations < FitOptions().max_iter
    with staged(), pytest.raises(DomainViolation):
        fit(data, spec)


@pytest.mark.parametrize("case", ["bfgs", "newton", "max_iters"])
def test_objective_calls_are_line_search_trials_plus_two(case, mnl_sim_small,
                                                         monkeypatch):
    """A single-start fit evaluates the log-likelihood once at its start, once
    per line-search trial and once at its end; ``bench/tracing.py`` counts
    backtracks as objective evaluations - iterations - 2 per fit."""
    newton_data, newton_spec = scobit_dataset(100, 0), spec_for("scobit")
    data, spec, init, opts, stage, status = {
        "bfgs": (toy_dataset(n_obs=40), mnl_spec(), None, FitOptions(), "bfgs",
                 "converged"),
        "newton": (newton_data, newton_spec,
                   identity_warm_start(newton_data, newton_spec), FitOptions(),
                   "bfgs+newton", "converged"),
        "max_iters": (*mnl_sim_small[:2], None, FitOptions(max_iter=1, tol_grad=1e-14),
                      "bfgs", "max_iters"),
    }[case]
    counts = {"all": 0, "trials": 0}
    inside = []
    ll, backtrack = estimation.ll_with_design, estimation._backtrack

    def counted_ll(*args, **kwargs):
        counts["all"] += 1
        counts["trials"] += bool(inside)
        return ll(*args, **kwargs)

    def counted_backtrack(*args):
        inside.append(1)
        try:
            return backtrack(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(estimation, "ll_with_design", counted_ll)
    monkeypatch.setattr(estimation, "_backtrack", counted_backtrack)
    res = fit(data, spec, init=init, options=opts)
    assert (res.optimizer_used, res.status) == (stage, status)
    assert counts["all"] == counts["trials"] + 2
    assert counts["trials"] >= res.iterations


SCALED_START_FAMILIES = ("mnl", "cloglog", "scobit", "uneven_logit", "asym_logit", "czado")


@pytest.fixture(scope="module")
def scobit_4000():
    return scobit_dataset(4000, 2)


@pytest.mark.parametrize("transform", SCALED_START_FAMILIES)
def test_scaled_start_reaches_the_identity_start_optimum(transform, scobit_4000):
    """A cold fit starts BFGS at the gradient's scale and ends where the
    identity-start BFGS of the oracle ends."""
    spec = spec_for(transform)
    design = build_design(scobit_4000, spec)
    res = fit(design, spec)
    with identity_start():
        want = fit(design, spec)
    assert res.status == want.status == "converged"
    assert res.ll == pytest.approx(want.ll, abs=1e-6)


@pytest.mark.parametrize("transform", ["mnl", "scobit"])
def test_given_identity_is_the_unscaled_start(transform):
    """An inverse Hessian passed with the init is used as given: passing I
    repeats the identity-start oracle bit for bit."""
    d, spec = scobit_dataset(300, 1), spec_for(transform)
    design = build_design(d, spec)
    x0 = default_init(design, spec)
    res = fit(design, spec, init=estimation._WarmStart(x0, np.eye(x0.shape[0])))
    with identity_start():
        want = fit(design, spec)
    assert np.array_equal(res.packed, want.packed)
    assert (res.iterations, res.status, res.optimizer_used) == (
        want.iterations, want.status, want.optimizer_used)
    assert res.ll_path == want.ll_path


def test_scaled_start_first_direction_and_first_update():
    g = np.array([30.0, -40.0, 0.0])  # |g| = 50
    direction, update = estimation._make_bfgs()
    assert np.array_equal(direction(np.zeros(3), g), -g / 50.0)
    small = np.array([0.3, -0.4, 0.0])  # |g| < 1: the plain steepest step
    assert np.array_equal(direction(np.zeros(3), small), -small)
    s, y = np.array([0.1, 0.2, -0.1]), np.array([0.5, 0.1, -0.2])
    update(s, y)
    # the oracle's update from (s'y / y'y) I is the scaled start's first update
    h0 = float(s @ y) / float(y @ y) * np.eye(3)
    want_direction, want_update = identity_bfgs(h0)
    want_update(s, y)
    assert np.array_equal(direction(np.zeros(3), g), want_direction(np.zeros(3), g))


def test_scaled_start_needs_few_objective_evaluations_at_large_n(monkeypatch):
    """The score is a sum over 20,000 observations; from the unscaled identity
    the first BFGS steps backtracked a dozen times each."""
    calls = [0]
    ll = estimation.ll_with_design

    def counted(*args, **kwargs):
        calls[0] += 1
        return ll(*args, **kwargs)

    monkeypatch.setattr(estimation, "ll_with_design", counted)
    res = fit(scobit_dataset(20000, 2), spec_for("scobit"))
    assert res.converged
    assert calls[0] <= res.iterations + 10
