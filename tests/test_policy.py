import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import policy_oracle
from flexlogit import likelihood, policy
from flexlogit.data import ChoiceDataset, CovariateSpec, SimulationConfig, simulate
from flexlogit.errors import EmptySelection, MissingColumn, NonNumericCell, SpecError
from flexlogit.estimation import fit
from flexlogit.likelihood import Coefficient, ModelSpec, NaturalParams, probabilities
from flexlogit.policy import (
    Amount,
    EditCondition,
    Scenario,
    ScenarioEdit,
    SelectionReport,
    TargetingProblem,
    apply_scenario,
    check_targeting,
    enumerate_shares,
    select_targets,
    sweep,
)

from conftest import mnl_spec, toy_dataset

SIGMOID_HALF = 0.37754066879814546  # 1 / (1 + e^0.5)


def edit(column="cost", op="add", amount=1.0, **where):
    return ScenarioEdit(column=column, op=op, amount=Amount.parse(amount), **where)


# ---------------------------------------------------------------------------
# amounts and edits
# ---------------------------------------------------------------------------


def test_amount_parsing():
    assert Amount.parse(2.5) == Amount(literal=2.5)
    assert Amount.parse("3") == Amount(literal=3.0)
    a = Amount.parse("2 * toll * crossings")
    assert a.literal == 2.0 and a.names == ("toll", "crossings")
    with pytest.raises(SpecError):
        Amount.parse("toll + 1")
    with pytest.raises(SpecError):
        Amount.parse("toll * * 2")


def test_amount_resolution_order():
    d = toy_dataset(n_obs=3, seed=0)
    # sweep values shadow covariate columns of the same name
    a = Amount.parse("cost")
    np.testing.assert_array_equal(a.evaluate(d, {}), d.column("cost"))
    np.testing.assert_array_equal(a.evaluate(d, {"cost": 7.0}), np.full(d.n_rows, 7.0))
    b = Amount.parse("2 * toll * cost")
    np.testing.assert_allclose(b.evaluate(d, {"toll": 3.0}), 6.0 * d.column("cost"))


def test_edit_validation_and_masks():
    with pytest.raises(SpecError):
        edit(op="divide")
    with pytest.raises(SpecError):
        EditCondition("cost", "approx", 1.0).mask(toy_dataset(n_obs=2))

    d = toy_dataset(n_obs=4, seed=1)
    e = edit(alt_ids=(1, 3), obs_ids=(0, 2), conditions=(EditCondition("cost", "gt", 0.0),))
    m = e.row_mask(d)
    want = (
        np.isin(d.alt_ids, (1, 3))
        & np.isin(d.obs_ids, (0, 2))
        & (d.column("cost") > 0.0)
    )
    np.testing.assert_array_equal(m, want)


def test_apply_scenario_ops():
    d = toy_dataset(n_obs=5, seed=2)
    base = d.covariates.copy()
    alt1 = d.alt_ids == 1

    got = apply_scenario(d, Scenario("a", (edit(op="add", amount=0.7, alt_ids=(1,)),)))
    np.testing.assert_allclose(
        got.column("cost"), np.where(alt1, base[:, 1] + 0.7, base[:, 1])
    )
    got = apply_scenario(d, Scenario("m", (edit(op="multiply", amount=2.0),)))
    np.testing.assert_allclose(got.column("cost"), 2.0 * base[:, 1])
    got = apply_scenario(d, Scenario("s", (edit(op="set", amount=9.0, alt_ids=(2,)),)))
    np.testing.assert_allclose(
        got.column("cost"), np.where(d.alt_ids == 2, 9.0, base[:, 1])
    )
    got = apply_scenario(d, Scenario("f", (edit(op="subtract_floor0", amount=1.0),)))
    np.testing.assert_allclose(got.column("cost"), np.maximum(base[:, 1] - 1.0, 0.0))
    assert np.all(got.column("cost") >= 0.0)

    # untouched column and untouched source
    got2 = apply_scenario(d, Scenario("a", (edit(op="add", amount=1.0),)))
    np.testing.assert_array_equal(got2.column("time"), base[:, 0])
    np.testing.assert_array_equal(d.covariates, base)


def test_apply_scenario_errors():
    d = toy_dataset(n_obs=3, seed=0)
    sc = Scenario("s", (edit(amount="toll"),), sweep_parameter="toll", sweep_grid=(1.0,))
    with pytest.raises(SpecError):
        apply_scenario(d, sc)  # sweep value not supplied
    with pytest.raises(MissingColumn):
        apply_scenario(d, Scenario("s", (edit(column="fare"),)))


def test_scenario_from_dict():
    sc = Scenario.from_dict(
        {
            "name": "tolling",
            "sweep": {"parameter": "toll", "grid": [0, 0.5, 1]},
            "edits": [
                {
                    "column": "cost",
                    "op": "add",
                    "amount": "toll",
                    "where": {
                        "alt_ids": [1],
                        "conditions": [{"column": "cost", "cmp": "ge", "value": 0.0}],
                    },
                }
            ],
        }
    )
    assert sc.name == "tolling"
    assert sc.sweep_parameter == "toll" and sc.sweep_grid == (0.0, 0.5, 1.0)
    assert sc.edits[0].alt_ids == (1,)
    assert sc.edits[0].conditions[0].cmp == "ge"


def test_unknown_comparison_rejected_at_construction():
    with pytest.raises(SpecError, match="unknown comparison 'gte'"):
        Scenario.from_dict({"edits": [{
            "column": "cost", "op": "add", "amount": 1.0,
            "where": {"conditions": [{"column": "cost", "cmp": "gte", "value": 0.0}]},
        }]})


# ---------------------------------------------------------------------------
# expected shares
# ---------------------------------------------------------------------------


def binary_cost_data(n=5):
    # equal cost within each observation, so the base split is 50/50; the
    # level varies across observations to keep the column non-constant
    level = np.linspace(0.5, 2.0, n)
    return ChoiceDataset(
        obs_ids=np.repeat(np.arange(n), 2),
        alt_ids=np.tile([1, 2], n),
        chosen=np.tile([True, False], n),
        weights=np.ones(2 * n),
        covariates=np.repeat(level, 2).reshape(2 * n, 1),
        columns=("cost",),
    )


def cost_spec():
    return ModelSpec("mnl", ref_alt=2, coefficients=(Coefficient("cost", "cost"),))


def test_enumerate_shares_counts_and_mass():
    d = toy_dataset(n_obs=40, seed=3, weights=np.linspace(1, 2, 40))
    spec = ModelSpec(
        "mnl", 3, (Coefficient("time", "time"), Coefficient("cost", "cost"))
    )
    params = NaturalParams(beta=[-0.5, -0.8], tau={1: 0.2, 2: -0.1})
    shares = enumerate_shares(d, spec, params)
    total_w = float(np.sum(d.obs_weights()))
    assert sum(c for c, _ in shares.values()) == pytest.approx(total_w, abs=1e-9)
    assert sum(s for _, s in shares.values()) == pytest.approx(1.0, abs=1e-12)
    # agrees with a direct weighted sum of probabilities
    P = probabilities(d, spec, params)
    for a in d.alternatives:
        mask = d.alt_ids == a
        assert shares[a][0] == pytest.approx(
            float(np.sum(d.weights[mask] * P[mask])), rel=1e-12
        )


def test_toll_drops_share_to_known_value():
    d = binary_cost_data()
    params = NaturalParams(beta=[-1.0])
    base = enumerate_shares(d, cost_spec(), params)
    assert base[1][1] == pytest.approx(0.5, abs=1e-12)
    sc = Scenario("toll", (edit(op="add", amount=0.5, alt_ids=(1,)),))
    tolled = enumerate_shares(d, cost_spec(), params, sc)
    assert tolled[1][1] == pytest.approx(SIGMOID_HALF, rel=1e-12)


def test_sweep_monotone_and_conserving():
    d = binary_cost_data(n=8)
    params = NaturalParams(beta=[-1.0])
    sc = Scenario(
        "toll",
        (edit(op="add", amount="toll", alt_ids=(1,)),),
        sweep_parameter="toll",
        sweep_grid=tuple(np.arange(0.0, 5.5, 0.5)),
    )
    rows = sweep(d, cost_spec(), params, sc)
    assert [r["value"] for r in rows] == [0.5 * i for i in range(11)]
    shares1 = [r["by_alt"][1][1] for r in rows]
    assert shares1[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(shares1) < 0)  # tolling the alternative always hurts it
    for r in rows:
        counts = sum(c for c, _ in r["by_alt"].values())
        assert counts == pytest.approx(8.0, abs=1e-9)
    with pytest.raises(SpecError):
        sweep(d, cost_spec(), params, Scenario("x", (edit(),)))


# ---------------------------------------------------------------------------
# targeting
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def targeting_fixture():
    spec = ModelSpec(
        "mnl",
        ref_alt=3,
        coefficients=(Coefficient("fare", "fare"), Coefficient("time", "time")),
    )
    cfg = SimulationConfig(
        spec=spec,
        true_params=NaturalParams(beta=[-0.8, 0.5], tau={1: 0.3, 2: -0.2}),
        alternatives=(1, 2, 3),
        n_obs=60,
        covariates=(CovariateSpec("fare", 0.5, 3.0), CovariateSpec("time", -1, 1)),
        seed=33,
    )
    data = simulate(cfg)
    selection = fit(data, spec)
    truth_spec = ModelSpec(
        "uneven_logit",
        ref_alt=3,
        coefficients=(Coefficient("fare", "fare"), Coefficient("time", "time")),
    )
    truth = fit(data, truth_spec)
    problem = TargetingProblem(
        data=data,
        selection_model=selection,
        truth_model=truth,
        target_alt=1,
        cost_column="fare",
        related_alts=(2,),
        cost_multiplier=22.0,
    )
    return problem


def reference_ranking(problem):
    """Independent recomputation of the gain-per-dollar ranking."""
    data = problem.data
    j = data.columns.index(problem.cost_column)
    cov = data.covariates.copy()
    n = data.n_obs
    fare = np.zeros(n)
    for i, (s, e) in enumerate(zip(data.obs_ptr[:-1], data.obs_ptr[1:])):
        for r in range(s, e):
            if data.alt_ids[r] == problem.target_alt:
                fare[i] = cov[r, j]
    for i, (s, e) in enumerate(zip(data.obs_ptr[:-1], data.obs_ptr[1:])):
        for r in range(s, e):
            if data.alt_ids[r] == problem.target_alt:
                cov[r, j] = 0.0
            elif data.alt_ids[r] in problem.related_alts:
                cov[r, j] = max(cov[r, j] - fare[i], 0.0)
    edited = data.with_covariates(cov)

    def p_target(ds, model):
        P = probabilities(ds, model.spec, model.params)
        out = np.zeros(n)
        for i, (s, e) in enumerate(zip(ds.obs_ptr[:-1], ds.obs_ptr[1:])):
            for r in range(s, e):
                if ds.alt_ids[r] == problem.target_alt:
                    out[i] = P[r]
        return out

    gain = p_target(edited, problem.selection_model) - p_target(
        data, problem.selection_model
    )
    cost = problem.cost_multiplier * fare
    ratio = [g / c if c > 0 else (np.inf if g > 0 else 0.0) for g, c in zip(gain, cost)]
    order = sorted(range(n), key=lambda i: (-ratio[i], data.unique_obs()[i]))
    return [int(data.unique_obs()[i]) for i in order], cost, gain


def test_targeting_matches_reference_ranking(targeting_fixture):
    problem = targeting_fixture
    ref_order, ref_cost, _ = reference_ranking(problem)
    rep = select_targets(problem, [1e9])[0]
    assert rep.ranked_obs.tolist() == ref_order
    # generous budget selects everyone
    assert rep.selected_obs.tolist() == ref_order
    assert rep.total_cost == pytest.approx(float(np.sum(ref_cost)), rel=1e-12)


def test_targeting_greedy_prefix(targeting_fixture):
    problem = targeting_fixture
    full = select_targets(problem, [1e9])[0]
    budget = float(np.cumsum(full.costs)[9])  # exactly ten passes
    rep = select_targets(problem, [budget])[0]
    assert rep.selected_obs.tolist() == full.ranked_obs[:10].tolist()
    assert rep.total_cost <= budget + 1e-12
    assert rep.skipped == 0
    # the prefix is maximal: the next pass does not fit
    assert rep.total_cost + full.costs[10] > budget


def test_targeting_budget_monotone(targeting_fixture):
    problem = targeting_fixture
    prev = set()
    for budget in (60.0, 120.0, 400.0, 900.0):
        rep = select_targets(problem, [budget])[0]
        got = set(rep.selected_obs.tolist())
        assert prev <= got
        prev = got


def test_targeting_skip_unaffordable(targeting_fixture):
    problem = targeting_fixture
    full = select_targets(problem, [1e9])[0]
    costs = full.costs
    k = int(np.argmin(costs))
    assert k > 0, "fixture should not rank the cheapest pass first"
    budget = float(costs[k])
    with pytest.raises(EmptySelection):
        select_targets(problem, [budget])
    rep = select_targets(problem, [budget], skip_unaffordable=True)[0]
    assert full.ranked_obs[k] in rep.selected_obs
    assert rep.skipped >= 1
    assert rep.total_cost <= budget + 1e-12


def test_targeting_efficiency(targeting_fixture):
    rep = select_targets(targeting_fixture, [500.0])[0]
    sel_mask = np.isin(rep.ranked_obs, rep.selected_obs)
    want_gain = float(np.sum(rep.gain_truth[sel_mask]))
    assert rep.total_gain_truth == pytest.approx(want_gain, rel=1e-12)
    if want_gain > 0:
        assert rep.efficiency == pytest.approx(rep.total_cost / want_gain, rel=1e-12)
    else:
        assert rep.efficiency == float("inf")
    zero = SelectionReport(
        budget=1.0, selected_obs=np.array([0]), ranked_obs=np.array([0]),
        gain_selection=np.zeros(1), gain_truth=np.zeros(1), costs=np.ones(1),
        total_cost=1.0, total_gain_truth=0.0,
    )
    assert zero.efficiency == float("inf")


def test_targeting_requires_cost_column(targeting_fixture):
    problem = targeting_fixture
    with pytest.raises(MissingColumn, match="price"):
        TargetingProblem(
            data=problem.data,
            selection_model=problem.selection_model,
            truth_model=problem.truth_model,
            target_alt=1,
            cost_column="price",
        )
    with pytest.raises(MissingColumn, match="price"):
        check_targeting(problem.data, 1, (), 22.0, "price")


def test_targeting_excludes_obs_without_target_alt(targeting_fixture):
    problem = targeting_fixture
    d = problem.data
    # drop observation 0's target-alternative row; it must leave the ranking
    keep = ~((d.obs_ids == 0) & (d.alt_ids == problem.target_alt))
    chosen = d.chosen.copy()
    if not chosen[keep][d.obs_ids[keep] == 0].any():
        rows0 = np.flatnonzero((d.obs_ids == 0) & keep)
        chosen = chosen.copy()
        chosen[rows0[0]] = True
    trimmed = ChoiceDataset(
        obs_ids=d.obs_ids[keep], alt_ids=d.alt_ids[keep], chosen=chosen[keep],
        weights=d.weights[keep], covariates=d.covariates[keep], columns=d.columns,
    )
    prob2 = TargetingProblem(
        data=trimmed,
        selection_model=problem.selection_model,
        truth_model=problem.truth_model,
        target_alt=problem.target_alt,
        cost_column="fare",
        related_alts=(2,),
    )
    rep = select_targets(prob2, [1e9])[0]
    assert 0 not in rep.ranked_obs
    assert rep.ranked_obs.shape[0] == trimmed.n_obs - 1


# ---------------------------------------------------------------------------
# one compiled design per spec
# ---------------------------------------------------------------------------


def toll_scenario():
    return Scenario(
        "toll",
        (
            edit(column="fare", op="add", amount="toll", alt_ids=(1,)),
            edit(column="fare", op="multiply", amount="1.1 * toll",
                 conditions=(EditCondition("fare", "gt", 1.5),)),
        ),
        sweep_parameter="toll",
        sweep_grid=(0.0, 0.35, 1.0, 2.5),
    )


def weighted_targeting_problem():
    data = toy_dataset(n_obs=40, seed=21, low=0.5, high=2.5,
                       columns=("time", "fare"), weights=np.linspace(0.5, 3.0, 40))
    coefs = (Coefficient("time", "time"), Coefficient("fare", "fare"))
    selection = SimpleNamespace(
        spec=ModelSpec("mnl", 3, coefs),
        params=NaturalParams(beta=[0.3, -0.9], tau={1: 0.2, 2: -0.4}),
    )
    truth = SimpleNamespace(
        spec=ModelSpec("uneven_logit", 3, coefs),
        params=NaturalParams(beta=[0.3, -0.7], tau={1: 0.1, 2: -0.3},
                             gamma={1: 2.0, 2: 1.0, 3: 0.5}),
    )
    return TargetingProblem(data=data, selection_model=selection,
                            truth_model=truth, target_alt=1,
                            cost_column="fare", related_alts=(2,))


@pytest.mark.parametrize("which", ["simulated", "weighted"])
def test_compiled_policy_equals_rebuilt_datasets(targeting_fixture, which):
    problem = targeting_fixture if which == "simulated" else weighted_targeting_problem()
    data, sc = problem.data, toll_scenario()
    for m in (problem.selection_model, problem.truth_model):
        assert sweep(data, m.spec, m.params, sc) == policy_oracle.sweep(
            data, m.spec, m.params, sc)
        for scenario, values in ((None, None), (sc, {"toll": 0.7})):
            assert enumerate_shares(data, m.spec, m.params, scenario, values) == (
                policy_oracle.enumerate_shares(data, m.spec, m.params, scenario, values)
            )
    for budgets, skip in (([40.0, 2000.0], True), ([300.0, 1e9, 300.0], False)):
        reports = select_targets(problem, budgets, skip)
        assert len(reports) == len(budgets)
        for budget, got in zip(budgets, reports):
            want = policy_oracle.select_targets(problem, budget, skip)
            for f in dataclasses.fields(SelectionReport):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, (
                    budget, f.name)


def test_policy_compiles_each_spec_once(monkeypatch, targeting_fixture):
    def refuse(self, covariates):
        raise AssertionError("scenario points reuse the compiled design")

    monkeypatch.setattr(ChoiceDataset, "with_covariates", refuse)
    calls = []
    real = policy.build_design

    def counting(data, spec):
        calls.append(spec.transform)
        return real(data, spec)

    monkeypatch.setattr(policy, "build_design", counting)
    masks = []
    real_mask = ScenarioEdit.row_mask

    def counting_mask(self, data):
        masks.append(self.op)
        return real_mask(self, data)

    monkeypatch.setattr(ScenarioEdit, "row_mask", counting_mask)
    problem = targeting_fixture
    m = problem.truth_model
    rows = sweep(problem.data, m.spec, m.params, toll_scenario())
    assert len(rows) == 4 and len(calls) == 1
    assert masks == ["add", "multiply"]  # once per edit, not once per point
    calls.clear()
    reports = select_targets(problem, [500.0, 2000.0, 8000.0])
    assert [r.budget for r in reports] == [500.0, 2000.0, 8000.0]
    assert reports[0].selected_obs.size > 0 and len(calls) == 2


def test_enumerate_shares_without_scenario_compiles_x_once(monkeypatch, targeting_fixture):
    calls = []
    for module in (policy, likelihood):
        real = module.build_design_matrix

        def counting(*args, real=real):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(module, "build_design_matrix", counting)
    m = targeting_fixture.truth_model
    enumerate_shares(targeting_fixture.data, m.spec, m.params)
    assert len(calls) == 1


def test_sweep_over_empty_grid_checks_edit_columns():
    d = toy_dataset(n_obs=3, seed=0)
    sc = Scenario("s", (edit(column="fare", amount="toll"),), sweep_parameter="toll")
    with pytest.raises(MissingColumn, match="fare"):
        sweep(d, mnl_spec(), NaturalParams(beta=[0.1, -0.2]), sc)


def test_scenario_may_make_generic_column_constant():
    # the collinearity check is about identification when estimating; it
    # runs on the unedited data, and the edited probabilities are well defined
    d = toy_dataset(n_obs=10)
    spec = ModelSpec(
        "mnl", 3, (Coefficient("time", "time"), Coefficient("cost", "cost"))
    )
    params = NaturalParams(beta=[-0.5, -0.8], tau={1: 0.2, 2: -0.1})
    free = Scenario("free", (edit(op="set", amount=0.0),))
    got = enumerate_shares(d, spec, params, free)
    time_only = ModelSpec("mnl", 3, (Coefficient("time", "time"),))
    want = enumerate_shares(d, time_only, NaturalParams(beta=[-0.5], tau=params.tau))
    for a in d.alternatives:
        assert got[a] == pytest.approx(want[a], rel=1e-12)
    swept = Scenario("free", (edit(op="set", amount="c"),), "c", (0.0, 1.0))
    rows = sweep(d, spec, params, swept)
    assert rows[0]["by_alt"] == got
    assert sum(s for _, s in rows[1]["by_alt"].values()) == pytest.approx(1.0)


def test_non_finite_edit_raises_non_numeric_cell(targeting_fixture):
    d = toy_dataset(n_obs=10)
    spec = ModelSpec(
        "mnl", 3, (Coefficient("time", "time"), Coefficient("cost", "cost"))
    )
    params = NaturalParams(beta=[-0.5, -0.8], tau={1: 0.2, 2: -0.1})
    msg = "covariates contain NaN or infinite entries"
    blow = Scenario("blow", (edit(op="multiply", amount="1e308 * 1e308"),))
    with pytest.raises(NonNumericCell, match=msg):
        enumerate_shares(d, spec, params, blow)
    blow_k = Scenario("blow", (edit(op="multiply", amount="1e308 * k"),), "k", (1.0, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonNumericCell, match=msg):
        sweep(d, spec, params, blow_k)

    # the pass edit overflows: a related fare minus a negative target fare
    problem = targeting_fixture
    data = problem.data
    cov = data.covariates.copy()
    j = data.columns.index("fare")
    cov[(data.obs_ids == 0) & (data.alt_ids == 1), j] = -1e308
    cov[(data.obs_ids == 0) & (data.alt_ids == 2), j] = 1e308
    bad = dataclasses.replace(problem, data=data.with_covariates(cov))
    with np.errstate(over="ignore"), pytest.raises(NonNumericCell, match=msg):
        select_targets(bad, [1e9])


@pytest.mark.parametrize("field, value, message", [
    ("cost_multiplier", -1.0, "cost_multiplier must be finite and > 0, got -1.0"),
    ("cost_multiplier", 0.0, "cost_multiplier must be finite and > 0, got 0.0"),
    ("cost_multiplier", float("inf"), "cost_multiplier must be finite and > 0, got inf"),
    ("cost_multiplier", float("nan"), "cost_multiplier must be finite and > 0, got nan"),
    ("target_alt", 9, r"target_alt 9 is not an alternative of the data \[1, 2, 3\]"),
    ("related_alts", (2, 9),
     r"related_alts entry 9 is not an alternative of the data \[1, 2, 3\]"),
])
def test_targeting_problem_rejects_bad_inputs(targeting_fixture, field, value, message):
    with pytest.raises(SpecError, match=message):
        dataclasses.replace(targeting_fixture, **{field: value})
