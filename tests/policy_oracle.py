"""Share sweeps and targeting evaluated on rebuilt datasets: the oracle for
``flexlogit.policy``.

Every scenario point here builds an edited ``ChoiceDataset`` through
``with_covariates`` and calls ``likelihood.probabilities``, which validates
the parameters and compiles the edited data from scratch. ``policy``
compiles each (data, spec) pair once and recomputes only the index design
matrix per point; the tests require both to give equal arrays.
"""

import numpy as np

from flexlogit.errors import EmptySelection
from flexlogit.likelihood import probabilities
from flexlogit.policy import SelectionReport, apply_scenario


def enumerate_shares(data, spec, params, scenario=None, values=None):
    edited = apply_scenario(data, scenario, values) if scenario else data
    P = probabilities(edited, spec, params)
    w_rows = edited.weights
    total = float(np.sum(edited.obs_weights()))
    out = {}
    for a in edited.alternatives:
        mask = edited.alt_ids == a
        count = float(np.sum(w_rows[mask] * P[mask]))
        out[int(a)] = (count, count / total)
    return out


def sweep(data, spec, params, scenario):
    return [
        {
            "value": float(value),
            "by_alt": enumerate_shares(
                data, spec, params, scenario, {scenario.sweep_parameter: value}
            ),
        }
        for value in scenario.sweep_grid
    ]


def _pass_edited(problem):
    data = problem.data
    j = data.columns.index(problem.cost_column)
    cov = np.array(data.covariates)
    col = cov[:, j]
    target_rows = data.alt_ids == problem.target_alt
    fare_by_obs = np.zeros(data.n_obs)
    obs_pos = np.repeat(np.arange(data.n_obs), np.diff(data.obs_ptr))
    fare_by_obs[obs_pos[target_rows]] = col[target_rows]
    fare_rows = fare_by_obs[obs_pos]
    for a in problem.related_alts:
        rows = data.alt_ids == a
        cov[rows, j] = np.maximum(col[rows] - fare_rows[rows], 0.0)
    cov[target_rows, j] = 0.0
    return data.with_covariates(cov)


def _target_probability(data, model, target_alt):
    P = probabilities(data, model.spec, model.params)
    rows = data.alt_ids == target_alt
    obs_pos = np.repeat(np.arange(data.n_obs), np.diff(data.obs_ptr))
    out = np.zeros(data.n_obs)
    out[obs_pos[rows]] = P[rows]
    return out


def select_targets(problem, budget, skip_unaffordable=False):
    data = problem.data
    edited = _pass_edited(problem)
    target = problem.target_alt
    gain = _target_probability(edited, problem.selection_model, target) - (
        _target_probability(data, problem.selection_model, target)
    )
    gain_truth = _target_probability(edited, problem.truth_model, target) - (
        _target_probability(data, problem.truth_model, target)
    )

    obs = data.unique_obs()
    col = data.column(problem.cost_column)
    target_rows = data.alt_ids == target
    obs_pos = np.repeat(np.arange(data.n_obs), np.diff(data.obs_ptr))
    fare = np.zeros(data.n_obs)
    fare[obs_pos[target_rows]] = col[target_rows]
    has_target = np.zeros(data.n_obs, dtype=bool)
    has_target[obs_pos[target_rows]] = True
    cost = problem.cost_multiplier * fare

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            cost > 0, gain / np.where(cost > 0, cost, 1.0),
            np.where(gain > 0, np.inf, 0.0),
        )
    ratio = np.where(has_target, ratio, -np.inf)
    order = np.lexsort((obs, -ratio))
    order = order[has_target[order]]

    selected, skipped, spent = [], 0, 0.0
    for i in order:
        c = float(cost[i])
        if spent + c <= budget:
            selected.append(i)
            spent += c
        elif skip_unaffordable:
            skipped += 1
        else:
            break
    if not selected:
        raise EmptySelection("budget cannot afford even the top-ranked individual")
    sel = np.array(selected, dtype=np.int64)
    return SelectionReport(
        budget=float(budget),
        selected_obs=obs[sel],
        ranked_obs=obs[order],
        gain_selection=gain[order],
        gain_truth=gain_truth[order],
        costs=cost[order],
        total_cost=float(spent),
        total_gain_truth=float(np.sum(gain_truth[sel])),
        skipped=skipped,
    )
