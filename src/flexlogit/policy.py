"""Counterfactual scenarios, share sweeps, and budgeted targeting.

A ``Scenario`` is a declarative list of covariate edits (add, multiply, set,
or subtract floored at zero) applied to the rows matched by a predicate over
alternative ids, observation ids, and covariate conditions. Edit amounts are
tiny product expressions that may reference a sweep parameter and other
covariate columns, e.g. ``"toll * crossings"``. Scenarios never mutate the
input dataset; ``apply_scenario`` returns an edited copy.

``enumerate_shares`` aggregates predicted probabilities into expected
per-alternative counts E[N_j] = sum_i w_i P_ij, and ``sweep`` repeats that
over a grid of the scenario's sweep parameter, compiling the data and finding
the row masks once: each point recomputes only the edited covariates and X.

``select_targets`` ranks individuals for an incentive (a fare subsidy whose
cost is borne per selected individual) by predicted probability gain per
dollar under a selection model, takes the affordable prefix of the ranking,
and evaluates the realized efficiency of that selection under a separate
truth model: total cost divided by the truth model's total probability gain.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .data import ChoiceDataset
from .errors import EmptySelection, MissingColumn, NonNumericCell, SpecError
from .estimation import EstimationResult
from .likelihood import (ModelSpec, NaturalParams, build_design, build_design_matrix,
                         probabilities_from_design, validate_params)

__all__ = [
    "EditCondition",
    "ScenarioEdit",
    "Scenario",
    "apply_scenario",
    "enumerate_shares",
    "sweep",
    "TargetingProblem",
    "check_targeting",
    "SelectionReport",
    "select_targets",
]

_OPS = {
    "add": np.add,
    "multiply": np.multiply,
    "set": lambda old, amount: amount,
    "subtract_floor0": lambda old, amount: np.maximum(old - amount, 0.0),
}
_CMPS = {
    "gt": np.greater,
    "ge": np.greater_equal,
    "lt": np.less,
    "le": np.less_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}
_TOKEN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class EditCondition:
    """Numeric row filter: column <cmp> value."""

    column: str
    cmp: str
    value: float

    def __post_init__(self):
        if self.cmp not in _CMPS:
            raise SpecError(f"unknown comparison {self.cmp!r}; use {sorted(_CMPS)}")

    def mask(self, data: ChoiceDataset) -> np.ndarray:
        return _CMPS[self.cmp](data.column(self.column), self.value)


@dataclass(frozen=True)
class Amount:
    """Product of a numeric literal and named factors.

    Named factors resolve against the sweep parameter values first, then
    against covariate columns, so ``"toll * crossings"`` multiplies the swept
    toll by each row's crossing count.
    """

    literal: float = 1.0
    names: tuple[str, ...] = ()

    @classmethod
    def parse(cls, raw) -> "Amount":
        if isinstance(raw, (int, float)):
            return cls(literal=float(raw))
        literal, names = 1.0, []
        for tok in str(raw).split("*"):
            tok = tok.strip()
            if not tok:
                raise SpecError(f"empty factor in amount expression {raw!r}")
            try:
                literal *= float(tok)
                continue
            except ValueError:
                pass
            if not _TOKEN.match(tok):
                raise SpecError(f"bad factor {tok!r} in amount expression {raw!r}")
            names.append(tok)
        return cls(literal=literal, names=tuple(names))

    def evaluate(self, data: ChoiceDataset, values: dict[str, float]) -> np.ndarray:
        out = np.full(data.n_rows, self.literal)
        for name in self.names:
            if name in values:
                out = out * values[name]
            else:
                out = out * data.column(name)
        return out


@dataclass(frozen=True)
class ScenarioEdit:
    column: str
    op: str
    amount: Amount
    alt_ids: tuple[int, ...] | None = None
    obs_ids: tuple[int, ...] | None = None
    conditions: tuple[EditCondition, ...] = ()

    def __post_init__(self):
        if self.op not in _OPS:
            raise SpecError(f"unknown edit op {self.op!r}; use {tuple(_OPS)}")

    def row_mask(self, data: ChoiceDataset) -> np.ndarray:
        mask = np.ones(data.n_rows, dtype=bool)
        if self.alt_ids is not None:
            mask &= np.isin(data.alt_ids, np.asarray(self.alt_ids))
        if self.obs_ids is not None:
            mask &= np.isin(data.obs_ids, np.asarray(self.obs_ids))
        for cond in self.conditions:
            mask &= cond.mask(data)
        return mask


@dataclass(frozen=True)
class Scenario:
    """Named edit list with an optional sweep parameter."""

    name: str
    edits: tuple[ScenarioEdit, ...]
    sweep_parameter: str | None = None
    sweep_grid: tuple[float, ...] = ()

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        edits = []
        for e in d["edits"]:
            where = e.get("where", {})
            edits.append(
                ScenarioEdit(
                    column=e["column"],
                    op=e["op"],
                    amount=Amount.parse(e["amount"]),
                    alt_ids=tuple(where["alt_ids"]) if "alt_ids" in where else None,
                    obs_ids=tuple(where["obs_ids"]) if "obs_ids" in where else None,
                    conditions=tuple(
                        EditCondition(c["column"], c["cmp"], float(c["value"]))
                        for c in where.get("conditions", ())
                    ),
                )
            )
        sweep_cfg = d.get("sweep") or {}
        return cls(
            name=d.get("name", "scenario"),
            edits=tuple(edits),
            sweep_parameter=sweep_cfg.get("parameter"),
            sweep_grid=tuple(float(x) for x in sweep_cfg.get("grid", ())),
        )

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def apply_scenario(
    data: ChoiceDataset,
    scenario: Scenario,
    values: dict[str, float] | None = None,
) -> ChoiceDataset:
    """Return an edited copy of the dataset; the input is untouched."""
    targets = _edit_targets(data, scenario)
    return data.with_covariates(_edited_covariates(data, scenario, values, targets))


def _edit_targets(data: ChoiceDataset, scenario: Scenario) -> list:
    """(edit, column index, row mask) of every edit. Masks and conditions read
    the unedited data, so none of these depends on the swept value."""
    for edit in scenario.edits:
        if edit.column not in data.columns:
            raise MissingColumn(f"edit targets unknown column {edit.column!r}")
    return [(e, data.columns.index(e.column), e.row_mask(data)) for e in scenario.edits]


def _edited_covariates(data: ChoiceDataset, scenario: Scenario, values,
                       targets) -> np.ndarray:
    values = dict(values or {})
    if scenario.sweep_parameter and scenario.sweep_parameter not in values:
        raise SpecError(
            f"scenario sweeps {scenario.sweep_parameter!r}; pass its value"
        )
    cov = np.array(data.covariates)
    # an overflowing amount is caught by the finiteness checks downstream
    with np.errstate(over="ignore", invalid="ignore"):
        for edit, j, mask in targets:
            amount = edit.amount.evaluate(data, values)[mask]
            cov[mask, j] = _OPS[edit.op](cov[mask, j], amount)
    return cov


def _probabilities_at(data, design, params, cov) -> np.ndarray:
    """Probabilities with ``cov`` as the covariates, on the compiled rows; the
    identification checks ran on the unedited data, so ``cov`` may not pass them."""
    if not np.all(np.isfinite(cov)):
        raise NonNumericCell("covariates contain NaN or infinite entries")
    X, _ = build_design_matrix(design.spec, cov, data.columns, data.alt_ids, design.alternatives)
    return probabilities_from_design(replace(design, X=X), params)


def _share_tables(data, design, params, scenario, points) -> list[dict]:
    """{alt: (expected count, share)} at each values dict in ``points``; the
    edit targets, the per-alternative rows and the total weight are found
    once, before the first point."""
    targets = _edit_targets(data, scenario) if scenario else None
    total = float(np.sum(data.obs_weights()))
    masks = [(int(a), data.alt_ids == a) for a in data.alternatives]
    tables = []
    for values in points:
        if scenario:
            cov = _edited_covariates(data, scenario, values, targets)
            P = _probabilities_at(data, design, params, cov)
        else:
            P = probabilities_from_design(design, params)
        counts = {a: float(np.sum(data.weights[m] * P[m])) for a, m in masks}
        tables.append({a: (c, c / total) for a, c in counts.items()})
    return tables


def enumerate_shares(
    data: ChoiceDataset,
    spec: ModelSpec,
    params: NaturalParams,
    scenario: Scenario | None = None,
    values: dict[str, float] | None = None,
) -> dict[int, tuple[float, float]]:
    """Expected count and share per alternative under an optional scenario.

    E[N_j] = sum over rows of alternative j of w_i P_ij; the counts sum to
    the total observation weight, the shares to one.
    """
    validate_params(spec, params, data.alternatives)
    return _share_tables(data, build_design(data, spec), params, scenario, [values])[0]


def sweep(
    data: ChoiceDataset,
    spec: ModelSpec,
    params: NaturalParams,
    scenario: Scenario,
) -> list[dict]:
    """Expected counts/shares at every grid point of the sweep parameter."""
    if not scenario.sweep_parameter:
        raise SpecError("scenario has no sweep parameter")
    validate_params(spec, params, data.alternatives)
    design = build_design(data, spec)
    grid = scenario.sweep_grid
    tables = _share_tables(data, design, params, scenario,
                           [{scenario.sweep_parameter: v} for v in grid])
    return [{"value": float(v), "by_alt": t} for v, t in zip(grid, tables)]


# -- targeting ---------------------------------------------------------------


@dataclass(frozen=True)
class TargetingProblem:
    """Free-pass targeting: who gets the incentive under a budget.

    The incentive zeroes the target alternative's cost column for the
    selected individual and reduces the related alternatives' costs by the
    individual's target-alternative fare, floored at zero (those alternatives
    partially embed the subsidized fare). The per-individual program cost is
    ``cost_multiplier`` times the fare, e.g. workdays per month when fares
    are per-trip and the pass is monthly. A multiplier that is not finite
    and > 0, or a target or related alternative the data does not have,
    raises ``SpecError``; a cost column the data does not have raises
    ``MissingColumn``.
    """

    data: ChoiceDataset
    selection_model: EstimationResult
    truth_model: EstimationResult
    target_alt: int
    cost_column: str
    related_alts: tuple[int, ...] = ()
    cost_multiplier: float = 22.0

    def __post_init__(self):
        check_targeting(self.data, self.target_alt, self.related_alts,
                        self.cost_multiplier, self.cost_column)


def check_targeting(data: ChoiceDataset, target_alt, related_alts,
                    cost_multiplier, cost_column) -> None:
    """The checks of ``TargetingProblem``, which need no fitted model: a
    caller can run them on the data before fitting the two models."""
    m = cost_multiplier
    if isinstance(m, bool) or not isinstance(m, Real) or not (math.isfinite(m) and m > 0):
        raise SpecError(f"cost_multiplier must be finite and > 0, got {m!r}")
    alts = data.alternatives
    if target_alt not in alts:
        raise SpecError(f"target_alt {target_alt!r} is not an alternative "
                        f"of the data {list(alts)}")
    for a in related_alts:
        if a not in alts:
            raise SpecError(f"related_alts entry {a!r} is not an alternative "
                            f"of the data {list(alts)}")
    data.column(cost_column)


@dataclass
class SelectionReport:
    budget: float
    selected_obs: np.ndarray
    ranked_obs: np.ndarray
    gain_selection: np.ndarray  # per ranked individual, selection model
    gain_truth: np.ndarray  # per ranked individual, truth model
    costs: np.ndarray  # per ranked individual
    total_cost: float
    total_gain_truth: float
    skipped: int = 0

    @property
    def efficiency(self) -> float:
        """Dollars per unit of truth-model probability gain; lower is better."""
        if self.total_gain_truth <= 0:
            return float("inf")
        return self.total_cost / self.total_gain_truth


def _pass_edited(problem: TargetingProblem, row_obs, target_rows) -> np.ndarray:
    data = problem.data
    col = data.column(problem.cost_column)
    j = data.columns.index(problem.cost_column)
    cov = np.array(data.covariates)
    # fare of the target alternative, broadcast to the observation's rows
    fare_by_obs = np.zeros(data.n_obs)
    fare_by_obs[row_obs[target_rows]] = col[target_rows]
    fare_rows = fare_by_obs[row_obs]
    for a in problem.related_alts:
        rows = data.alt_ids == a
        cov[rows, j] = np.maximum(col[rows] - fare_rows[rows], 0.0)
    cov[target_rows, j] = 0.0
    return cov


def select_targets(
    problem: TargetingProblem,
    budgets,
    skip_unaffordable: bool = False,
) -> list[SelectionReport]:
    """Greedy prefix selection by predicted gain per dollar, for each budget.

    Individuals are ranked once by (selection-model probability gain) / (pass
    cost), descending, ties broken by ascending observation id; the reports
    share the ranked arrays. For each budget, in order, selection walks the
    ranking and stops at the first individual whose cost would exceed the
    remaining budget; with ``skip_unaffordable`` it instead skips them and
    keeps walking. Raises ``EmptySelection`` if a budget affords no one.
    """
    data = problem.data
    models = (problem.selection_model, problem.truth_model)
    for m in models:
        validate_params(m.spec, m.params, data.alternatives)
    designs = [build_design(data, m.spec) for m in models]
    target_rows = data.alt_ids == problem.target_alt
    cov = _pass_edited(problem, designs[0].row_obs, target_rows)
    gain, gain_truth = (
        _probabilities_at(data, d, m.params, cov)[target_rows]
        - probabilities_from_design(d, m.params)[target_rows]
        for d, m in zip(designs, models)
    )
    # only observations that offer the target alternative are ranked
    obs = data.unique_obs()[designs[0].row_obs[target_rows]]
    cost = problem.cost_multiplier * data.column(problem.cost_column)[target_rows]
    ratio = np.where(cost > 0, gain / np.where(cost > 0, cost, 1.0),
                     np.where(gain > 0, np.inf, 0.0))
    order = np.lexsort((obs, -ratio))
    obs, gain, gain_truth, cost = (a[order] for a in (obs, gain, gain_truth, cost))

    reports = []
    for budget in budgets:
        selected, skipped, spent = [], 0, 0.0
        for r, c in enumerate(cost.tolist()):
            if spent + c <= budget:
                selected.append(r)
                spent += c
            elif skip_unaffordable:
                skipped += 1
            else:
                break
        if not selected:
            raise EmptySelection(
                f"budget {budget} cannot afford even the top-ranked individual"
            )
        sel = np.array(selected, dtype=np.int64)
        reports.append(SelectionReport(
            budget=float(budget),
            selected_obs=obs[sel],
            ranked_obs=obs,
            gain_selection=gain,
            gain_truth=gain_truth,
            costs=cost,
            total_cost=float(spent),
            total_gain_truth=float(np.sum(gain_truth[sel])),
            skipped=skipped,
        ))
    return reports
