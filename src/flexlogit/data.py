"""Long-format choice data: loading, validation, shares, and simulation.

A dataset is a table with one row per (observation, alternative) pair.  Each
observation is one choice situation; its rows enumerate the available
alternatives, exactly one of which is marked chosen.  Covariates are numeric
columns that may vary by row.  An optional per-observation weight scales that
observation's contribution to weighted likelihoods and share calculations.

``ChoiceDataset`` stores the table as immutable numpy arrays in canonical row
order (sorted by observation id, then alternative id) and validates the
structural invariants on construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DuplicateAltForObs,
    EmptyDataset,
    MissingColumn,
    MultipleChoicesForObs,
    NoChoiceForObs,
    NonNumericCell,
)

__all__ = [
    "ChoiceDataset",
    "SchemaMapping",
    "CovariateSpec",
    "SimulationConfig",
    "load_csv",
    "write_csv",
    "write_table",
    "observed_shares",
    "simulate",
]


@dataclass(frozen=True)
class SchemaMapping:
    """Names of the structural columns in a CSV file.

    ``covariates=None`` means every remaining column is a covariate.
    """

    obs_id: str = "obs_id"
    alt_id: str = "alt_id"
    chosen: str = "chosen"
    weight: str | None = None
    covariates: tuple[str, ...] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SchemaMapping":
        cov = d.get("covariates")
        return cls(
            obs_id=d.get("obs_id", "obs_id"),
            alt_id=d.get("alt_id", "alt_id"),
            chosen=d.get("chosen", "chosen"),
            weight=d.get("weight"),
            covariates=tuple(cov) if cov is not None else None,
        )


@dataclass(frozen=True)
class ChoiceDataset:
    """Validated long-format choice data.

    Attributes
    ----------
    obs_ids, alt_ids : int arrays, one entry per row, canonically sorted.
    chosen : bool array marking each observation's chosen row.
    weights : float array, constant within an observation, default 1.0.
    covariates : (n_rows, n_columns) float matrix.
    columns : covariate column names, aligned with ``covariates``.
    """

    obs_ids: np.ndarray
    alt_ids: np.ndarray
    chosen: np.ndarray
    weights: np.ndarray
    covariates: np.ndarray
    columns: tuple[str, ...]
    alternatives: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        obs = np.asarray(self.obs_ids, dtype=np.int64)
        alt = np.asarray(self.alt_ids, dtype=np.int64)
        cho = np.asarray(self.chosen, dtype=bool)
        w = np.asarray(self.weights, dtype=float)
        cov = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        if cov.shape[0] != obs.shape[0]:
            cov = cov.reshape(obs.shape[0], -1)
        if not (obs.shape == alt.shape == cho.shape == w.shape):
            raise ValueError("structural arrays must have equal length")
        if cov.shape != (obs.shape[0], len(self.columns)):
            raise ValueError("covariate matrix shape does not match columns")
        if obs.shape[0] == 0:
            raise EmptyDataset("dataset has no rows")
        if not np.all(np.isfinite(cov)):
            raise NonNumericCell("covariates contain NaN or infinite entries")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise NonNumericCell("weights must be finite and non-negative")

        order = np.lexsort((alt, obs))
        obs, alt, cho, w, cov = obs[order], alt[order], cho[order], w[order], cov[order]

        # one row per (obs, alt)
        pair_change = np.empty(obs.shape[0], dtype=bool)
        pair_change[0] = True
        pair_change[1:] = (obs[1:] != obs[:-1]) | (alt[1:] != alt[:-1])
        if not pair_change.all():
            i = int(np.flatnonzero(~pair_change)[0])
            raise DuplicateAltForObs(
                f"alternative {alt[i]} appears twice for observation {obs[i]}"
            )

        starts = np.flatnonzero(np.concatenate(([True], obs[1:] != obs[:-1])))
        ptr = np.concatenate((starts, [obs.shape[0]]))
        n_chosen = np.add.reduceat(cho.astype(np.int64), starts)
        if np.any(n_chosen == 0):
            bad = obs[starts[np.flatnonzero(n_chosen == 0)[0]]]
            raise NoChoiceForObs(f"observation {bad} has no chosen alternative")
        if np.any(n_chosen > 1):
            bad = obs[starts[np.flatnonzero(n_chosen > 1)[0]]]
            raise MultipleChoicesForObs(
                f"observation {bad} has more than one chosen alternative"
            )
        # weights constant within observation: take the first row's value
        w = w[starts][np.repeat(np.arange(starts.shape[0]), np.diff(ptr))]

        for name, arr in (
            ("obs_ids", obs),
            ("alt_ids", alt),
            ("chosen", cho),
            ("weights", w),
            ("covariates", cov),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(
            self, "alternatives", tuple(int(a) for a in np.unique(alt))
        )
        object.__setattr__(self, "_obs_ptr", ptr)

    # -- derived views -----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.obs_ids.shape[0])

    @property
    def n_obs(self) -> int:
        return int(len(self._obs_ptr) - 1)

    @property
    def obs_ptr(self) -> np.ndarray:
        """Row boundaries of each observation in canonical order."""
        return self._obs_ptr

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise MissingColumn(f"no covariate column named {name!r}") from None
        return self.covariates[:, j]

    def unique_obs(self) -> np.ndarray:
        return self.obs_ids[self._obs_ptr[:-1]]

    def chosen_alt_by_obs(self) -> np.ndarray:
        return self.alt_ids[np.flatnonzero(self.chosen)]

    def obs_weights(self) -> np.ndarray:
        return self.weights[self._obs_ptr[:-1]]

    def with_covariates(self, covariates: np.ndarray) -> "ChoiceDataset":
        """Copy of this dataset with a replaced covariate matrix."""
        return replace(self, covariates=np.array(covariates, dtype=float))

    def subset(self, keep_obs: np.ndarray) -> "ChoiceDataset":
        """Rows belonging to the given observation ids (set semantics).

        The package gathers rows of a compiled ``Design`` instead; ``subset``
        and ``resample`` stay public as the reference ``Design.take`` is
        tested against, and ``bench/tracing.py`` wraps both."""
        mask = np.isin(self.obs_ids, np.asarray(keep_obs))
        return self._of_rows(mask, self.obs_ids[mask])

    def resample(self, obs_order: np.ndarray) -> "ChoiceDataset":
        """Multiset of observations (with repeats), renumbered 0..n-1.

        Each occurrence of an observation id in ``obs_order`` becomes a fresh
        observation in the result. An id not in the data raises ``KeyError``.
        """
        uniq = self.unique_obs()
        obs_order = np.asarray(obs_order)
        positions = np.searchsorted(uniq, obs_order)
        if not np.array_equal(uniq.take(positions, mode="clip"), obs_order):
            raise KeyError("resample names an observation id not in the data")
        rows, ptr = gather_obs_rows(self._obs_ptr, positions)
        return self._of_rows(rows, np.repeat(np.arange(positions.shape[0]), np.diff(ptr)))

    def _of_rows(self, rows, obs_ids) -> "ChoiceDataset":
        """Dataset of ``rows`` (a mask or indices), numbered ``obs_ids``."""
        return ChoiceDataset(
            obs_ids=obs_ids,
            alt_ids=self.alt_ids[rows],
            chosen=self.chosen[rows],
            weights=self.weights[rows],
            covariates=self.covariates[rows],
            columns=self.columns,
        )


def gather_obs_rows(obs_ptr: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the observations at ``positions``, in that order, repeats allowed.

    ``obs_ptr`` holds the row boundaries of each observation (as
    ``ChoiceDataset.obs_ptr``). Returns the gathered row indices and the row
    boundaries of the gathered observations.
    """
    positions = np.asarray(positions, dtype=np.int64)
    starts = obs_ptr[positions]
    counts = obs_ptr[positions + 1] - starts
    ptr = np.zeros(positions.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    rows = np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], counts)
    return rows, ptr


def load_csv(path, schema: SchemaMapping | None = None) -> ChoiceDataset:
    """Read a long-format CSV into a validated ``ChoiceDataset``.

    Each column is parsed in one call with Python's ``float()`` rules, so
    ``1_0``, `` 2 ``, ``nan`` and ``inf`` read as ``float`` reads them. Id
    cells must hold integers below 2**53 in magnitude, the range in which
    float64 holds every integer exactly, and chosen cells 0 or 1. A cell
    missing from a short row, or from a blank line, reads as the empty string.

    Raises ``DataError`` naming a column the header names more than once,
    ``MissingColumn`` when a mapped column is absent, ``NonNumericCell``
    naming the row and column of the first cell that cannot be parsed as its
    column's kind, and the structural errors from ``ChoiceDataset`` when the
    table is not valid long format.
    """
    schema = schema or SchemaMapping()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("empty CSV file") from None
        rows = list(reader)

    index = {name: i for i, name in enumerate(header)}
    if len(index) < len(header):
        repeated = next(c for k, c in enumerate(header) if c in header[:k])
        raise DataError(f"column {repeated!r} appears more than once in the header")
    for col in (schema.obs_id, schema.alt_id, schema.chosen):
        if col not in index:
            raise MissingColumn(f"required column {col!r} not in header {header}")
    if schema.weight is not None and schema.weight not in index:
        raise MissingColumn(f"weight column {schema.weight!r} not in header")

    if schema.covariates is not None:
        cov_names = list(schema.covariates)
        for col in cov_names:
            if col not in index:
                raise MissingColumn(f"covariate column {col!r} not in header")
    else:
        structural = {schema.obs_id, schema.alt_id, schema.chosen}
        if schema.weight:
            structural.add(schema.weight)
        cov_names = [c for c in header if c not in structural]

    width = len(header)
    if min(map(len, rows), default=width) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]

    def parse(col, kind):
        j = index[col]
        return _parse_column([row[j] for row in rows], col, kind)

    obs = parse(schema.obs_id, "integer").astype(np.int64)
    alt = parse(schema.alt_id, "integer").astype(np.int64)
    cho = parse(schema.chosen, "0/1 flag") == 1.0
    if schema.weight is not None:
        w = parse(schema.weight, "number")
    else:
        w = np.ones(len(rows))
    cov = np.empty((len(rows), len(cov_names)))
    for k, col in enumerate(cov_names):
        cov[:, k] = parse(col, "number")

    return ChoiceDataset(
        obs_ids=obs,
        alt_ids=alt,
        chosen=cho,
        weights=w,
        covariates=cov,
        columns=tuple(cov_names),
    )


# Ids are read through float64, which holds every integer below this bound
# exactly; at or above it distinct ids can round to one value.
_ID_BOUND = 2.0**53


def _parse_integer(s: str) -> float:
    v = float(s)
    if not (v.is_integer() and abs(v) < _ID_BOUND):
        raise ValueError(s)
    return v


def _parse_chosen(s: str) -> float:
    v = float(s)
    if v not in (0.0, 1.0):
        raise ValueError(s)
    return v


# kind -> (per-cell parser, the same rule applied to a parsed column)
_CELL_RULES = {
    "integer": (
        _parse_integer,
        lambda v: np.all((v == np.trunc(v)) & (np.abs(v) < _ID_BOUND)),
    ),
    "0/1 flag": (_parse_chosen, lambda v: np.all((v == 0.0) | (v == 1.0))),
    "number": (float, lambda v: True),
}


def _parse_column(cells: list[str], col: str, kind: str) -> np.ndarray:
    """One column's cells as float64, parsed in one ``np.array`` call (which
    applies ``float()`` to each string) and checked against the column's kind.
    When that fails, the per-cell loop raises ``NonNumericCell`` for the first
    bad cell, with its 1-based file row (the header is row 1)."""
    parse_cell, column_ok = _CELL_RULES[kind]
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        values = None
    if values is not None and column_ok(values):
        return values
    values = np.empty(len(cells))
    for r, cell in enumerate(cells):
        try:
            values[r] = parse_cell(cell)
        except ValueError:
            raise NonNumericCell(
                f"row {r + 2}, column {col!r}: cannot parse {cell!r} as {kind}"
            ) from None
    return values


# Rows formatted per write: bounds the memory the cell strings take.
_ROWS_PER_WRITE = 8192


def write_table(path, header: list[str], columns) -> None:
    """Write a CSV table given column by column.

    The bytes are those ``csv.writer`` writes for the same rows with floats
    formatted by ``repr`` and everything else by ``str``: ``\\r\\n`` line
    ends, and a cell quoted only when it holds a comma, a double quote or a
    line break. A numeric numpy column is formatted in one ``repr`` call per
    block of rows; any other column cell by cell. Raises ``ValueError`` when
    the columns differ in length.
    """
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        _write_lines(fh, [",".join(map(_quote, header))])
        for start in range(0, n_rows, _ROWS_PER_WRITE):
            stop = start + _ROWS_PER_WRITE
            _write_lines(fh, map(",".join, zip(*(_column_cells(col[start:stop])
                                                 for col in columns))))


def _write_lines(fh, lines) -> None:
    # only a one-column row can be empty; csv.writer quotes its lone empty
    # cell so that the row is not read back as a blank line
    fh.write("".join((line or '""') + "\r\n" for line in lines))


def _column_cells(col) -> list[str]:
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiu":
        # repr of a list joins the float/int reprs of its items with ", "
        text = repr(col.tolist())[1:-1]
        return text.split(", ") if text else []
    return [_quote(repr(x) if isinstance(x, float) else str(x)) for x in col]


def _quote(cell: str) -> str:
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(data: ChoiceDataset, path, weight_column: str = "weight") -> None:
    """Write a dataset back to CSV with round-trip float precision."""
    write_table(
        path,
        ["obs_id", "alt_id", "chosen", weight_column, *data.columns],
        [data.obs_ids, data.alt_ids, data.chosen.astype(np.int64), data.weights,
         *data.covariates.T],
    )


def observed_shares(data) -> dict[int, float]:
    """Weighted share of observations choosing each alternative.

    ``data`` is a ``ChoiceDataset`` or a compiled ``likelihood.Design``; both
    provide ``alternatives``, ``chosen_alt_by_obs()`` and ``obs_weights()``.
    Every alternative of the data appears in the result, with share 0.0 for
    alternatives never chosen. Shares sum to one.
    """
    w = data.obs_weights()
    chosen_alt = data.chosen_alt_by_obs()
    total = float(np.sum(w))
    shares = {int(a): 0.0 for a in data.alternatives}
    for a in data.alternatives:
        shares[int(a)] = float(np.sum(w[chosen_alt == a]) / total)
    return shares


# -- simulation ------------------------------------------------------------------


@dataclass(frozen=True)
class CovariateSpec:
    """Uniform sampling bounds for one covariate column."""

    name: str
    low: float
    high: float


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to draw a synthetic dataset.

    ``spec`` and ``true_params`` follow the model types used for estimation;
    every simulated observation sees the full set of ``alternatives``.
    """

    spec: "ModelSpec"  # noqa: F821 - forward ref, resolved at call time
    true_params: "NaturalParams"  # noqa: F821
    alternatives: tuple[int, ...]
    n_obs: int
    covariates: tuple[CovariateSpec, ...]
    seed: int = 0


def simulate(config: SimulationConfig) -> ChoiceDataset:
    """Draw covariates and choices from the model's probability law.

    Each observation gets its own random stream spawned from the master seed,
    so results do not depend on evaluation order or worker count. Within an
    observation the stream is consumed in a fixed order: covariates first
    (row-major over alternatives and columns), then one uniform for the
    choice draw.

    Raises before any draw: ``InvalidParams`` for true parameters outside the
    spec or its family's domain or under two alternatives, ``SpecDataMismatch``
    for a reference alternative not among them, and ``ValueError`` otherwise.
    """
    from .likelihood import Packing, _compile, probabilities_from_design, validate_params
    from .errors import InvalidParams

    if config.n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    if config.seed < 0:
        raise ValueError(f"simulation seed must be >= 0, got {config.seed}")
    alts = tuple(int(a) for a in config.alternatives)
    if len(alts) < 2:
        raise InvalidParams("need at least two alternatives")
    packing = Packing(config.spec, alts)
    validate_params(config.spec, config.true_params, alts)
    n, J, C = config.n_obs, len(alts), len(config.covariates)

    lows = np.array([c.low for c in config.covariates])
    highs = np.array([c.high for c in config.covariates])
    if np.any(highs < lows):
        raise ValueError("covariate bounds must satisfy low <= high")

    streams = np.random.SeedSequence(config.seed).spawn(n)
    cov = np.empty((n * J, C))
    u_choice = np.empty(n)
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        cov[i * J : (i + 1) * J] = lows + (highs - lows) * rng.random((J, C))
        u_choice[i] = rng.random()

    obs_ids = np.repeat(np.arange(n, dtype=np.int64), J)
    alt_ids = np.tile(np.array(alts, dtype=np.int64), n)
    columns = tuple(c.name for c in config.covariates)

    design = _compile(packing, cov, columns, alt_ids, np.arange(0, n * J + 1, J),
                      chosen=np.zeros(n * J, dtype=bool), weights_obs=np.ones(n))
    P = probabilities_from_design(design, config.true_params)
    cum = np.cumsum(P.reshape(n, J), axis=1)
    pick = np.sum(cum < u_choice[:, None], axis=1)
    pick = np.minimum(pick, J - 1)
    chosen = np.zeros(n * J, dtype=bool)
    chosen[np.arange(n) * J + pick] = True

    return ChoiceDataset(
        obs_ids=obs_ids,
        alt_ids=alt_ids,
        chosen=chosen,
        weights=np.ones(n * J),
        covariates=cov,
        columns=columns,
    )
