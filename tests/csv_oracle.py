"""The per-cell CSV parser and the row-wise writer, kept as oracles for the
column-wise ``load_csv`` and ``write_table`` in :mod:`flexlogit.data`.

``load_csv`` is the parser as it stood before columns were parsed in one
call, with three deliberate changes that the column-wise parser shares:

* an id cell must hold an integer below 2**53 in magnitude; the old parser
  truncated ``2.7`` to 2, let ``inf`` and ``1e30`` escape as a bare
  ``OverflowError`` and merged distinct ids that float64 rounds to one value;
* a cell missing from a short row or a blank line reads as ``''``; the old
  parser let a bare ``IndexError`` escape;
* a column named twice in the header is a ``DataError``; the old parser read
  the last column of that name.

Only the tests import this module.
"""

from __future__ import annotations

import csv

import numpy as np

from flexlogit.data import ChoiceDataset, SchemaMapping
from flexlogit.errors import DataError, MissingColumn, NonNumericCell


def load_csv(path, schema: SchemaMapping | None = None) -> ChoiceDataset:
    schema = schema or SchemaMapping()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("empty CSV file") from None
        rows = list(reader)

    index = {name: i for i, name in enumerate(header)}
    for k, name in enumerate(header):
        if name in header[:k]:
            raise DataError(f"column {name!r} appears more than once in the header")
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

    def parse(col, kind, cast):
        j = index[col]
        out = []
        for r, row in enumerate(rows):
            cell = row[j] if j < len(row) else ""
            try:
                out.append(cast(cell))
            except ValueError:
                raise NonNumericCell(
                    f"row {r + 2}, column {col!r}: cannot parse {cell!r} as {kind}"
                ) from None
        return out

    obs = parse(schema.obs_id, "integer", _parse_int)
    alt = parse(schema.alt_id, "integer", _parse_int)
    cho = parse(schema.chosen, "0/1 flag", _parse_chosen)
    if schema.weight is not None:
        w = parse(schema.weight, "number", float)
    else:
        w = [1.0] * len(rows)
    cov = np.empty((len(rows), len(cov_names)))
    for k, col in enumerate(cov_names):
        cov[:, k] = parse(col, "number", float)

    return ChoiceDataset(
        obs_ids=np.array(obs, dtype=np.int64),
        alt_ids=np.array(alt, dtype=np.int64),
        chosen=np.array(cho, dtype=bool),
        weights=np.array(w, dtype=float),
        covariates=cov,
        columns=tuple(cov_names),
    )


def _parse_int(s):
    v = float(s)
    if not v.is_integer() or abs(v) >= 2.0**53:
        raise ValueError(s)
    return int(v)


def _parse_chosen(s):
    v = float(s)
    if v not in (0.0, 1.0):
        raise ValueError(s)
    return bool(v)


def write_table(path, header, rows) -> None:
    """The row-wise table writer: ``csv.writer`` with floats as ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
