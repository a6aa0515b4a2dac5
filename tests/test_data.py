import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csv_oracle
from flexlogit import data as data_module
from flexlogit.data import (
    ChoiceDataset,
    CovariateSpec,
    SchemaMapping,
    SimulationConfig,
    load_csv,
    observed_shares,
    simulate,
    write_csv,
    write_table,
)
from flexlogit.errors import (
    DataError,
    DuplicateAltForObs,
    MissingColumn,
    MultipleChoicesForObs,
    NoChoiceForObs,
    InvalidParams,
    NonNumericCell,
    SpecDataMismatch,
)
from flexlogit.likelihood import NaturalParams

from conftest import mnl_spec, spec_for, toy_dataset

LN4 = 1.3862943611198906


def small(**kw):
    base = dict(
        obs_ids=[0, 0, 1, 1],
        alt_ids=[1, 2, 1, 2],
        chosen=[True, False, False, True],
        weights=[1.0, 1.0, 1.0, 1.0],
        covariates=[[0.1], [0.2], [0.3], [0.4]],
        columns=("cost",),
    )
    base.update(kw)
    return ChoiceDataset(**base)


def test_rows_are_canonicalized():
    d = ChoiceDataset(
        obs_ids=[1, 0, 1, 0],
        alt_ids=[2, 2, 1, 1],
        chosen=[True, False, False, True],
        weights=np.ones(4),
        covariates=np.arange(4.0).reshape(4, 1),
        columns=("x",),
    )
    assert d.obs_ids.tolist() == [0, 0, 1, 1]
    assert d.alt_ids.tolist() == [1, 2, 1, 2]
    # covariates moved with their rows
    assert d.column("x").tolist() == [3.0, 1.0, 2.0, 0.0]
    assert d.alternatives == (1, 2)
    assert d.n_obs == 2 and d.n_rows == 4
    assert d.obs_ptr.tolist() == [0, 2, 4]
    assert not d.covariates.flags.writeable


def test_structural_validation():
    with pytest.raises(DuplicateAltForObs):
        small(alt_ids=[1, 1, 1, 2])
    with pytest.raises(NoChoiceForObs):
        small(chosen=[False, False, True, False])
    with pytest.raises(MultipleChoicesForObs):
        small(chosen=[True, True, True, False])
    with pytest.raises(NonNumericCell):
        small(covariates=[[0.1], [np.nan], [0.3], [0.4]])
    with pytest.raises(NonNumericCell):
        small(weights=[1.0, 1.0, -2.0, -2.0])
    with pytest.raises(ValueError):
        small(obs_ids=[0, 0, 1])
    with pytest.raises(ValueError):
        ChoiceDataset(
            obs_ids=[], alt_ids=[], chosen=[], weights=[],
            covariates=np.empty((0, 1)), columns=("x",),
        )


def test_weights_taken_from_first_row():
    d = small(weights=[2.0, 7.0, 3.0, 3.0])
    assert d.weights.tolist() == [2.0, 2.0, 3.0, 3.0]
    assert d.obs_weights().tolist() == [2.0, 3.0]


def test_views():
    d = small()
    assert d.chosen_alt_by_obs().tolist() == [1, 2]
    assert d.unique_obs().tolist() == [0, 1]
    with pytest.raises(MissingColumn):
        d.column("income")


def test_subset_and_resample():
    d = toy_dataset(n_obs=6, seed=1)
    s = d.subset(np.array([0, 3, 5]))
    assert s.n_obs == 3
    assert s.unique_obs().tolist() == [0, 3, 5]

    r = d.resample(np.array([4, 4, 2]))
    assert r.n_obs == 3
    assert r.unique_obs().tolist() == [0, 1, 2]
    # both copies of obs 4 carry its covariate rows
    orig = d.covariates[d.obs_ids == 4]
    np.testing.assert_array_equal(r.covariates[r.obs_ids == 0], orig)
    np.testing.assert_array_equal(r.covariates[r.obs_ids == 1], orig)
    with pytest.raises(KeyError):
        d.resample(np.array([4, 99]))


def test_csv_round_trip(tmp_path):
    d = toy_dataset(n_obs=15, seed=9, weights=np.linspace(1, 3, 15))
    p = tmp_path / "d.csv"
    write_csv(d, p)
    back = load_csv(p, SchemaMapping(weight="weight"))
    np.testing.assert_array_equal(back.obs_ids, d.obs_ids)
    np.testing.assert_array_equal(back.alt_ids, d.alt_ids)
    np.testing.assert_array_equal(back.chosen, d.chosen)
    np.testing.assert_array_equal(back.weights, d.weights)
    np.testing.assert_array_equal(back.covariates, d.covariates)
    assert back.columns == d.columns


def test_csv_schema_mapping(tmp_path):
    p = tmp_path / "renamed.csv"
    p.write_text(
        "person,mode,took,tt\n"
        "1,10,1,5.5\n"
        "1,20,0,6.5\n"
        "2,10,0,1.0\n"
        "2,20,1,2.0\n"
    )
    d = load_csv(
        p,
        SchemaMapping.from_dict(
            {"obs_id": "person", "alt_id": "mode", "chosen": "took"}
        ),
    )
    assert d.alternatives == (10, 20)
    assert d.columns == ("tt",)
    assert d.column("tt").tolist() == [5.5, 6.5, 1.0, 2.0]


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("obs_id,alt_id,chosen,x\n1,1,1,oops\n1,2,0,2.0\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(p)
    assert "row 2" in str(exc.value) and "'x'" in str(exc.value)

    p.write_text("obs_id,alt_id,x\n1,1,0.5\n")
    with pytest.raises(MissingColumn):
        load_csv(p)

    # chosen must be exactly 0 or 1
    p.write_text("obs_id,alt_id,chosen,x\n1,1,2,0.5\n1,2,0,0.6\n")
    with pytest.raises(NonNumericCell):
        load_csv(p)


@pytest.mark.parametrize("cells,col,bad", [
    (("2.7", "2.2"), "obs_id", "'2.7'"),
    (("inf", "inf"), "obs_id", "'inf'"),
    (("1e30", "1e30"), "obs_id", "'1e30'"),
    (("9007199254740993", "9007199254740992"), "obs_id", "'9007199254740993'"),
    (("-9007199254740992", "x"), "obs_id", "'-9007199254740992'"),
], ids=["fraction", "inf", "1e30", "2**53 column", "2**53 cell"])
def test_id_cells_must_hold_integers(tmp_path, cells, col, bad):
    # 2.7 and 2.2 used to load as one observation 2; inf and 1e30 escaped as
    # a bare OverflowError; 2**53 + 1 and 2**53 both read as the float 2**53
    # and merged into one observation. The "cell" case fails the one-call
    # column parse on "x", so the per-cell parser must apply the bound too.
    p = tmp_path / "ids.csv"
    p.write_text(f"obs_id,alt_id,chosen,x\n{cells[0]},1,1,0.5\n{cells[1]},2,0,0.6\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(p)
    assert str(exc.value) == f"row 2, column {col!r}: cannot parse {bad} as integer"


def test_ids_below_2_53_load_exactly(tmp_path):
    p = tmp_path / "ids.csv"
    top = 2**53 - 1
    p.write_text(f"obs_id,alt_id,chosen,x\n{top},1,1,0.5\n{top},2,0,0.6\n"
                 f"{-top},1,0,0.7\n{-top},2,1,0.8\n")
    d = load_csv(p)
    assert d.obs_ids.tolist() == [-top, -top, top, top]


@pytest.mark.parametrize("header,name", [
    ("obs_id,alt_id,chosen,x,x", "x"),
    ("obs_id,alt_id,chosen,obs_id,x", "obs_id"),
])
def test_repeated_header_name_is_a_data_error(tmp_path, header, name):
    # the last column of a repeated name used to be read into both
    p = tmp_path / "dup.csv"
    p.write_text(f"{header}\n1,1,1,0.5,9\n1,2,0,0.6,8\n")
    with pytest.raises(DataError) as exc:
        load_csv(p)
    assert str(exc.value) == f"column {name!r} appears more than once in the header"


@pytest.mark.parametrize("body,message", [
    ("1,1,1,0.5\n\n1,2,0,0.6\n", "row 3, column 'obs_id': cannot parse '' as integer"),
    ("1,1,1,0.5\n1,2,0\n", "row 3, column 'x': cannot parse '' as number"),
], ids=["blank line", "short row"])
def test_missing_cells_are_bad_cells(tmp_path, body, message):
    # a blank line or a short row used to escape as a bare IndexError
    p = tmp_path / "short.csv"
    p.write_text("obs_id,alt_id,chosen,x\n" + body)
    with pytest.raises(NonNumericCell) as exc:
        load_csv(p)
    assert str(exc.value) == message


def _outcome(load, path, schema):
    try:
        d = load(path, schema)
    except DataError as e:
        return type(e), str(e)
    return (d.obs_ids.tolist(), d.alt_ids.tolist(), d.chosen.tolist(),
            d.weights.view(np.int64).tolist(), d.covariates.view(np.int64).tolist(),
            d.columns)


# spellings of numbers that float() accepts
_ODD_SPELLINGS = ["1_0", " 2 ", "+4", "1E-3", ".5", "5.", "-0.0", "1e5"]
_BAD_CELLS = ["", "oops", "nan", "inf", "-inf", "2.7", "2", "True", "0x10", "1,5", "1 2"]


@given(
    n_obs=st.integers(1, 4),
    n_alts=st.integers(2, 3),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=36,
                    max_size=36),
    odd=st.lists(st.sampled_from(_ODD_SPELLINGS), max_size=3),
    fault=st.sampled_from(["none", "cell", "blank line", "short row"]),
    bad=st.sampled_from(_BAD_CELLS),
    where=st.integers(0, 10**6),
)
def test_load_csv_matches_per_cell_oracle(n_obs, n_alts, values, odd, fault, bad, where):
    header = ["obs_id", "alt_id", "chosen", "w", "x", "y"]
    rows, it = [], iter(values)
    for i in range(n_obs):
        for a in range(1, n_alts + 1):
            rows.append([str(10 * i), str(a), str(int(a == 1 + i % n_alts)),
                         repr(abs(next(it))), repr(next(it)), repr(next(it))])
    for k, text in enumerate(odd):
        rows[k % len(rows)][4] = text
    n_cells = len(rows) * len(header)
    if fault == "cell":
        rows[where % n_cells // len(header)][where % len(header)] = bad
    elif fault == "short row":
        r = where % len(rows)
        rows[r] = rows[r][: where % len(header)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        if fault == "blank line":
            lines = path.read_text().splitlines(keepends=True)
            lines.insert(1 + where % len(rows), "\n")
            path.write_text("".join(lines))
        schema = SchemaMapping(weight="w")
        got = _outcome(load_csv, path, schema)
        assert got == _outcome(csv_oracle.load_csv, path, schema)
    if fault == "none":
        # rows were written in canonical order: the parsed floats are float()
        # of the cells, bit for bit
        want = np.array([[float(row[4]), float(row[5])] for row in rows])
        assert got[4] == want.view(np.int64).tolist()


_TEXT = st.text(alphabet='ab ,"\r\n\t\'', max_size=4)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_COLUMN_KINDS = {
    "float array": lambda n: st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
    "int array": lambda n: st.lists(st.integers(-2**62, 2**62), min_size=n,
                                    max_size=n).map(np.array),
    "text": lambda n: st.lists(_TEXT, min_size=n, max_size=n),
    "mixed": lambda n: st.lists(st.one_of(_TEXT, _FLOATS, st.integers()),
                                min_size=n, max_size=n),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, [draw(_COLUMN_KINDS[k](n_rows)) for k in kinds]


@given(table=_tables(), block=st.integers(1, 3))
def test_write_table_bytes_equal_csv_writer(table, block):
    header, columns = table
    rows = [[c.tolist()[i] if isinstance(c, np.ndarray) else c[i] for c in columns]
            for i in range(len(columns[0]))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        # small blocks so that tables of a few rows span several writes
        with mock.patch.object(data_module, "_ROWS_PER_WRITE", block):
            write_table(got, header, columns)
        csv_oracle.write_table(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


def test_observed_shares_weighted():
    d = ChoiceDataset(
        obs_ids=[0, 0, 1, 1, 2, 2],
        alt_ids=[1, 2, 1, 2, 1, 2],
        chosen=[True, False, True, False, False, True],
        weights=[2.0, 2.0, 2.0, 2.0, 1.0, 1.0],
        covariates=np.zeros((6, 1)),
        columns=("x",),
    )
    shares = observed_shares(d)
    assert shares[1] == pytest.approx(0.8)
    assert shares[2] == pytest.approx(0.2)
    assert sum(shares.values()) == pytest.approx(1.0)
    # tau_1 = log(share_1 / share_ref) recovers log 4 for the 0.8 / 0.2 split
    assert np.log(shares[1] / shares[2]) == pytest.approx(LN4, rel=1e-12)


def test_observed_shares_include_never_chosen():
    d = ChoiceDataset(
        obs_ids=[0, 0, 0],
        alt_ids=[1, 2, 3],
        chosen=[True, False, False],
        weights=np.ones(3),
        covariates=np.zeros((3, 1)),
        columns=("x",),
    )
    shares = observed_shares(d)
    assert shares == {1: 1.0, 2: 0.0, 3: 0.0}


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _sim_cfg(n_obs, seed):
    spec = mnl_spec(columns=("time",))
    true = NaturalParams(beta=[0.0], tau={1: 0.5, 2: -0.3})
    return SimulationConfig(
        spec=spec,
        true_params=true,
        alternatives=(1, 2, 3),
        n_obs=n_obs,
        covariates=(CovariateSpec("time", -1, 1),),
        seed=seed,
    )


def test_simulate_shape_and_determinism():
    d1 = simulate(_sim_cfg(40, seed=3))
    d2 = simulate(_sim_cfg(40, seed=3))
    d3 = simulate(_sim_cfg(40, seed=4))
    assert d1.n_obs == 40 and d1.n_rows == 120
    np.testing.assert_array_equal(d1.covariates, d2.covariates)
    np.testing.assert_array_equal(d1.chosen, d2.chosen)
    assert not np.array_equal(d1.chosen, d3.chosen) or not np.array_equal(
        d1.covariates, d3.covariates
    )
    assert np.all(d1.column("time") >= -1) and np.all(d1.column("time") <= 1)


def test_simulate_prefix_stable_in_n():
    """Observation i depends only on (seed, i), not on how many others exist."""
    big = simulate(_sim_cfg(50, seed=11))
    sml = simulate(_sim_cfg(30, seed=11))
    keep = sml.n_rows
    np.testing.assert_array_equal(big.covariates[:keep], sml.covariates)
    np.testing.assert_array_equal(big.chosen[:keep], sml.chosen)


def test_simulate_matches_analytic_shares():
    # beta = 0 makes P constant: the empirical shares must match softmax(tau)
    d = simulate(_sim_cfg(30000, seed=21))
    tau = np.array([0.5, -0.3, 0.0])
    p = np.exp(tau) / np.sum(np.exp(tau))
    shares = observed_shares(d)
    for j, a in enumerate((1, 2, 3)):
        assert shares[a] == pytest.approx(p[j], abs=0.015)


@pytest.mark.parametrize("spec,true,error", [
    (spec_for("scobit"), NaturalParams(beta=[-1.0, 0.8], tau={1: 0.4, 2: -0.2},
                                       gamma={1: -1.0, 2: 1.0, 3: 0.5}),
     InvalidParams),
    (spec_for("mnl"), NaturalParams(beta=[-1.0, 0.8], tau={3: 5.0}), InvalidParams),
    (spec_for("mnl"), NaturalParams(beta=[-1.0], tau={}), InvalidParams),
    (spec_for("mnl", ref=4), NaturalParams(beta=[-1.0, 0.8]), SpecDataMismatch),
    (spec_for("asym_logit", shape_ref=4),
     NaturalParams(beta=[-1.0, 0.8], gamma={1: 0.0, 2: 0.0, 3: 0.0}),
     SpecDataMismatch),
], ids=["scobit-negative-shape", "ref-intercept", "beta-length", "ref-alt",
        "shape-ref-alt"])
def test_simulate_checks_true_params(spec, true, error):
    cfg = SimulationConfig(
        spec=spec, true_params=true, alternatives=(1, 2, 3), n_obs=50,
        covariates=(CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2)),
    )
    with pytest.raises(error):
        simulate(cfg)


def test_simulate_rejects_bad_config():
    cfg = _sim_cfg(0, seed=0)
    with pytest.raises(ValueError):
        simulate(cfg)
    with pytest.raises(ValueError, match="simulation seed must be >= 0, got -1"):
        simulate(_sim_cfg(5, seed=-1))
    bad = SimulationConfig(
        spec=mnl_spec(columns=("time",)),
        true_params=NaturalParams(beta=[0.0], tau={1: 0.5, 2: -0.3}),
        alternatives=(1, 2, 3),
        n_obs=5,
        covariates=(CovariateSpec("time", 2, -2),),
        seed=0,
    )
    with pytest.raises(ValueError):
        simulate(bad)
