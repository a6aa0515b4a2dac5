import numpy as np
import pytest

from flexlogit.data import (
    ChoiceDataset,
    CovariateSpec,
    SchemaMapping,
    SimulationConfig,
    load_csv,
    observed_shares,
    simulate,
    write_csv,
)
from flexlogit.errors import (
    DuplicateAltForObs,
    MissingColumn,
    MultipleChoicesForObs,
    NoChoiceForObs,
    NonNumericCell,
)
from flexlogit.likelihood import NaturalParams

from conftest import mnl_spec, toy_dataset

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
