import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from flexlogit.data import ChoiceDataset, CovariateSpec, SimulationConfig, simulate

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
from flexlogit.likelihood import Coefficient, ModelSpec, NaturalParams


def toy_dataset(n_obs=40, n_alts=3, seed=0, columns=("time", "cost"),
                low=-2.0, high=2.0, weights=None):
    """Small dense dataset with uniform covariates and arbitrary choices."""
    rng = np.random.default_rng(seed)
    alts = np.arange(1, n_alts + 1)
    obs = np.repeat(np.arange(n_obs), n_alts)
    alt = np.tile(alts, n_obs)
    cov = rng.uniform(low, high, size=(n_obs * n_alts, len(columns)))
    chosen = np.zeros(n_obs * n_alts, dtype=bool)
    chosen[np.arange(n_obs) * n_alts + rng.integers(0, n_alts, n_obs)] = True
    w = np.ones(n_obs * n_alts) if weights is None else np.repeat(weights, n_alts)
    return ChoiceDataset(obs_ids=obs, alt_ids=alt, chosen=chosen, weights=w,
                         covariates=cov, columns=tuple(columns))


def mnl_spec(ref=3, columns=("time", "cost")):
    return ModelSpec(
        transform="mnl",
        ref_alt=ref,
        coefficients=tuple(Coefficient(c, c) for c in columns),
    )


def spec_for(transform, ref=3, columns=("time", "cost"), shape_ref=None):
    return ModelSpec(
        transform=transform,
        ref_alt=ref,
        coefficients=tuple(Coefficient(c, c) for c in columns),
        shape_ref_alt=shape_ref,
    )


def scobit_dataset(n_obs, seed, weights=None):
    """Simulated scobit market (J=3) whose fits converge in few iterations
    for every family; optional per-observation weights."""
    true = NaturalParams(
        beta=[-1.0, 0.8], tau={1: 0.4, 2: -0.2}, gamma={1: 2.0, 2: 1.0, 3: 0.5}
    )
    d = simulate(SimulationConfig(
        spec=spec_for("scobit"),
        true_params=true,
        alternatives=(1, 2, 3),
        n_obs=n_obs,
        covariates=(CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2)),
        seed=seed,
    ))
    if weights is None:
        return d
    return ChoiceDataset(obs_ids=d.obs_ids, alt_ids=d.alt_ids, chosen=d.chosen,
                         weights=np.repeat(weights, 3), covariates=d.covariates,
                         columns=d.columns)


@pytest.fixture(scope="session")
def mnl_sim_small():
    """Simulated MNL data reused across test modules (n=600, J=3)."""
    spec = mnl_spec()
    true = NaturalParams(beta=[-1.0, 0.8], tau={1: 0.5, 2: -0.3})
    cfg = SimulationConfig(
        spec=spec,
        true_params=true,
        alternatives=(1, 2, 3),
        n_obs=600,
        covariates=(CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2)),
        seed=42,
    )
    return simulate(cfg), spec, true


@pytest.fixture(scope="session")
def scobit_sim_small():
    """Simulated scobit data with distinct shapes (n=800, J=3)."""
    spec = spec_for("scobit")
    true = NaturalParams(
        beta=[-1.0, 0.8],
        tau={1: 0.4, 2: -0.2},
        gamma={1: 2.0, 2: 1.0, 3: 0.5},
    )
    cfg = SimulationConfig(
        spec=spec,
        true_params=true,
        alternatives=(1, 2, 3),
        n_obs=800,
        covariates=(CovariateSpec("time", -2, 2), CovariateSpec("cost", -2, 2)),
        seed=7,
    )
    return simulate(cfg), spec, true


def packed_fd_gradient(data, spec, x, use_weights=False, rel_step=1e-6):
    """Central finite differences of the packed log-likelihood."""
    from types import SimpleNamespace

    from flexlogit.estimation import _objective  # shares the fast path
    from flexlogit.likelihood import build_design

    design = build_design(data, spec)
    f, _ = _objective(design, SimpleNamespace(use_weights=use_weights))
    out = np.empty_like(x)
    for m in range(x.shape[0]):
        h = rel_step * max(1.0, abs(float(x[m])))
        e = np.zeros_like(x)
        e[m] = h
        out[m] = -(f(x + e) - f(x - e)) / (2 * h)
    return out
