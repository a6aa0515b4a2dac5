import numpy as np
import pytest

from flexlogit.data import ChoiceDataset
from flexlogit.errors import (
    InvalidParams,
    MissingColumn,
    NonFiniteIndex,
    SpecDataMismatch,
)
from flexlogit.likelihood import (
    Coefficient,
    ModelSpec,
    NaturalParams,
    Packing,
    build_design,
    build_design_matrix,
    gradient,
    gradient_with_design,
    ll_by_alternative,
    ll_with_design,
    log_likelihood,
    probabilities,
    probabilities_from_design,
)

from conftest import mnl_spec, packed_fd_gradient, spec_for, toy_dataset

# softmax of (1, 0, -1), 16 significant digits
SOFTMAX_1_0_M1 = (0.665240955774822, 0.244728471054798, 0.0900305731703805)


def one_obs(xs, chosen_idx=0, columns=("x",)):
    n = len(xs)
    return ChoiceDataset(
        obs_ids=np.zeros(n, dtype=int),
        alt_ids=np.arange(1, n + 1),
        chosen=np.arange(n) == chosen_idx,
        weights=np.ones(n),
        covariates=np.asarray(xs, dtype=float).reshape(n, -1),
        columns=columns,
    )


# ---------------------------------------------------------------------------
# spec and parameter plumbing
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(SpecDataMismatch):
        ModelSpec("mnl", 1, (Coefficient("b", "x"), Coefficient("b", "y")))
    with pytest.raises(SpecDataMismatch):
        ModelSpec("mnl", 1, (Coefficient("b", "x"),), shape_ref_alt=2)
    with pytest.raises(InvalidParams):
        ModelSpec("logit", 1, (Coefficient("b", "x"),))


def test_spec_dict_round_trip():
    spec = ModelSpec(
        "asym_logit",
        ref_alt=3,
        coefficients=(Coefficient("tt", "time"), Coefficient("c1", "cost", (1, 2))),
        shape_ref_alt=1,
    )
    d = spec.to_dict()
    assert d["coefficients"][0]["alts"] == "all"
    assert ModelSpec.from_dict(d) == spec


def test_effective_shape_ref():
    assert spec_for("asym_logit", ref=3).effective_shape_ref() == 3
    assert spec_for("asym_logit", ref=3, shape_ref=1).effective_shape_ref() == 1
    assert mnl_spec().effective_shape_ref() is None


def test_validate_params_errors():
    d = toy_dataset(n_obs=5)
    spec = mnl_spec()
    with pytest.raises(InvalidParams):
        probabilities(d, spec, NaturalParams(beta=[1.0]))  # wrong length
    with pytest.raises(InvalidParams):
        probabilities(d, spec, NaturalParams(beta=[1.0, 0.0], tau={3: 0.5}))
    with pytest.raises(InvalidParams):
        probabilities(
            d, spec_for("scobit"),
            NaturalParams(beta=[1.0, 0.0], gamma={1: 1.0, 2: -1.0, 3: 1.0}),
        )
    with pytest.raises(InvalidParams):
        probabilities(
            d, spec_for("asym_logit"),
            NaturalParams(beta=[1.0, 0.0], gamma={1: 0.5, 2: 0.4, 3: 0.4}),
        )
    with pytest.raises(InvalidParams):
        probabilities(d, spec_for("scobit"), NaturalParams(beta=[1.0, 0.0]))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_packed_names_and_dim():
    alts = (1, 2, 3)
    pk = Packing(mnl_spec(), alts)
    assert pk.names() == ["beta:time", "beta:cost", "tau:1", "tau:2"]
    assert pk.dim == 4

    pk = Packing(spec_for("scobit"), alts)
    assert pk.names()[-3:] == ["shape:1", "shape:2", "shape:3"]

    pk = Packing(spec_for("czado"), alts)
    assert pk.names()[-4:] == ["shape:2:1", "shape:2:2", "shape:3:1", "shape:3:2"]
    assert pk.dim == 2 + 2 + 6

    # asym omits the shape of its reference alternative
    pk = Packing(spec_for("asym_logit"), alts)
    assert pk.names()[-2:] == ["shape:1", "shape:2"]
    pk = Packing(spec_for("asym_logit", shape_ref=1), alts)
    assert pk.names()[-2:] == ["shape:2", "shape:3"]


@pytest.mark.parametrize(
    "transform",
    ["mnl", "cloglog", "scobit", "uneven_logit", "asym_logit", "weibull", "qgev", "czado"],
)
def test_pack_unpack_is_exact(transform):
    pk = Packing(spec_for(transform), (1, 2, 3))
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.normal(0, 1.3, pk.dim)
        nat = pk.unpack(v)
        assert np.array_equal(pk.pack(nat), v)


def test_pack_from_natural_values():
    # without the cached unconstrained block, pack inverts the reparam
    pk = Packing(spec_for("scobit"), (1, 2, 3))
    nat = NaturalParams(
        beta=[0.5, -1.0], tau={1: 0.2, 2: -0.1}, gamma={1: 2.0, 2: 1.0, 3: 0.5}
    )
    v = pk.pack(nat)
    np.testing.assert_allclose(
        v, [0.5, -1.0, 0.2, -0.1, np.log(2.0), 0.0, np.log(0.5)], atol=1e-14
    )


def test_asym_unpack_lives_on_simplex():
    pk = Packing(spec_for("asym_logit"), (1, 2, 3))
    nat = pk.unpack(np.array([0.0, 0.0, 0.0, 0.0, 1.0, -0.5]))
    g = np.array([nat.gamma[a] for a in (1, 2, 3)])
    assert np.sum(g) == pytest.approx(1.0, abs=1e-14)
    assert np.all((g > 0) & (g < 1))
    # the gauge: reference alternative's unconstrained entry is zero
    np.testing.assert_allclose(
        g / g[2], np.exp([1.0, -0.5, 0.0]), rtol=1e-12
    )


def test_asym_phi_example():
    # unconstrained (0, log 3) with shape_ref first -> gammas (0.25, 0.75)
    pk = Packing(
        ModelSpec("asym_logit", 1, (Coefficient("b", "x"),), shape_ref_alt=1),
        (1, 2),
    )
    nat = pk.unpack(np.array([0.0, 0.0, np.log(3.0)]))
    assert nat.gamma[1] == pytest.approx(0.25, rel=1e-14)
    assert nat.gamma[2] == pytest.approx(0.75, rel=1e-14)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def test_softmax_oracle():
    d = one_obs([1.0, 0.0, -1.0])
    p = probabilities(d, mnl_spec(columns=("x",)), NaturalParams(beta=[1.0]))
    np.testing.assert_allclose(p, SOFTMAX_1_0_M1, rtol=1e-14)


def test_probabilities_normalize(scobit_sim_small):
    data, spec, true = scobit_sim_small
    p = probabilities(data, spec, true)
    sums = np.add.reduceat(p, data.obs_ptr[:-1])
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def ragged_dataset(n_obs=400, seed=5):
    """Observations offering 2 to 5 of alternatives 1..5, wide covariates."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 6, n_obs)
    alt = np.concatenate([np.sort(rng.choice(np.arange(1, 6), k, replace=False))
                          for k in sizes])
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    chosen = np.zeros(alt.shape[0], dtype=bool)
    chosen[ptr[:-1] + rng.integers(0, sizes)] = True
    return ChoiceDataset(
        obs_ids=np.repeat(np.arange(n_obs), sizes), alt_ids=alt, chosen=chosen,
        weights=np.ones(alt.shape[0]),
        covariates=rng.uniform(-6.0, 6.0, (alt.shape[0], 2)), columns=("time", "cost"),
    )


def _reduceat_probabilities(design, params):
    """The softmax by segment reductions over ``obs_ptr``, as the forward
    pass took it before its scatter maximum and ``bincount`` sums."""
    pk = design.packing
    fam = pk.family
    nat = params.gamma_matrix(pk.alternatives, fam.n_shapes_per_alt)
    g_rows = None if nat is None else nat[design.alt_index, 0]
    S = fam.value(design.X @ params.beta, g_rows, len(pk.alternatives))
    expo = S + params.tau_vector(pk.alternatives)[design.alt_index]
    starts, row_obs = design.obs_ptr[:-1], design.row_obs
    e = np.exp(expo - np.maximum.reduceat(expo, starts)[row_obs])
    return e / np.add.reduceat(e, starts)[row_obs]


@pytest.mark.parametrize("transform,gamma", [
    ("mnl", None),
    ("cloglog", None),
    ("scobit", {1: 0.4, 2: 2.5, 3: 1.0, 4: 6.0, 5: 0.8}),
    ("uneven_logit", {1: 0.3, 2: 3.0, 3: 1.0, 4: 8.0, 5: 1.5}),
])
def test_softmax_against_reduceat_oracle(transform, gamma):
    """Ragged observations (2 to 5 alternatives): the forward pass agrees
    with the segment-reduction softmax to 1e-15 relative; only the order of
    each observation's sum differs."""
    data = ragged_dataset()
    design = build_design(data, spec_for(transform, ref=5))
    params = NaturalParams(beta=[0.7, -0.45], tau={1: 0.3, 2: -0.4, 3: 0.1, 4: 0.5},
                           gamma=gamma)
    got, want = probabilities_from_design(design, params), _reduceat_probabilities(design, params)
    assert set(np.diff(design.obs_ptr)) == {2, 3, 4, 5}
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert np.array_equal(got == 0.0, want == 0.0)


def test_probabilities_shift_invariant():
    # adding a constant to every V leaves MNL probabilities unchanged
    d = one_obs([1.0, 0.0, -1.0])
    d2 = one_obs([11.0, 10.0, 9.0])
    spec = mnl_spec(columns=("x",))
    np.testing.assert_allclose(
        probabilities(d, spec, NaturalParams(beta=[1.0])),
        probabilities(d2, spec, NaturalParams(beta=[1.0])),
        rtol=1e-12,
    )


def test_mnl_iia_ratio():
    spec = mnl_spec(columns=("x",))
    pars = NaturalParams(beta=[0.7], tau={1: 0.3, 2: -0.2})
    pa = probabilities(one_obs([1.0, 0.5, -1.0]), spec, pars)
    pb = probabilities(one_obs([1.0, 0.5, 40.0]), spec, pars)
    assert pa[0] / pa[1] == pytest.approx(pb[0] / pb[1], rel=1e-12)


def test_binary_cloglog_closed_form():
    """With tau_1 = S(0) the two-alternative model is exactly the classical
    complementary log-log response 1 - exp(-e^V)."""
    tau1 = float(np.log(np.e - 1.0))
    spec = ModelSpec("cloglog", ref_alt=2, coefficients=(Coefficient("b", "x"),))
    vs = np.array([-2.0, -0.5, 0.0, 0.7, 2.5])
    n = vs.shape[0]
    d = ChoiceDataset(
        obs_ids=np.repeat(np.arange(n), 2),
        alt_ids=np.tile([1, 2], n),
        chosen=np.tile([True, False], n),
        weights=np.ones(2 * n),
        covariates=np.stack([vs, np.zeros(n)], axis=1).reshape(2 * n, 1),
        columns=("x",),
    )
    p = probabilities(d, spec, NaturalParams(beta=[1.0], tau={1: tau1}))
    np.testing.assert_allclose(p[::2], 1.0 - np.exp(-np.exp(vs)), rtol=1e-12)
    assert p[4] == pytest.approx(0.6321205588285577, rel=1e-14)


def test_scobit_gamma_one_equals_mnl(mnl_sim_small):
    data, spec, true = mnl_sim_small
    ones = {a: 1.0 for a in data.alternatives}
    p_mnl = probabilities(data, spec, true)
    p_sco = probabilities(
        data, spec_for("scobit"),
        NaturalParams(beta=true.beta, tau=dict(true.tau), gamma=ones),
    )
    np.testing.assert_allclose(p_sco, p_mnl, atol=1e-12)


def test_asym_anchor_matches_scaled_mnl(mnl_sim_small):
    data, spec, true = mnl_sim_small
    J = len(data.alternatives)
    lnJ = np.log(J)
    # S = (V - 1) log J, so the index is tau_j + (log J) V minus a common shift
    p_mnl = probabilities(
        data, spec, NaturalParams(beta=true.beta * lnJ, tau=dict(true.tau))
    )
    p_asym = probabilities(
        data, spec_for("asym_logit"),
        NaturalParams(beta=true.beta, tau=dict(true.tau),
                      gamma={a: 1.0 / J for a in data.alternatives}),
    )
    np.testing.assert_allclose(p_asym, p_mnl, atol=1e-10)


# ---------------------------------------------------------------------------
# likelihood and gradient
# ---------------------------------------------------------------------------


def test_log_likelihood_by_hand():
    d = ChoiceDataset(
        obs_ids=[0, 0, 1, 1],
        alt_ids=[1, 2, 1, 2],
        chosen=[True, False, False, True],
        weights=[1.0, 1.0, 3.0, 3.0],
        covariates=np.array([[1.0], [0.0], [0.2], [0.9]]),
        columns=("x",),
    )
    spec = mnl_spec(ref=2, columns=("x",))
    pars = NaturalParams(beta=[0.8], tau={1: -0.1})
    v = 0.8 * d.covariates[:, 0] + np.where(d.alt_ids == 1, -0.1, 0.0)
    p = np.exp(v).reshape(2, 2)
    p /= p.sum(axis=1, keepdims=True)
    want = np.log(p[0, 0]) + np.log(p[1, 1])
    assert log_likelihood(d, spec, pars) == pytest.approx(want, rel=1e-12)
    want_w = np.log(p[0, 0]) + 3.0 * np.log(p[1, 1])
    assert log_likelihood(d, spec, pars, use_weights=True) == pytest.approx(
        want_w, rel=1e-12
    )


def test_ll_by_alternative_sums_to_total(scobit_sim_small):
    data, spec, true = scobit_sim_small
    parts = ll_by_alternative(data, spec, true)
    assert set(parts) == set(data.alternatives)
    assert sum(parts.values()) == pytest.approx(
        log_likelihood(data, spec, true), rel=1e-12
    )


@pytest.mark.parametrize(
    "transform", ["mnl", "cloglog", "scobit", "uneven_logit", "asym_logit", "czado"]
)
def test_packed_gradient_matches_fd(transform):
    data = toy_dataset(n_obs=30, seed=23)
    spec = spec_for(transform)
    design = build_design(data, spec)
    pk = design.packing
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.normal(0, 0.4, pk.dim)
        got = gradient_with_design(design, pk.unpack(x))
        want = packed_fd_gradient(data, spec, x)
        np.testing.assert_allclose(got, want, rtol=2e-6, atol=2e-7)


def test_packed_gradient_weighted():
    data = toy_dataset(n_obs=25, seed=29, weights=np.linspace(0.5, 2.5, 25))
    spec = spec_for("uneven_logit")
    design = build_design(data, spec)
    pk = design.packing
    x = np.random.default_rng(1).normal(0, 0.3, pk.dim)
    got = gradient_with_design(design, pk.unpack(x), use_weights=True)
    want = packed_fd_gradient(data, spec, x, use_weights=True)
    np.testing.assert_allclose(got, want, rtol=2e-6, atol=2e-7)


def test_public_gradient_is_the_compiled_gradient():
    data = toy_dataset(n_obs=30, seed=23, weights=np.linspace(0.5, 2.5, 30))
    spec = spec_for("scobit")
    pk = Packing(spec, data.alternatives)
    x = np.random.default_rng(4).normal(0, 0.4, pk.dim)
    params = pk.unpack(x)
    for use_weights in (False, True):
        got = gradient(data, spec, params, use_weights)
        want = gradient_with_design(build_design(data, spec), params, use_weights)
        assert np.array_equal(got, want)
    # central differences of the public log-likelihood
    fd = np.empty(pk.dim)
    for m in range(pk.dim):
        e = np.zeros(pk.dim)
        e[m] = 1e-6
        fd[m] = (log_likelihood(data, spec, pk.unpack(x + e))
                 - log_likelihood(data, spec, pk.unpack(x - e))) / 2e-6
    np.testing.assert_allclose(gradient(data, spec, params), fd, rtol=2e-6, atol=2e-7)
    bad = NaturalParams(beta=[np.nan, 0.0], tau=params.tau, gamma=params.gamma)
    with pytest.raises(InvalidParams, match="beta contains non-finite entries"):
        gradient(data, spec, bad)


def test_floored_probability_keeps_ll_finite():
    d = one_obs([[1.0], [0.0]])
    spec = ModelSpec("mnl", ref_alt=2, coefficients=(Coefficient("b", "x"),))
    design = build_design(d, spec)
    ll, floored = ll_with_design(
        design, NaturalParams(beta=[-800.0], tau={1: 0.0})
    )
    assert floored == 1
    assert np.isfinite(ll)
    assert ll == pytest.approx(np.log(1e-300))


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------


def test_coefficient_scoping_masks_design():
    spec = ModelSpec(
        "mnl",
        ref_alt=3,
        coefficients=(Coefficient("tt", "time"), Coefficient("c12", "cost", (1, 2))),
    )
    d = toy_dataset(n_obs=4)
    X, alt_index = build_design_matrix(
        spec, d.covariates, d.columns, d.alt_ids, d.alternatives
    )
    np.testing.assert_array_equal(X[:, 0], d.column("time"))
    mask = np.isin(d.alt_ids, (1, 2))
    np.testing.assert_array_equal(X[mask, 1], d.column("cost")[mask])
    assert np.all(X[~mask, 1] == 0.0)
    np.testing.assert_array_equal(alt_index, d.alt_ids - 1)
    # positions follow the order of the alternatives argument, sorted or not
    X2, alt_index = build_design_matrix(
        spec, d.covariates, d.columns, d.alt_ids, (3, 1, 2)
    )
    np.testing.assert_array_equal(X2, X)
    np.testing.assert_array_equal(alt_index, np.array([1, 2, 0])[d.alt_ids - 1])
    with pytest.raises(SpecDataMismatch, match="alternative 5 not in the alternative set"):
        build_design_matrix(
            spec, d.covariates, d.columns, np.where(d.alt_ids == 2, 5, d.alt_ids),
            (3, 1, 2),
        )


def test_build_design_errors():
    d = toy_dataset(n_obs=4)
    with pytest.raises(SpecDataMismatch):
        build_design(d, mnl_spec(ref=9))
    bad_scope = ModelSpec("mnl", 3, (Coefficient("c", "cost", (1, 7)),))
    with pytest.raises(SpecDataMismatch):
        build_design(d, bad_scope)
    with pytest.raises(MissingColumn):
        build_design(d, ModelSpec("mnl", 3, (Coefficient("inc", "income"),)))


def test_constant_column_collinearity():
    d = toy_dataset(n_obs=4)
    const = np.hstack([d.covariates, np.ones((d.n_rows, 1))])
    d2 = ChoiceDataset(
        obs_ids=d.obs_ids, alt_ids=d.alt_ids, chosen=d.chosen,
        weights=d.weights, covariates=const, columns=("time", "cost", "one"),
    )
    spec = ModelSpec("mnl", 3, (Coefficient("asc", "one"),))
    with pytest.raises(SpecDataMismatch):
        build_design(d2, spec)
    # scoped to a strict subset of alternatives it is a legitimate ASC
    scoped = ModelSpec("mnl", 3, (Coefficient("asc1", "one", (1,)),))
    build_design(d2, scoped)


def test_overflowing_index_raises():
    d = one_obs([[1e308], [0.0]])
    spec = ModelSpec("mnl", ref_alt=2, coefficients=(Coefficient("b", "x"),))
    with pytest.raises(NonFiniteIndex):
        probabilities(d, spec, NaturalParams(beta=[1e10]))
