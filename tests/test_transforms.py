import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from flexlogit.errors import DomainViolation, InvalidParams
from flexlogit.transforms import (
    CORE_FAMILY_NAMES,
    FAMILIES,
    RESTRICTED_FAMILY_NAMES,
    expit,
    get_family,
    log_expm1,
    softplus,
)
from transform_oracle import ORACLES

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


def arr(*xs):
    return np.asarray(xs, dtype=float)


def dv_of(fam, v, g=None, J=None):
    return fam.value(v, g, J, grad=True)[1]


def dshape_of(fam, v, g=None, J=None):
    return fam.value(v, g, J, grad=True)[2]


# ---------------------------------------------------------------------------
# frozen single-point values (computed with 50-digit arithmetic, rounded to
# double precision)
# ---------------------------------------------------------------------------


def test_registry_complete():
    assert set(FAMILIES) == set(CORE_FAMILY_NAMES) | set(RESTRICTED_FAMILY_NAMES)
    for name, fam in FAMILIES.items():
        assert fam.name == name
        assert fam.monotone_sign in (-1, +1)


def test_get_family_unknown():
    with pytest.raises(InvalidParams):
        get_family("probit")


def test_mnl_is_identity():
    v = np.linspace(-40, 40, 17)
    fam = get_family("mnl")
    assert np.array_equal(fam.value(v), v)
    s, dv, dg = fam.value(v, grad=True)
    assert np.array_equal(s, v)
    assert np.array_equal(dv, np.ones_like(v))
    assert dg is None


def test_cloglog_values():
    fam = get_family("cloglog")
    assert fam.value(arr(0.0))[0] == pytest.approx(0.5413248546129181, rel=1e-14)
    # e^V > 34: S collapses to e^V
    assert fam.value(arr(20.0))[0] == pytest.approx(485165195.4097903, rel=1e-14)
    # deep lower tail: S -> V
    assert fam.value(arr(-30.0))[0] == pytest.approx(-29.999999999999954, rel=1e-14)
    assert fam.value(arr(-300.0))[0] == -300.0


def test_scobit_values():
    fam = get_family("scobit")
    # S(0, 2) = -log((1+1)^2 - 1) = -log 3
    assert fam.value(arr(0.0), arr(2.0))[0] == pytest.approx(-LN3, rel=1e-14)
    # gamma = 1 is the identity
    v = np.linspace(-20, 20, 11)
    np.testing.assert_allclose(fam.value(v, np.ones_like(v)), v, rtol=1e-12)
    # upper tail with gamma*softplus(-V) underflowed: S = V - log(gamma)
    assert fam.value(arr(746.0), arr(2.0))[0] == pytest.approx(746.0 - LN2, rel=1e-14)


def test_uneven_logit_values():
    fam = get_family("uneven_logit")
    assert fam.value(arr(1.0), arr(3.0))[0] == pytest.approx(
        1.2646743359444808, rel=1e-14
    )
    v = np.linspace(-20, 20, 11)
    np.testing.assert_allclose(fam.value(v, np.ones_like(v)), v, rtol=1e-12, atol=1e-12)


def test_asym_logit_values():
    fam = get_family("asym_logit")
    assert fam.value(arr(-2.0), arr(0.3), n_alts=3)[0] == pytest.approx(
        -3.3036170533232916, rel=1e-14
    )
    # at the simplex anchor 1/J both branch slopes equal log J
    J = 4
    v = np.linspace(-3, 3, 13)
    g = np.full_like(v, 1.0 / J)
    np.testing.assert_allclose(
        fam.value(v, g, n_alts=J), (v - 1.0) * np.log(J), rtol=1e-12, atol=1e-12
    )


def test_restricted_values():
    assert get_family("exponential").value(arr(2.0))[0] == pytest.approx(-LN2)
    assert get_family("rayleigh").value(arr(2.0))[0] == pytest.approx(-2 * LN2)
    assert get_family("weibull").value(arr(2.0), arr(3.0))[0] == pytest.approx(-3 * LN2)
    assert get_family("pareto").value(arr(2.0))[0] == pytest.approx(LN2)
    assert get_family("qgev").value(arr(2.0), arr(3.0))[0] == pytest.approx(
        -np.log(5.0) / 2.0
    )
    cz = get_family("czado")
    assert cz.value(arr(2.0), np.array([[2.0, 5.0]]))[0] == pytest.approx(4.0)
    assert cz.value(arr(-0.5), np.array([[2.0, 5.0]]))[0] == pytest.approx(-1.31875)


def test_czado_smooth_at_zero():
    cz = get_family("czado")
    g = np.array([[3.0, 0.5]])
    # slope 1 from both sides regardless of the exponents
    assert dv_of(cz, arr(0.0), g)[0] == 1.0
    h = 1e-7
    fd = (cz.value(arr(h), g)[0] - cz.value(arr(-h), g)[0]) / (2 * h)
    assert fd == pytest.approx(1.0, abs=1e-6)


def test_helpers_against_naive():
    x = np.linspace(-30, 30, 201)
    np.testing.assert_allclose(softplus(x), np.log1p(np.exp(np.minimum(x, 500))),
                               rtol=1e-12)
    y = np.linspace(0.01, 33, 101)
    np.testing.assert_allclose(log_expm1(y), np.log(np.exp(y) - 1), rtol=1e-10)
    # overflow-safe branch agrees with the asymptote
    assert log_expm1(np.array([700.0]))[0] == pytest.approx(700.0)
    # beyond 34, x + log1p(-e^-x) rounds to x, and the branch returns x
    big = np.array([np.nextafter(34.0, np.inf), 34.5, 64.0, 100.0, 700.0, 1e300])
    assert np.array_equal(big + np.log1p(-np.exp(-big)), big)
    assert np.array_equal(log_expm1(big), big)


def test_naive_formula_agreement():
    """Branch-free textbook formulas reproduce the guarded implementations
    on moderate inputs."""
    rng = np.random.default_rng(3)
    v = rng.uniform(-4, 4, 200)

    np.testing.assert_allclose(
        get_family("cloglog").value(v), np.log(np.exp(np.exp(v)) - 1), rtol=1e-9
    )
    g = rng.uniform(0.2, 4, 200)
    np.testing.assert_allclose(
        get_family("scobit").value(v, g),
        -np.log((1 + np.exp(-v)) ** g - 1),
        rtol=1e-8,
    )
    np.testing.assert_allclose(
        get_family("uneven_logit").value(v, g),
        np.log1p(np.exp(v)) - np.log1p(np.exp(-g * v)),
        rtol=1e-9,
        atol=1e-12,
    )
    vp = rng.uniform(0.1, 6, 200)
    gz = np.stack([g, np.roll(g, 1)], axis=1)
    np.testing.assert_allclose(
        get_family("czado").value(vp, gz), ((1 + vp) ** g - 1) / g, rtol=1e-10
    )
    np.testing.assert_allclose(
        get_family("czado").value(-vp, gz),
        -((1 + vp) ** np.roll(g, 1) - 1) / np.roll(g, 1),
        rtol=1e-10,
    )


# ---------------------------------------------------------------------------
# derivative checks against central differences
# ---------------------------------------------------------------------------

# family -> (v range, gamma range or None)
_FD_CASES = {
    "mnl": ((-30, 30), None),
    "cloglog": ((-30, 4), None),
    "scobit": ((-8, 8), (0.1, 8)),
    "uneven_logit": ((-8, 8), (0.1, 8)),
    "asym_logit": ((-5, 5), (0.05, 0.95)),
    "exponential": ((0.1, 50), None),
    "rayleigh": ((0.1, 50), None),
    "weibull": ((0.1, 50), (0.1, 8)),
    "pareto": ((1.1, 50), None),
}


def _fd_dv(fam, v, g, J):
    h = 1e-6 * max(1.0, abs(float(v[0])))
    return (fam.value(v + h, g, J)[0] - fam.value(v - h, g, J)[0]) / (2 * h)


def _check_dv(fam, v, g, J=4):
    got = dv_of(fam, v, g, J)[0]
    want = _fd_dv(fam, v, g, J)
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))
    assert np.sign(got) == fam.monotone_sign


@pytest.mark.parametrize("name", sorted(_FD_CASES))
def test_d_value_dv_matches_fd(name):
    fam = get_family(name)
    vr, gr = _FD_CASES[name]
    rng = np.random.default_rng(11)
    for _ in range(60):
        v = arr(rng.uniform(*vr))
        g = arr(rng.uniform(*gr)) if gr is not None else None
        if name == "asym_logit" and abs(v[0]) < 1e-3:
            continue  # kink at zero: FD straddles both branches
        _check_dv(fam, v, g)


@given(v=st.floats(-8, 8), g1=st.floats(0.15, 6), g2=st.floats(0.15, 6))
def test_czado_dv_matches_fd(v, g1, g2):
    assume(abs(v) > 1e-3)
    fam = get_family("czado")
    g = np.array([[g1, g2]])
    _check_dv(fam, arr(v), g)


@given(v=st.floats(0.05, 10), lg=st.floats(-1.5, 1.4))
def test_qgev_dv_matches_fd_upper_branch(v, lg):
    fam = get_family("qgev")
    _check_dv(fam, arr(v), arr(1.0 + np.exp(lg)))


@given(g=st.floats(0.2, 0.9), frac=st.floats(0.05, 0.9))
def test_qgev_dv_matches_fd_lower_branch(g, frac):
    # gamma < 1 needs V < 1/(1 - gamma); stay clear of the boundary
    fam = get_family("qgev")
    _check_dv(fam, arr(frac / (1.0 - g)), arr(g))


@given(v=st.floats(-8, 8), g=st.floats(0.1, 8))
def test_scobit_dshape_matches_fd(v, g):
    fam = get_family("scobit")
    h = 1e-6 * max(1.0, g)
    want = (fam.value(arr(v), arr(g + h))[0] - fam.value(arr(v), arr(g - h))[0]) / (
        2 * h
    )
    got = dshape_of(fam, arr(v), arr(g))[0]
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


@given(v=st.floats(-8, 8), g=st.floats(0.1, 8))
def test_uneven_dshape_matches_fd(v, g):
    fam = get_family("uneven_logit")
    h = 1e-6 * max(1.0, g)
    want = (fam.value(arr(v), arr(g + h))[0] - fam.value(arr(v), arr(g - h))[0]) / (
        2 * h
    )
    got = dshape_of(fam, arr(v), arr(g))[0]
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


@given(v=st.floats(-5, 5), g=st.floats(0.05, 0.9))
def test_asym_dshape_matches_fd(v, g):
    assume(abs(v) > 1e-3)
    fam = get_family("asym_logit")
    h = 1e-7
    want = (
        fam.value(arr(v), arr(g + h), 4)[0] - fam.value(arr(v), arr(g - h), 4)[0]
    ) / (2 * h)
    got = dshape_of(fam, arr(v), arr(g), 4)[0]
    assert abs(got - want) <= 1e-4 * max(1.0, abs(want))


@given(v=st.floats(0.1, 40), g=st.floats(0.1, 8))
def test_weibull_dshape_matches_fd(v, g):
    fam = get_family("weibull")
    h = 1e-6 * max(1.0, g)
    want = (fam.value(arr(v), arr(g + h))[0] - fam.value(arr(v), arr(g - h))[0]) / (
        2 * h
    )
    got = dshape_of(fam, arr(v), arr(g))[0]
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


@given(v=st.floats(0.05, 10), lg=st.floats(-1.5, 1.4))
def test_qgev_dshape_matches_fd(v, lg):
    fam = get_family("qgev")
    g = 1.0 + float(np.exp(lg))
    h = 1e-6 * g
    want = (fam.value(arr(v), arr(g + h))[0] - fam.value(arr(v), arr(g - h))[0]) / (
        2 * h
    )
    got = dshape_of(fam, arr(v), arr(g))[0]
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


@given(v=st.floats(-8, 8), g1=st.floats(0.15, 6), g2=st.floats(0.15, 6))
def test_czado_dshape_matches_fd(v, g1, g2):
    fam = get_family("czado")
    got = dshape_of(fam, arr(v), np.array([[g1, g2]]))[0]
    for k, gk in enumerate((g1, g2)):
        h = 1e-6 * max(1.0, gk)
        up = [g1, g2]
        dn = [g1, g2]
        up[k] += h
        dn[k] -= h
        want = (
            fam.value(arr(v), np.array([up]))[0] - fam.value(arr(v), np.array([dn]))[0]
        ) / (2 * h)
        assert abs(got[k] - want) <= 1e-5 * max(1.0, abs(want))
    # the inactive branch never contributes
    assert got[1] == 0.0 if v >= 0 else got[0] == 0.0


# ---------------------------------------------------------------------------
# monotonicity in V
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_strictly_monotone_in_v(name):
    fam = get_family(name)
    rng = np.random.default_rng(5)
    if name in ("exponential", "rayleigh", "weibull"):
        v = np.sort(rng.uniform(0.01, 80, 300))
    elif name == "pareto":
        v = np.sort(rng.uniform(1.01, 80, 300))
    elif name == "qgev":
        v = np.sort(rng.uniform(0.01, 30, 300))
    elif name == "cloglog":
        v = np.sort(rng.uniform(-700, 700, 300))
    else:
        v = np.sort(rng.uniform(-30, 30, 300))
    if name == "czado":
        g = np.broadcast_to(np.array([2.0, 0.5]), (300, 2))
    elif name == "asym_logit":
        g = np.full(300, 0.2)
    elif fam.n_shapes_per_alt:
        g = np.full(300, 2.0)
    else:
        g = None
    s = fam.value(v, g, 4)
    assert np.all(np.isfinite(s))
    assert np.all(fam.monotone_sign * np.diff(s) > 0)


# ---------------------------------------------------------------------------
# domains and shape constraints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,v,g,frag",
    [
        ("exponential", 0.0, None, "V > 0"),
        ("exponential", -1.0, None, "V > 0"),
        ("rayleigh", -0.5, None, "V > 0"),
        ("weibull", 0.0, 2.0, "V > 0"),
        ("pareto", 0.5, None, "V > 1"),
        ("pareto", 1.0, None, "V > 1"),
        ("cloglog", 710.0, None, "V <= 709"),
        ("qgev", -1.0, 3.0, "1 + (gamma - 1) V > 0"),
    ],
)
def test_domain_violations_raise(name, v, g, frag):
    fam = get_family(name)
    gg = None if g is None else arr(g)
    with pytest.raises(DomainViolation) as exc:
        fam.value(arr(v), gg)
    assert frag in str(exc.value)
    assert name in str(exc.value)


def test_domain_reports_without_raising():
    assert get_family("pareto").domain(arr(0.5)) == "V > 1"
    assert get_family("pareto").domain(arr(1.5)) is None
    assert get_family("qgev").domain(arr(-2.0), arr(2.0)) is not None


def test_check_shapes():
    assert get_family("scobit").check_shapes(arr(-1.0)) == "gamma > 0"
    assert get_family("scobit").check_shapes(arr(0.5, 2.0)) is None
    assert get_family("qgev").check_shapes(arr(1.0)) == "gamma != 1"
    asym = get_family("asym_logit")
    assert asym.check_shapes(arr(0.2, 0.3, 0.5)) is None
    assert asym.check_shapes(arr(0.2, 0.3, 0.4)) == "sum of gammas = 1"
    assert asym.check_shapes(arr(1.2, -0.1, -0.1)) == "each gamma in (0, 1)"


# ---------------------------------------------------------------------------
# unconstrained reparameterization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["scobit", "uneven_logit", "weibull", "czado"])
def test_log_reparam_round_trip(name):
    fam = get_family(name)
    u = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
    g = fam.to_natural(u)
    assert np.all(g > 0)
    np.testing.assert_allclose(fam.from_natural(g), u, rtol=0, atol=1e-12)


def test_qgev_reparam_covers_heavy_branch():
    fam = get_family("qgev")
    u = np.array([-5.0, 0.0, 3.0])
    g = fam.to_natural(u)
    assert np.all(g > 1)
    np.testing.assert_allclose(fam.from_natural(g), u, atol=1e-12)


def test_asym_reparam_is_softmax():
    fam = get_family("asym_logit")
    u = np.array([0.0, 1.0, -2.0, 0.5])
    g = fam.to_natural(u)
    assert np.sum(g) == pytest.approx(1.0, abs=1e-14)
    assert np.all((g > 0) & (g < 1))
    # shifting every component is a gauge move
    np.testing.assert_allclose(fam.to_natural(u + 7.3), g, rtol=1e-12)
    # log is the gauge-free inverse
    np.testing.assert_allclose(fam.to_natural(fam.from_natural(g)), g, rtol=1e-12)


# ---------------------------------------------------------------------------
# numerical stability at extremes
# ---------------------------------------------------------------------------


def test_cloglog_stable_over_full_float_range():
    v = np.linspace(-700, 700, 10001)
    fam = get_family("cloglog")
    s = fam.value(v)
    assert np.all(np.isfinite(s))
    assert np.all(np.diff(s) > 0)
    d = dv_of(fam, np.linspace(-700, 700, 2001))
    assert np.all(np.isfinite(d))
    assert np.all(d >= 1.0)


def test_scobit_stable_at_extreme_shapes():
    fam = get_family("scobit")
    v = np.array([-200.0, -5.0, 0.0, 5.0, 200.0, 700.0])
    for g in (np.exp(-50.0), 1e-3, 1.0, 1e3, np.exp(50.0)):
        gg = np.full_like(v, g)
        assert np.all(np.isfinite(fam.value(v, gg)))
        for out in fam.value(v, gg, grad=True):
            assert np.all(np.isfinite(out))


def test_uneven_stable_at_extreme_shapes():
    fam = get_family("uneven_logit")
    v = np.array([-500.0, -1.0, 0.0, 1.0, 500.0])
    for g in (1e-8, 1.0, 1e8):
        gg = np.full_like(v, g)
        for out in (fam.value(v, gg), *fam.value(v, gg, grad=True)):
            assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# fused kernels against the three-method oracle, bit for bit
# ---------------------------------------------------------------------------

_V_WIDE = np.concatenate([
    np.linspace(-800.0, 800.0, 1601),
    [-746.0, -745.2, -709.0, -34.0, -1e-300, 0.0, 1e-300, 34.0, 708.9, 709.0],
])
_V_POS = np.concatenate([
    np.geomspace(1e-300, 800.0, 1201), [5e-324, 1e-12, 1.0, 34.0, 709.0, 800.0],
])
_V_PARETO = np.concatenate([1.0 + np.geomspace(2.3e-16, 799.0, 1201), [1.5, 2.0]])


def _kernel_cases():
    """(family name, v, gamma, n_alts) grids covering every branch, with the
    stability tests' extremes: V to +-800, scobit gamma e^+-50, uneven_logit
    gamma 1e+-8, and per-row as well as broadcast shapes."""
    def col(x):
        return np.full_like(_V_WIDE, x)

    yield "mnl", _V_WIDE, None, None
    yield "cloglog", _V_WIDE[_V_WIDE <= 709.0], None, None
    for g in (np.exp(-50.0), 1e-3, 0.5, 1.0, 2.0, 1e3, np.exp(50.0)):
        yield "scobit", _V_WIDE, col(g), None
        yield "scobit", _V_WIDE, np.float64(g), None
    for g in (1e-8, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e8):
        yield "uneven_logit", _V_WIDE, col(g), None
        yield "uneven_logit", _V_WIDE, np.float64(g), None
    for J in (2, 3, 4):
        for g in (1e-6, 0.05, 1.0 / J, 0.6, 0.999999, 1.0):
            yield "asym_logit", _V_WIDE, col(g), J
    yield "exponential", _V_POS, None, None
    yield "rayleigh", _V_POS, None, None
    for g in (1e-3, 0.5, 1.0, 2.0, 8.0):
        yield "weibull", _V_POS, np.full_like(_V_POS, g), None
        yield "weibull", _V_POS, np.float64(g), None
    yield "pareto", _V_PARETO, None, None
    for g in (1.0 + 1e-9, 1.5, 3.0, 50.0):
        v = _V_POS[(g - 1.0) * _V_POS > -1.0]
        yield "qgev", np.concatenate([v, -0.999 / (g - 1.0) * np.linspace(0, 1, 50)]), \
            np.float64(g), None
    for g in (0.2, 0.5, 0.9, 1.0 - 1e-9):
        v = np.linspace(-800.0, 0.999 / (1.0 - g), 1001)
        yield "qgev", v, np.full_like(v, g), None
    rng = np.random.default_rng(13)
    v = np.linspace(-800.0, 800.0, 1601)
    yield "czado", v, rng.uniform(0.15, 6.0, (v.shape[0], 2)), None
    yield "czado", v, np.array([2.0, 0.5]), None
    yield "czado", v, np.array([[1.0, 1.0]]).repeat(v.shape[0], axis=0), None


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_fused_kernel_equals_oracle(name):
    oracle = ORACLES[name]
    fam = get_family(name)
    n = 0
    for case, v, g, J in _kernel_cases():
        if case != name:
            continue
        n += 1
        with np.errstate(all="ignore"):
            s, dv, dg = fam.value(v, g, J, grad=True)
            want_s = oracle.value(v, g, J)
            want_dv = oracle.d_value_dv(v, g, J)
            want_dg = oracle.d_value_dshape(v, g, J) if fam.n_shapes_per_alt else None
            plain = fam.value(v, g, J)
        assert np.array_equal(plain, want_s, equal_nan=True)
        assert np.array_equal(s, want_s, equal_nan=True)
        assert np.array_equal(dv, want_dv, equal_nan=True)
        if want_dg is None:
            assert dg is None
        else:
            assert np.array_equal(dg, want_dg, equal_nan=True)
    assert n > 0


def test_expit_within_4_ulp_of_scipy():
    """``transforms.expit`` is scipy's expression evaluated with numpy's exp,
    so the two may differ in the last bits; bound them on every argument the
    kernel grids give expit (V and -gamma V, both signs) plus a dense sweep."""
    from scipy.special import expit as scipy_expit

    args = []
    for _, v, g, _ in _kernel_cases():
        args.append(np.ravel(v))
        if g is not None and np.size(g) in (1, np.size(v)):
            args.append(np.ravel(-np.asarray(g) * v))
    x = np.concatenate(args)
    x = np.concatenate([x, -x, np.linspace(-800.0, 800.0, 200_001)])
    got, want = expit(x), scipy_expit(x)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))  # both are >= 0
    assert ulps.max() <= 4
    assert np.array_equal(got == 0.0, want == 0.0)


@pytest.mark.parametrize(
    "name,v,g",
    [
        ("cloglog", arr(3.0, 710.0, 800.0), None),
        ("exponential", arr(2.0, 0.0, -1.0), None),
        ("rayleigh", arr(2.0, -0.5), None),
        ("weibull", arr(1.0, 0.0), arr(2.0, 2.0)),
        ("pareto", arr(2.0, 1.0, 0.5), None),
        ("qgev", arr(2.0, -1.0), arr(3.0, 3.0)),
        ("qgev", arr(0.5, 2.5), arr(0.5, 0.5)),
    ],
)
def test_fused_kernel_domain_errors_equal_oracle(name, v, g):
    oracle = ORACLES[name]
    fam = get_family(name)
    methods = [oracle.value, oracle.d_value_dv]
    if fam.n_shapes_per_alt:
        methods.append(oracle.d_value_dshape)
    for grad in (False, True):
        with pytest.raises(DomainViolation) as got:
            fam.value(v, g, grad=grad)
        for meth in methods:
            with pytest.raises(DomainViolation) as want:
                meth(v, g)
            assert str(got.value) == str(want.value)
