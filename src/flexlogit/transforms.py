"""Transformation families for choice probabilities.

Each family supplies a scalar transformation ``S(V, gamma)`` applied to the
systematic index ``V`` of every (observation, alternative) row before the
softmax normalization

    P_ij = exp(tau_j + S(V_ij, gamma_j)) / sum_l exp(tau_l + S(V_il, gamma_l)).

With ``S(V) = V`` this is the multinomial logit; the other families bend the
index so the resulting choice probability curve can be asymmetric around its
inflection point, fatter- or thinner-tailed, or restricted to a sub-domain of
the index.

Families are registered under short string names (``mnl``, ``cloglog``,
``scobit``, ``uneven_logit``, ``asym_logit``, plus the restricted-domain
families ``exponential``, ``rayleigh``, ``weibull``, ``pareto``, ``qgev``,
``czado``) and expose:

``value(v, gamma, n_alts, grad=False)``
    S itself, evaluated elementwise with overflow-safe branches and one
    domain check. With ``grad=True`` it returns ``(S, dS/dV, dS/dgamma)``
    from the same intermediates; dS/dgamma is per shape parameter on the
    natural scale, or ``None`` for families without shapes. The analytic
    likelihood gradient uses this triple. An inadmissible V raises
    ``DomainViolation``, whose ``constraint`` carries the violated
    constraint, e.g. ``"V > 1"``.
``check_shapes(gamma)``
    ``None`` when the natural shape values are admissible, else a
    description of the violated constraint.
``to_natural(u)`` / ``from_natural(gamma)``
    Map an unconstrained per-alternative shape vector to the family's
    admissible set and back; optimizers work on the unconstrained side.
``chain_natural(t, gamma)``
    Chain dLL/dgamma through ``to_natural`` to dLL/du.

Shape conventions: families with ``n_shapes_per_alt == 1`` take one gamma per
alternative; ``czado`` takes two (one per sign of V). ``asym_logit`` couples
its per-alternative shapes through a softmax so they sum to one.
``exponential`` and ``rayleigh`` are ``weibull`` with the shape fixed at 1
and 2.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation, InvalidParams

__all__ = [
    "TransformFamily",
    "FAMILIES",
    "get_family",
    "softplus",
    "log_expm1",
    "expit",
]

# Beyond this, exp() overflows double precision.
_EXP_OVERFLOW = 709.0
# exp(-x) is negligible relative to x beyond this; switch to asymptotes.
_ASYMPTOTE = 34.0


def softplus(x):
    """log(1 + e^x), overflow-safe for any float x.

    Evaluated as max(x, 0) + log1p(e^-|x|), the identity that
    ``np.logaddexp(0, x)`` computes one element at a time; numpy runs this
    form through its vectorised exp and log1p. The two agree to within 3 ulp
    over [-800, 800] and exactly at +-inf, +-0 and subnormal x.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def expit(x):
    """The logistic sigmoid 1 / (1 + e^-x).

    The same expression as ``scipy.special.expit``: e^-x overflows to inf
    for x below about -709.8, and the result is then exactly 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_expm1(x):
    """log(e^x - 1) for x > 0 without overflow.

    For x > 34 the result is x itself: e^-x is below half an ulp of x, so
    x + log1p(-e^-x) rounds to x. Below that expm1 is exact enough to take
    the log directly.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    # x == 0 -> -inf is the correct limit; rows past 34 are replaced below
    with np.errstate(divide="ignore", over="ignore"):
        np.log(np.expm1(x, out=out), out=out)
    big = x > _ASYMPTOTE
    if big.any():
        out[big] = x[big]
    return out


def _as_float_array(x):
    return np.asarray(x, dtype=float)


class TransformFamily:
    """Base class; subclasses implement the elementwise math.

    Shape handling defaults to positive shapes optimized on the log scale
    (gamma = e^u); families with another admissible set override
    ``check_shapes``, ``to_natural``, ``from_natural`` and ``chain_natural``.
    """

    name: str = ""
    n_shapes_per_alt: int = 0
    #: +1 if S is increasing in V, -1 if decreasing.
    monotone_sign: int = +1
    #: True if the shapes are identified only up to a common shift of their
    #: unconstrained values; the packing then fixes one alternative's at 0.
    shape_gauge: bool = False

    # -- evaluation -------------------------------------------------------

    def value(self, v, gamma=None, n_alts=None, grad=False):
        """S(V, gamma), or ``(S, dS/dV, dS/dgamma)`` when ``grad`` is true.

        dS/dgamma is ``None`` for families without shapes and carries a
        trailing axis of length two for two-shape families.
        """
        raise NotImplementedError

    # -- shape constraints ------------------------------------------------

    def check_shapes(self, gamma):
        """Return None if the natural shape values are admissible, else a
        description of the violated constraint."""
        if np.any(_as_float_array(gamma) <= 0):
            return "gamma > 0"
        return None

    # -- reparameterization -------------------------------------------------

    def to_natural(self, u):
        """Map unconstrained per-alternative values into the admissible set."""
        return np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma))

    def chain_natural(self, t, gamma):
        """dLL/du from dLL/dgamma ``t`` at ``gamma = to_natural(u)``.

        Both arguments are (n_alts, n_shapes) matrices; here d gamma/d u =
        gamma.
        """
        return t * gamma

    def _check_domain(self, v, ok_mask, constraint):
        if not np.all(ok_mask):
            bad = np.asarray(v)[~np.asarray(ok_mask)]
            raise DomainViolation(self.name, constraint, float(np.ravel(bad)[0]))


class MNL(TransformFamily):
    """Identity transform: plain multinomial logit."""

    name = "mnl"
    n_shapes_per_alt = 0

    def value(self, v, gamma=None, n_alts=None, grad=False):
        v = _as_float_array(v)
        if not grad:
            return v.copy()
        return v.copy(), np.ones_like(v), None


class CLogLog(TransformFamily):
    """S(V) = log(exp(e^V) - 1), the complementary log-log link.

    S is ``log_expm1(e^V)``, which is e^V itself for e^V > 34; for V < -34,
    S collapses to V. The only failure mode is e^V overflowing, i.e.
    V > ~709.
    """

    name = "cloglog"
    n_shapes_per_alt = 0

    def value(self, v, gamma=None, n_alts=None, grad=False):
        v = _as_float_array(v)
        self._check_domain(v, ~(v > _EXP_OVERFLOW), "V <= 709 (exp(V) must be finite)")
        y = np.exp(v)
        out = np.where(v >= -_ASYMPTOTE, log_expm1(y), v)
        if not grad:
            return out
        # dS/dV = y / (1 - e^-y); underflowed y means the limit slope 1.
        dv = np.ones_like(v)
        live = y != 0.0
        dv[live] = y[live] / (-np.expm1(-y[live]))
        return out, dv, None


class Scobit(TransformFamily):
    """S(V, gamma) = -log((1 + e^-V)^gamma - 1) with gamma > 0.

    Evaluated as -log(expm1(gamma * softplus(-V))); gamma = 1 collapses to the
    identity. Skewness: gamma < 1 stretches the lower tail, gamma > 1 the
    upper.
    """

    name = "scobit"
    n_shapes_per_alt = 1

    def value(self, v, gamma, n_alts=None, grad=False):
        v = _as_float_array(v)
        if v.ndim == 0:  # the row patches below write into arrays
            res = self.value(v.reshape(1), np.ravel(gamma), n_alts, grad)
            return tuple(r.reshape(()) for r in res) if grad else res.reshape(())
        g = _as_float_array(gamma)
        u = softplus(-v)
        a = g * u
        # Every row takes the main formula; the rows of an asymptotic branch
        # (usually none) are then overwritten, so no mask gathers the rest.
        tiny = a == 0.0
        any_tiny = tiny.any()
        lem = log_expm1(a)
        out = -lem
        if any_tiny:
            # a underflows when V is huge or gamma is tiny; there S ->
            # -log(g*u), and if u itself underflowed, u ~ e^-V so -log(u) = V.
            gt = np.broadcast_to(g, v.shape)[tiny]
            ut = u[tiny]
            with np.errstate(divide="ignore"):
                lu = np.where(ut > 0, np.log(np.where(ut > 0, ut, 1.0)), -v[tiny])
            out[tiny] = -np.log(gt) - lu
        if not grad:
            return out

        # log dS/dV = log g + log(e^u - 1) + (g-1) u - log(e^(gu) - 1);
        # for large gu, fold (g-1)u - gu = -u analytically to avoid
        # catastrophic cancellation between huge terms.
        tail = (g - 1.0) * u - lem
        big = a > _ASYMPTOTE
        if big.any():
            tail[big] = -u[big] - np.log1p(-np.exp(-a[big]))
        with np.errstate(invalid="ignore"):  # -inf + inf only on tiny rows
            dv = np.exp(np.log(g) + log_expm1(u) + tail)
        if any_tiny:
            # limit slope sigma(-V)/u, and 1 where u underflowed too
            sig = expit(-v[tiny])
            dv[tiny] = np.where(ut > 0, sig / np.where(ut > 0, ut, 1.0), 1.0)

        # dS/dgamma = -u / (1 - e^(-gu)), with limit -1/g as gu -> 0
        small = a < 1e-280
        with np.errstate(divide="ignore", invalid="ignore"):  # small rows only
            dg = -u / (-np.expm1(-a))
        if small.any():
            dg[small] = -1.0 / np.broadcast_to(g, v.shape)[small]
        return out, dv, dg


class UnevenLogit(TransformFamily):
    """S(V, gamma) = softplus(V) - softplus(-gamma V) with gamma > 0.

    Adds a second logistic knee whose sharpness differs between the two tails;
    gamma = 1 collapses to the identity.
    """

    name = "uneven_logit"
    n_shapes_per_alt = 1

    def value(self, v, gamma, n_alts=None, grad=False):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        mgv = -g * v
        out = softplus(v) - softplus(mgv)
        if not grad:
            return out
        e = expit(mgv)
        return out, expit(v) + g * e, v * e


class AsymLogit(TransformFamily):
    """Piecewise-linear transform with per-alternative simplex shapes.

    For alternative j with shape gamma_j in (0, 1), summing to one across the
    n_alts alternatives,

        S = log gamma_j - V log gamma_j                     for V >= 0
        S = log gamma_j - V log((1 - gamma_j)/(n_alts - 1)) for V <  0

    At the shared anchor gamma_j = 1/n_alts both slopes equal log(n_alts) and
    the model is a rescaled multinomial logit. Derivatives at V = 0 use the
    V >= 0 branch (a valid subgradient at the kink).

    The shape methods take one gamma per alternative, as a vector or as an
    (n_alts, 1) matrix.
    """

    name = "asym_logit"
    n_shapes_per_alt = 1
    # to_natural is a softmax, so from_natural (the log) inverts it up to a
    # common shift
    shape_gauge = True

    def value(self, v, gamma, n_alts=None, grad=False):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        # a reparameterized gamma can round to exactly 1; log1p then yields
        # the intended -inf saturation, no warning needed
        with np.errstate(divide="ignore"):
            lg = np.log(g)
            lneg = np.log1p(-g) - np.log(n_alts - 1)
        pos = v >= 0
        slope = np.where(pos, lg, lneg)
        out = lg - v * slope
        if not grad:
            return out
        return out, -slope, np.where(pos, (1.0 - v) / g, 1.0 / g + v / (1.0 - g))

    def check_shapes(self, gamma):
        g = _as_float_array(gamma)
        if np.any(g <= 0) or np.any(g >= 1):
            return "each gamma in (0, 1)"
        if abs(float(np.sum(g)) - 1.0) > 1e-8:
            return "sum of gammas = 1"
        return None

    def to_natural(self, u):
        u = _as_float_array(u)
        z = u - np.max(u)
        e = np.exp(z)
        return e / np.sum(e)

    def chain_natural(self, t, gamma):
        # softmax Jacobian: d gamma_j / d u_k = gamma_j (delta_jk - gamma_k)
        g = gamma[:, 0]
        t = t[:, 0]
        return (g * (t - float(t @ g)))[:, None]


class Weibull(TransformFamily):
    """S(V, gamma) = -gamma log V on V > 0 with gamma > 0.

    Subclasses fix the shape (``fixed_shape``) and take no shape parameter.
    """

    name = "weibull"
    n_shapes_per_alt = 1
    monotone_sign = -1
    fixed_shape: float | None = None

    def value(self, v, gamma=None, n_alts=None, grad=False):
        v = _as_float_array(v)
        if self.fixed_shape is not None:
            gamma = self.fixed_shape
        g = _as_float_array(gamma)
        self._check_domain(v, v > 0, "V > 0")
        lv = np.log(v)
        out = -g * lv
        if not grad:
            return out
        dg = None if self.fixed_shape is not None else -np.broadcast_to(lv, out.shape)
        return out, -g / v, dg


class Exponential(Weibull):
    """S(V) = -log V on V > 0; V acts as a cost, so S decreases in V."""

    name = "exponential"
    n_shapes_per_alt = 0
    fixed_shape = 1.0


class Rayleigh(Weibull):
    """S(V) = -2 log V on V > 0."""

    name = "rayleigh"
    n_shapes_per_alt = 0
    fixed_shape = 2.0


class Pareto(TransformFamily):
    """S(V) = log V - log(V - 1) on V > 1."""

    name = "pareto"
    n_shapes_per_alt = 0
    monotone_sign = -1

    def value(self, v, gamma=None, n_alts=None, grad=False):
        v = _as_float_array(v)
        self._check_domain(v, v > 1, "V > 1")
        vm1 = v - 1.0
        out = np.log(v) - np.log(vm1)
        if not grad:
            return out
        return out, 1.0 / v - 1.0 / vm1, None


class QGEV(TransformFamily):
    """S(V, gamma) = log(1 + (gamma - 1) V) / (1 - gamma), gamma != 1.

    Domain: 1 + (gamma - 1) V > 0. The unconstrained parameterization covers
    the gamma > 1 branch via gamma = 1 + e^u; the gamma < 1 branch is
    reachable by constructing natural parameters directly.
    """

    name = "qgev"
    n_shapes_per_alt = 1
    monotone_sign = -1

    def value(self, v, gamma, n_alts=None, grad=False):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        arg = (g - 1.0) * v
        self._check_domain(v, arg > -1.0, "1 + (gamma - 1) V > 0")
        log_arg = np.log1p(arg)
        one_m = 1.0 - g
        out = log_arg / one_m
        if not grad:
            return out
        opa = 1.0 + arg
        return out, -1.0 / opa, log_arg / one_m**2 + v / (one_m * opa)

    def check_shapes(self, gamma):
        if np.any(_as_float_array(gamma) == 1.0):
            return "gamma != 1"
        return None

    def to_natural(self, u):
        return 1.0 + np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma) - 1.0)

    def chain_natural(self, t, gamma):
        return t * (gamma - 1.0)


class Czado(TransformFamily):
    """Two-sided power transform with separate exponents per sign of V.

        S = ((1 + V)^g1 - 1) / g1   for V >= 0
        S = -((1 - V)^g2 - 1) / g2  for V <  0

    Both exponents positive; g1 = g2 = 1 gives the identity. The slope is 1
    from both sides at V = 0, so S is continuously differentiable there.
    """

    name = "czado"
    n_shapes_per_alt = 2

    def value(self, v, gamma, n_alts=None, grad=False):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        if g.ndim == 1 and g.shape == (2,):
            g = np.broadcast_to(g, v.shape + (2,))
        pos = v >= 0
        neg = ~pos
        g1, g2 = g[..., 0][pos], g[..., 1][neg]
        w1, w2 = np.log1p(v[pos]), np.log1p(-v[neg])
        out = np.empty_like(v)
        out[pos] = np.expm1(g1 * w1) / g1
        out[neg] = -np.expm1(g2 * w2) / g2
        if not grad:
            return out
        dv = np.empty_like(v)
        dv[pos] = np.exp((g1 - 1.0) * w1)
        dv[neg] = np.exp((g2 - 1.0) * w2)
        # the inactive branch's exponent never contributes
        dg = np.zeros(v.shape + (2,))
        e1, e2 = np.exp(g1 * w1), np.exp(g2 * w2)
        dg[pos, 0] = (w1 * e1 * g1 - (e1 - 1.0)) / g1**2
        dg[neg, 1] = -(w2 * e2 * g2 - (e2 - 1.0)) / g2**2
        return out, dv, dg


CORE_FAMILY_NAMES = ("mnl", "cloglog", "scobit", "uneven_logit", "asym_logit")
RESTRICTED_FAMILY_NAMES = ("exponential", "rayleigh", "weibull", "pareto", "qgev", "czado")

FAMILIES: dict[str, TransformFamily] = {
    f.name: f
    for f in (
        MNL(),
        CLogLog(),
        Scobit(),
        UnevenLogit(),
        AsymLogit(),
        Exponential(),
        Rayleigh(),
        Weibull(),
        Pareto(),
        QGEV(),
        Czado(),
    )
}


def get_family(name: str) -> TransformFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidParams(
            f"unknown transform family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
