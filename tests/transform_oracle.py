"""Reference three-method transform families, kept as the oracle for the
fused kernels in :mod:`flexlogit.transforms`.

These are the per-family classes as they stood before ``value(..., grad=True)``
replaced ``d_value_dv`` and ``d_value_dshape``: each derivative rebuilds its own
intermediates, and each asymptotic branch gathers its rows with a boolean
mask (``_log_expm1`` below is ``transforms.log_expm1`` in that form). Only the
tests import this module; the fused kernels must reproduce all three outputs
bit for bit and raise the same domain errors.
"""

from __future__ import annotations

import numpy as np

from flexlogit.errors import DomainViolation
from flexlogit.transforms import _ASYMPTOTE, _EXP_OVERFLOW, expit, softplus


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _log_expm1(x):
    """log(e^x - 1) for x > 0: x itself past 34, else log(expm1(x)), each
    branch on its gathered rows."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    small = x <= _ASYMPTOTE
    with np.errstate(divide="ignore"):
        out[small] = np.log(np.expm1(x[small]))
    return out


class TransformFamily:
    """Base class; subclasses implement the elementwise math."""

    name: str = ""
    n_shapes_per_alt: int = 0
    #: +1 if S is increasing in V, -1 if decreasing.
    monotone_sign: int = +1

    # -- evaluation -------------------------------------------------------

    def value(self, v, gamma=None, n_alts=None):
        raise NotImplementedError

    def d_value_dv(self, v, gamma=None, n_alts=None):
        raise NotImplementedError

    def d_value_dshape(self, v, gamma=None, n_alts=None):
        """dS/dgamma, shaped like gamma. Only for families with shapes."""
        raise NotImplementedError

    # -- domains ----------------------------------------------------------

    def domain(self, v, gamma=None):
        """Return None if all elements admissible, else a constraint string."""
        return None

    def check_shapes(self, gamma):
        """Return None if the natural shape values are admissible, else a
        description of the violated constraint."""
        return None

    # -- reparameterization -------------------------------------------------

    def to_natural(self, u):
        """Map unconstrained per-alternative values into the admissible set."""
        return _as_float_array(u).copy()

    def from_natural(self, gamma):
        return _as_float_array(gamma).copy()

    def _check_domain(self, v, ok_mask, constraint):
        if not np.all(ok_mask):
            bad = np.asarray(v)[~np.asarray(ok_mask)]
            raise DomainViolation(self.name, constraint, float(np.ravel(bad)[0]))


class MNL(TransformFamily):
    """Identity transform: plain multinomial logit."""

    name = "mnl"
    n_shapes_per_alt = 0

    def value(self, v, gamma=None, n_alts=None):
        return _as_float_array(v).copy()

    def d_value_dv(self, v, gamma=None, n_alts=None):
        return np.ones_like(_as_float_array(v))


class CLogLog(TransformFamily):
    """S(V) = log(exp(e^V) - 1), the complementary log-log link.

    Branches: for e^V > 34 the subtraction of 1 is below double resolution and
    S is e^V itself; for V < -34, S collapses to V; in between expm1 is exact.
    The only failure mode is e^V overflowing, i.e. V > ~709.
    """

    name = "cloglog"
    n_shapes_per_alt = 0

    def value(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self.domain(v, raise_=True)
        out = np.empty_like(v)
        lo = v < -_ASYMPTOTE
        out[lo] = v[lo]
        mid = ~lo
        y = np.exp(v[mid])
        hi = y > _ASYMPTOTE
        vals = np.empty_like(y)
        vals[hi] = y[hi]
        vals[~hi] = np.log(np.expm1(y[~hi]))
        out[mid] = vals
        return out

    def d_value_dv(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self.domain(v, raise_=True)
        y = np.exp(v)
        out = np.empty_like(v)
        # dS/dV = y / (1 - e^-y); underflowed y means the limit slope 1.
        zero = y == 0.0
        out[zero] = 1.0
        yz = y[~zero]
        out[~zero] = yz / (-np.expm1(-yz))
        return out

    def domain(self, v, gamma=None, raise_=False):
        v = _as_float_array(v)
        bad = v > _EXP_OVERFLOW
        if np.any(bad):
            if raise_:
                self._check_domain(v, ~bad, "V <= 709 (exp(V) must be finite)")
            return "V <= 709 (exp(V) must be finite)"
        return None


class Scobit(TransformFamily):
    """S(V, gamma) = -log((1 + e^-V)^gamma - 1) with gamma > 0.

    Evaluated as -log(expm1(gamma * softplus(-V))); gamma = 1 collapses to the
    identity. Skewness: gamma < 1 stretches the lower tail, gamma > 1 the
    upper.
    """

    name = "scobit"
    n_shapes_per_alt = 1

    def value(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        u = softplus(-v)
        a = g * u
        out = np.empty_like(v)
        tiny = a == 0.0
        # a underflows when V is huge or gamma is tiny; there S -> -log(g*u),
        # and if u itself underflowed, u ~ e^-V so -log(u) = V.
        if np.any(tiny):
            gt = np.broadcast_to(g, v.shape)[tiny]
            ut = u[tiny]
            vt = v[tiny]
            with np.errstate(divide="ignore"):
                lu = np.where(ut > 0, np.log(np.where(ut > 0, ut, 1.0)), -vt)
            out[tiny] = -np.log(gt) - lu
        rest = ~tiny
        out[rest] = -_log_expm1(a[rest])
        return out

    def d_value_dv(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = np.broadcast_to(_as_float_array(gamma), v.shape)
        u = softplus(-v)
        a = g * u
        out = np.empty_like(v)
        tiny = a == 0.0
        if np.any(tiny):
            # limit slope sigma(-V)/u, and 1 where u underflowed too
            ut = u[tiny]
            sig = expit(-v[tiny])
            out[tiny] = np.where(ut > 0, sig / np.where(ut > 0, ut, 1.0), 1.0)
        rest = ~tiny
        if np.any(rest):
            gr, ur, ar = g[rest], u[rest], a[rest]
            # log dS/dV = log g + log(e^u - 1) + (g-1) u - log(e^(gu) - 1);
            # for large gu, fold (g-1)u - gu = -u analytically to avoid
            # catastrophic cancellation between huge terms.
            log_num = np.log(gr) + _log_expm1(ur)
            big = ar > _ASYMPTOTE
            tail = np.empty_like(ar)
            tail[big] = -ur[big] - np.log1p(-np.exp(-ar[big]))
            tail[~big] = (gr[~big] - 1.0) * ur[~big] - _log_expm1(ar[~big])
            out[rest] = np.exp(log_num + tail)
        return out

    def d_value_dshape(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = np.broadcast_to(_as_float_array(gamma), v.shape)
        u = softplus(-v)
        a = g * u
        out = np.empty_like(v)
        tiny = a < 1e-280
        out[tiny] = -1.0 / g[tiny]
        rest = ~tiny
        # dS/dgamma = -u / (1 - e^(-gu))
        out[rest] = -u[rest] / (-np.expm1(-a[rest]))
        return out

    def check_shapes(self, gamma):
        if np.any(_as_float_array(gamma) <= 0):
            return "gamma > 0"
        return None

    def to_natural(self, u):
        return np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma))


class UnevenLogit(TransformFamily):
    """S(V, gamma) = softplus(V) - softplus(-gamma V) with gamma > 0.

    Adds a second logistic knee whose sharpness differs between the two tails;
    gamma = 1 collapses to the identity.
    """

    name = "uneven_logit"
    n_shapes_per_alt = 1

    def value(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        return softplus(v) - softplus(-g * v)

    def d_value_dv(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        return expit(v) + g * expit(-g * v)

    def d_value_dshape(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        return v * expit(-g * v)

    def check_shapes(self, gamma):
        if np.any(_as_float_array(gamma) <= 0):
            return "gamma > 0"
        return None

    def to_natural(self, u):
        return np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma))


class AsymLogit(TransformFamily):
    """Piecewise-linear transform with per-alternative simplex shapes.

    For alternative j with shape gamma_j in (0, 1), summing to one across the
    n_alts alternatives,

        S = log gamma_j - V log gamma_j                     for V >= 0
        S = log gamma_j - V log((1 - gamma_j)/(n_alts - 1)) for V <  0

    At the shared anchor gamma_j = 1/n_alts both slopes equal log(n_alts) and
    the model is a rescaled multinomial logit. Derivatives at V = 0 use the
    V >= 0 branch (a valid subgradient at the kink).
    """

    name = "asym_logit"
    n_shapes_per_alt = 1

    def value(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        # a reparameterized gamma can round to exactly 1; log1p then yields
        # the intended -inf saturation, no warning needed
        with np.errstate(divide="ignore"):
            lg = np.log(g)
            lneg = np.log1p(-g) - np.log(n_alts - 1)
        return lg - v * np.where(v >= 0, lg, lneg)

    def d_value_dv(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = np.broadcast_to(_as_float_array(gamma), v.shape)
        lg = np.log(g)
        lneg = np.log1p(-g) - np.log(n_alts - 1)
        return -np.where(v >= 0, lg, lneg)

    def d_value_dshape(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = np.broadcast_to(_as_float_array(gamma), v.shape)
        return np.where(v >= 0, (1.0 - v) / g, 1.0 / g + v / (1.0 - g))

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

    def from_natural(self, gamma):
        # gauge-free inverse; packing subtracts the reference entry
        return np.log(_as_float_array(gamma))


class Exponential(TransformFamily):
    """S(V) = -log V on V > 0; V acts as a cost, so S decreases in V."""

    name = "exponential"
    n_shapes_per_alt = 0
    monotone_sign = -1

    def value(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 0, "V > 0")
        return -np.log(v)

    def d_value_dv(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 0, "V > 0")
        return -1.0 / v

    def domain(self, v, gamma=None):
        if np.any(_as_float_array(v) <= 0):
            return "V > 0"
        return None


class Rayleigh(TransformFamily):
    """S(V) = -2 log V on V > 0."""

    name = "rayleigh"
    n_shapes_per_alt = 0
    monotone_sign = -1

    def value(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 0, "V > 0")
        return -2.0 * np.log(v)

    def d_value_dv(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 0, "V > 0")
        return -2.0 / v

    def domain(self, v, gamma=None):
        if np.any(_as_float_array(v) <= 0):
            return "V > 0"
        return None


class Weibull(TransformFamily):
    """S(V, gamma) = -gamma log V on V > 0 with gamma > 0."""

    name = "weibull"
    n_shapes_per_alt = 1
    monotone_sign = -1

    def value(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 0, "V > 0")
        return -_as_float_array(gamma) * np.log(v)

    def d_value_dv(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 0, "V > 0")
        return -_as_float_array(gamma) / v

    def d_value_dshape(self, v, gamma, n_alts=None):
        v, _ = np.broadcast_arrays(_as_float_array(v), _as_float_array(gamma))
        self._check_domain(v, v > 0, "V > 0")
        return -np.log(v)

    def domain(self, v, gamma=None):
        if np.any(_as_float_array(v) <= 0):
            return "V > 0"
        return None

    def check_shapes(self, gamma):
        if np.any(_as_float_array(gamma) <= 0):
            return "gamma > 0"
        return None

    def to_natural(self, u):
        return np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma))


class Pareto(TransformFamily):
    """S(V) = log V - log(V - 1) on V > 1."""

    name = "pareto"
    n_shapes_per_alt = 0
    monotone_sign = -1

    def value(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 1, "V > 1")
        return np.log(v) - np.log(v - 1.0)

    def d_value_dv(self, v, gamma=None, n_alts=None):
        v = _as_float_array(v)
        self._check_domain(v, v > 1, "V > 1")
        return 1.0 / v - 1.0 / (v - 1.0)

    def domain(self, v, gamma=None):
        if np.any(_as_float_array(v) <= 1):
            return "V > 1"
        return None


class QGEV(TransformFamily):
    """S(V, gamma) = log(1 + (gamma - 1) V) / (1 - gamma), gamma != 1.

    Domain: 1 + (gamma - 1) V > 0. The unconstrained parameterization covers
    the gamma > 1 branch via gamma = 1 + e^u; the gamma < 1 branch is
    reachable by constructing natural parameters directly.
    """

    name = "qgev"
    n_shapes_per_alt = 1
    monotone_sign = -1

    def value(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        arg = (g - 1.0) * v
        self._check_domain(v, arg > -1.0, "1 + (gamma - 1) V > 0")
        return np.log1p(arg) / (1.0 - g)

    def d_value_dv(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        arg = (g - 1.0) * v
        self._check_domain(v, arg > -1.0, "1 + (gamma - 1) V > 0")
        return -1.0 / (1.0 + arg)

    def d_value_dshape(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g = _as_float_array(gamma)
        arg = (g - 1.0) * v
        self._check_domain(v, arg > -1.0, "1 + (gamma - 1) V > 0")
        one_m = 1.0 - g
        return np.log1p(arg) / one_m**2 + v / (one_m * (1.0 + arg))

    def domain(self, v, gamma=None):
        arg = (_as_float_array(gamma) - 1.0) * _as_float_array(v)
        if np.any(arg <= -1.0):
            return "1 + (gamma - 1) V > 0"
        return None

    def check_shapes(self, gamma):
        if np.any(_as_float_array(gamma) == 1.0):
            return "gamma != 1"
        return None

    def to_natural(self, u):
        return 1.0 + np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma) - 1.0)


class Czado(TransformFamily):
    """Two-sided power transform with separate exponents per sign of V.

        S = ((1 + V)^g1 - 1) / g1   for V >= 0
        S = -((1 - V)^g2 - 1) / g2  for V <  0

    Both exponents positive; g1 = g2 = 1 gives the identity. The slope is 1
    from both sides at V = 0, so S is continuously differentiable there.
    """

    name = "czado"
    n_shapes_per_alt = 2

    def value(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g1, g2 = self._split(v, gamma)
        pos = v >= 0
        out = np.empty_like(v)
        out[pos] = np.expm1(g1[pos] * np.log1p(v[pos])) / g1[pos]
        out[~pos] = -np.expm1(g2[~pos] * np.log1p(-v[~pos])) / g2[~pos]
        return out

    def d_value_dv(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g1, g2 = self._split(v, gamma)
        pos = v >= 0
        out = np.empty_like(v)
        out[pos] = np.exp((g1[pos] - 1.0) * np.log1p(v[pos]))
        out[~pos] = np.exp((g2[~pos] - 1.0) * np.log1p(-v[~pos]))
        return out

    def d_value_dshape(self, v, gamma, n_alts=None):
        v = _as_float_array(v)
        g1, g2 = self._split(v, gamma)
        pos = v >= 0
        out = np.zeros(v.shape + (2,))
        w1 = np.log1p(v[pos])
        e1 = np.exp(g1[pos] * w1)
        out[pos, 0] = (w1 * e1 * g1[pos] - (e1 - 1.0)) / g1[pos] ** 2
        w2 = np.log1p(-v[~pos])
        e2 = np.exp(g2[~pos] * w2)
        out[~pos, 1] = -(w2 * e2 * g2[~pos] - (e2 - 1.0)) / g2[~pos] ** 2
        return out

    @staticmethod
    def _split(v, gamma):
        g = _as_float_array(gamma)
        if g.ndim == 1 and g.shape == (2,):
            g = np.broadcast_to(g, v.shape + (2,))
        return g[..., 0], g[..., 1]

    def check_shapes(self, gamma):
        if np.any(_as_float_array(gamma) <= 0):
            return "gamma > 0"
        return None

    def to_natural(self, u):
        return np.exp(_as_float_array(u))

    def from_natural(self, gamma):
        return np.log(_as_float_array(gamma))


ORACLES: dict[str, TransformFamily] = {
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
