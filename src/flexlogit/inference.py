"""Likelihood-ratio tests and bootstrap confidence intervals.

The LR test compares two fitted models where the restricted one is nested in
the full one (the caller asserts nesting by supplying the degrees of
freedom). The bootstrap resamples observations with replacement, by default
stratified on the chosen alternative so every replicate preserves the
observed per-alternative choice counts, and refits the model on each
replicate warm-started from the full-sample estimate. The data is compiled
once: each replicate and each leave-one-out jackknife sample is a row gather
(``Design.take``) of that one design, so every refit keeps the full
alternative set and the packed layout of the full-sample fit, which the run
returns as ``BootstrapRun.full``. Intervals come from the bias-corrected and
accelerated (BCa) construction: the bias correction z0 is read off the share
of replicates below the point estimate (ties count half) and the acceleration
is the standard jackknife skewness ratio.

Each jackknife refit's BFGS stage starts from the full-sample curvature,
(-H)^-1 with H the finite-difference Hessian at the estimate, in place of the
identity: an n-1 row sample has almost the full sample's curvature, so the
refits take a fraction of the evaluations, and they stop within a few
tol_grad of where identity-start refits stop. Bootstrap replicates keep the
identity start. A replicate can stop on a flat ridge of the likelihood, where
two starts reach the same log-likelihood at points far apart, and those
points enter the interval quantiles directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import ChoiceDataset
from .errors import (
    DegenerateDistribution,
    EstimationError,
    NegativeStatBeyondSlack,
    TooManyFailures,
)
from .estimation import EstimationResult, FitOptions, _WarmStart, fd_hessian, fit
from .likelihood import build_design

__all__ = [
    "LRTestResult",
    "lr_test",
    "BootstrapRun",
    "bootstrap",
    "bca_interval",
]

NEGATIVE_STAT_SLACK = 1e-6
MAX_FAILURE_FRACTION = 0.10
_NORMAL = NormalDist()


@dataclass(frozen=True)
class LRTestResult:
    stat: float
    df: int
    p_value: float


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square distribution via the regularized
    incomplete gamma function.

    scipy is imported here, not at module level, so that the CLI's other
    commands start without it.
    """
    if stat <= 0:
        return 1.0
    from scipy.special import gammaincc

    return float(gammaincc(df / 2.0, stat / 2.0))


def lr_test(
    full: EstimationResult | float,
    restricted: EstimationResult | float,
    df: int,
) -> LRTestResult:
    """Likelihood-ratio test of a nested restriction.

    Accepts fitted results or raw log-likelihood values. A slightly negative
    statistic (within 1e-6, from optimizer slack) is clamped to zero; a more
    negative one means the "restricted" model out-fit the full one and the
    models are not nested as claimed.
    """
    ll_full = full.ll if isinstance(full, EstimationResult) else float(full)
    ll_restr = restricted.ll if isinstance(restricted, EstimationResult) else float(restricted)
    if df < 1:
        raise ValueError("df must be a positive integer")
    stat = 2.0 * (ll_full - ll_restr)
    if stat < -NEGATIVE_STAT_SLACK:
        raise NegativeStatBeyondSlack(
            f"LR statistic {stat:.3e} is negative beyond slack; "
            "the models are not nested or the full model under-converged"
        )
    stat = max(stat, 0.0)
    return LRTestResult(stat=stat, df=int(df), p_value=chi2_sf(stat, df))


@dataclass
class BootstrapRun:
    """Replicate and jackknife estimates for interval construction.

    ``replicate_estimates`` is (B, dim); ``jackknife_estimates`` is
    (n_obs, dim) leave-one-out estimates. ``failures`` counts replicates whose
    refit did not converge (their best-found points are still recorded).
    ``full`` is the full-sample fit the refits start from.
    """

    replicate_estimates: np.ndarray
    jackknife_estimates: np.ndarray
    seed: int
    stratified: bool
    failures: int = 0
    full: EstimationResult | None = None

    @property
    def n_replicates(self) -> int:
        return int(self.replicate_estimates.shape[0])


def _resample_positions(design, rng, stratified: bool) -> np.ndarray:
    """Observation positions of one draw; a stratified draw keeps each stratum's size."""
    n = design.weights_obs.shape[0]
    if not stratified:
        return rng.choice(n, size=n, replace=True)
    chosen = design.chosen_alt_by_obs()
    picks = []
    for a in design.alternatives:
        stratum = np.flatnonzero(chosen == a)
        if stratum.shape[0]:
            picks.append(rng.choice(stratum, size=stratum.shape[0], replace=True))
    return np.concatenate(picks)


def bootstrap(
    data: ChoiceDataset,
    spec,
    B: int = 1000,
    seed: int = 0,
    stratified: bool = True,
    options: FitOptions | None = None,
    threads: int = 1,
) -> BootstrapRun:
    """Nonparametric bootstrap of the packed parameter vector.

    Replicate b draws its own random stream from (seed, b), so results are
    identical however the replicates are scheduled. Each replicate and
    jackknife refit is warm-started from the full-sample estimate, falling
    back to the default init if that fails. The jackknife refits also start
    BFGS from the inverse of the full-sample -H (one finite-difference
    Hessian, 2 dim score evaluations), or from the identity when -H is not
    positive definite; replicates, whose samples differ more and may stop on
    flat ridges, and the cold fallback start from the identity. Raises
    ``TooManyFailures`` when more than 10% of replicates fail to converge.
    """
    from .parallel import parallel_map

    if B < 1:
        raise ValueError("B must be at least 1")
    if seed < 0:
        raise ValueError(f"bootstrap seed must be >= 0, got {seed}")
    opts = options or FitOptions()
    design = build_design(data, spec)
    full = fit(design, spec, options=opts)
    x_hat = full.packed

    def one_replicate(b: int) -> tuple[np.ndarray, bool]:
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        return _refit(design.take(_resample_positions(design, rng, stratified)), x_hat, opts)

    replicate = parallel_map(one_replicate, range(B), threads)
    estimates = np.vstack([r[0] for r in replicate])
    failures = sum(0 if r[1] else 1 for r in replicate)
    if failures > MAX_FAILURE_FRACTION * B:
        raise TooManyFailures(
            f"{failures} of {B} bootstrap replicates failed to converge"
        )

    n = design.weights_obs.shape[0]
    h0 = _curvature_seed(design, full, opts)

    def one_jackknife(i: int) -> np.ndarray:
        sample = design.take(np.delete(np.arange(n), i))
        return _refit(sample, x_hat, opts, h0)[0]

    jack = np.vstack(parallel_map(one_jackknife, range(n), threads))

    return BootstrapRun(
        replicate_estimates=estimates,
        jackknife_estimates=jack,
        seed=seed,
        stratified=stratified,
        failures=failures,
        full=full,
    )


def _curvature_seed(design, full, opts) -> np.ndarray | None:
    """(-H)^-1 at the full-sample estimate, or None when the finite-difference
    -H is not positive definite."""
    H = fd_hessian(design, design.spec, full.params, opts.use_weights)
    try:
        L = np.linalg.cholesky(-H)
    except np.linalg.LinAlgError:
        return None
    L_inv = np.linalg.inv(L)
    return L_inv.T @ L_inv


def _refit(sample, x_hat, opts, h0=None) -> tuple[np.ndarray, bool]:
    """Warm refit from ``x_hat``, its BFGS stage started from the inverse
    Hessian ``h0`` (the identity when None); a refit that fails or does not
    converge is redone cold from the default init."""
    start = x_hat if h0 is None else _WarmStart(x_hat, h0)
    try:
        res = fit(sample, sample.spec, init=start, options=opts)
    except EstimationError:
        res = None
    if res is None or not res.converged:
        try:
            res = fit(sample, sample.spec, options=opts)
        except EstimationError:
            return x_hat.copy(), False
    return res.packed, res.converged


def bca_interval(
    run: BootstrapRun,
    point: np.ndarray,
    level: float = 0.95,
) -> np.ndarray:
    """Per-parameter BCa interval endpoints, shape (dim, 2).

    Degenerate replicate distributions (all values equal) yield the point
    interval for that parameter. The bias-correction proportion is clamped to
    [1/(B+1), B/(B+1)] so the normal quantile stays finite when every
    replicate falls on one side of the point estimate. Where the
    acceleration puts a level past the pole of the BCa map (1 - a(z0 + z) <=
    0), the level is the map's limit: 1 for z0 + z > 0, 0 for z0 + z < 0.
    ``level`` must lie strictly between 0 and 1.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"interval level must be in (0, 1), got {level!r}")
    reps = np.asarray(run.replicate_estimates, dtype=float)
    jack = np.asarray(run.jackknife_estimates, dtype=float)
    point = np.asarray(point, dtype=float).ravel()
    B, dim = reps.shape
    if point.shape[0] != dim:
        raise ValueError("point estimate length does not match replicates")
    alpha = (1.0 - level) / 2.0
    z_lo, z_hi = _NORMAL.inv_cdf(alpha), _NORMAL.inv_cdf(1.0 - alpha)

    out = np.empty((dim, 2))
    for m in range(dim):
        r = reps[:, m]
        if np.all(r == r[0]):
            if r[0] == point[m]:
                out[m] = (point[m], point[m])
                continue
            raise DegenerateDistribution(
                f"all replicates of parameter {m} equal {r[0]!r} but the point "
                f"estimate is {point[m]!r}"
            )
        below = np.sum(r < point[m]) + 0.5 * np.sum(r == point[m])
        prop = np.clip(below / B, 1.0 / (B + 1), B / (B + 1.0))
        z0 = _NORMAL.inv_cdf(float(prop))

        jm = jack[:, m]
        d = np.mean(jm) - jm
        denom = np.sum(d**2) ** 1.5
        a = float(np.sum(d**3) / (6.0 * denom)) if denom > 0 else 0.0

        def adj(z):
            w = z0 + z
            den = 1.0 - a * w
            if den <= 0.0:
                # past the pole of the BCa map: take its limit, the far tail
                return 1.0 if w > 0 else 0.0
            return _NORMAL.cdf(z0 + w / den)

        out[m, 0] = np.quantile(r, adj(z_lo))
        out[m, 1] = np.quantile(r, adj(z_hi))
    return out

