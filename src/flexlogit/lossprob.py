"""Numerical bridges from loss functions to choice probability curves.

Two independent constructions recover a binary probability curve p(V) from a
loss, and both are used to cross-check the closed-form transforms:

Composite construction. Given partial losses L1(V) (loss when outcome 1 is
realized) and L2(V) (loss when outcome 2 is realized), the probability that
minimizes expected loss pointwise satisfies

    p(V) = L2'(V) / (L2'(V) - L1'(V)).

Calibration construction. A proper-loss derivative dL2/dp and a boundary
value p(0) = p0 determine the curve through the ordinary differential
equation

    dp/dV = p / (dL2/dp)(p),

integrated outward from V = 0 in both directions. Losses whose derivative is
discontinuous at p0 are handled by integrating each side with its own branch
of the derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import expit

from .errors import DegenerateDenominator, IntegrationFailure

__all__ = [
    "PartialLossPair",
    "prob_from_composite",
    "prob_from_cpe",
    "log_loss_pair",
    "uneven_log_loss_pair",
    "binary_nll_derivative",
    "asym_nll_derivative",
]

ODE_TOL = 1e-10


@dataclass(frozen=True)
class PartialLossPair:
    """Derivatives of the two outcome-conditional losses, as functions of V."""

    d_loss1: Callable[[np.ndarray], np.ndarray]
    d_loss2: Callable[[np.ndarray], np.ndarray]


def prob_from_composite(pair: PartialLossPair, v) -> np.ndarray:
    """p(V) = L2'(V) / (L2'(V) - L1'(V)) evaluated elementwise."""
    v = np.asarray(v, dtype=float)
    l1 = np.asarray(pair.d_loss1(v), dtype=float)
    l2 = np.asarray(pair.d_loss2(v), dtype=float)
    den = l2 - l1
    if np.any(den == 0) or not np.all(np.isfinite(den)):
        raise DegenerateDenominator(
            "L2' - L1' vanished or is non-finite on the requested grid"
        )
    return l2 / den


def prob_from_cpe(
    d_loss2_dp: Callable[[float], float],
    p0: float,
    v_grid,
    d_loss2_dp_neg: Callable[[float], float] | None = None,
) -> np.ndarray:
    """Integrate dp/dV = p / (dL2/dp) outward from V = 0, p(0) = p0.

    ``v_grid`` must contain 0 (the anchor). When ``d_loss2_dp_neg`` is given
    it replaces the derivative on the V < 0 side, which is how losses with a
    kink at p0 are integrated branch by branch.
    """
    grid = np.asarray(v_grid, dtype=float)
    if not np.any(grid == 0.0):
        raise ValueError("v_grid must contain the anchor point 0")
    if not (0.0 < p0 < 1.0):
        raise ValueError("p0 must lie strictly inside (0, 1)")
    out = np.empty_like(grid)
    out[grid == 0.0] = p0

    def run(side_grid, deriv):
        if side_grid.size == 0:
            return np.empty(0)
        span = float(side_grid[np.argmax(np.abs(side_grid))])

        def rhs(_v, p):
            return p / deriv(float(p[0]))

        sol = solve_ivp(
            rhs,
            (0.0, span),
            [p0],
            t_eval=side_grid,
            rtol=ODE_TOL,
            atol=ODE_TOL * 1e-2,
            method="RK45",
        )
        if not sol.success:
            raise IntegrationFailure(sol.message)
        return sol.y[0]

    pos = grid > 0
    neg = grid < 0
    pos_sorted = np.sort(grid[pos])
    neg_sorted = np.sort(grid[neg])[::-1]  # walk away from zero
    out_pos = run(pos_sorted, d_loss2_dp)
    out_neg = run(neg_sorted, d_loss2_dp_neg or d_loss2_dp)
    out[pos] = out_pos[np.searchsorted(pos_sorted, grid[pos])]
    # neg_sorted is descending, so its negation is ascending
    out[neg] = out_neg[np.searchsorted(-neg_sorted, -grid[neg])]
    return out


# -- ready-made losses ---------------------------------------------------------


def log_loss_pair() -> PartialLossPair:
    """Plain log-loss: L1 = log(1 + e^-V), L2 = log(1 + e^V)."""
    return PartialLossPair(
        d_loss1=lambda v: -expit(-np.asarray(v, dtype=float)),
        d_loss2=lambda v: expit(np.asarray(v, dtype=float)),
    )


def uneven_log_loss_pair(gamma: float) -> PartialLossPair:
    """Log-loss with the outcome-2 branch compressed by gamma > 0.

    L1 = log(1 + e^-V); L2 = (1/gamma) log(1 + e^(gamma V)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return PartialLossPair(
        d_loss1=lambda v: -expit(-np.asarray(v, dtype=float)),
        d_loss2=lambda v: expit(gamma * np.asarray(v, dtype=float)),
    )


def binary_nll_derivative() -> Callable[[float], float]:
    """dL2/dp of the plain binary negative log-likelihood, L2 = -log(1-p)."""
    return lambda p: 1.0 / (1.0 - p)


def asym_nll_derivative(gamma: float, branch: str) -> Callable[[float], float]:
    """dL2/dp of the negative log-likelihood rescaled separately per side.

    The loss is -log(1-p) divided by -log(gamma) for p >= gamma and by
    -log(1-gamma) for p < gamma, which anchors the recovered curve at
    p(0) = gamma with a kink there; ``branch`` picks the side.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if branch == "upper":
        scale = -np.log(gamma)
    elif branch == "lower":
        scale = -np.log(1.0 - gamma)
    else:
        raise ValueError("branch must be 'upper' or 'lower'")
    return lambda p: 1.0 / (scale * (1.0 - p))
