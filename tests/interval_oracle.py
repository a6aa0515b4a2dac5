"""Percentile bootstrap intervals: the reference ``bca_interval`` must reduce
to when the bias correction and the acceleration both vanish, and bracket in
the direction of the bias otherwise."""

import numpy as np


def percentile_interval(run, level=0.95):
    """Simple percentile endpoints of ``run.replicate_estimates``, shape (dim, 2)."""
    reps = np.asarray(run.replicate_estimates, dtype=float)
    alpha = (1.0 - level) / 2.0
    return np.column_stack(
        [np.quantile(reps, alpha, axis=0), np.quantile(reps, 1.0 - alpha, axis=0)]
    )
