"""BFGS started from the unscaled identity: the oracle of the gradient-scaled
start of ``flexlogit.estimation._make_bfgs``.

This is the BFGS stage as it was before cold fits started at the gradient's
scale. ``identity_start()`` swaps it in for the package's, so every fit in
the block, cold or warm, starts from I (or from the caller's inverse
Hessian). A caller that passes I explicitly, as bootstrap replicates do,
must get this oracle's bits from the package's BFGS.
"""

from contextlib import contextmanager

import numpy as np

from flexlogit import estimation


def identity_bfgs(h0=None):
    H = h0

    def direction(x, gx):
        nonlocal H
        if H is None:
            H = np.eye(x.shape[0])
        d = -H @ gx
        if float(gx @ d) >= 0:  # safeguard: fall back to steepest descent
            H = np.eye(x.shape[0])
            d = -gx
        return d

    def update(s, y):
        nonlocal H
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            V = np.eye(s.shape[0]) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)

    return direction, update


@contextmanager
def identity_start():
    """Run every fit in the block with the identity-start BFGS."""
    scaled = estimation._make_bfgs
    estimation._make_bfgs = identity_bfgs
    try:
        yield
    finally:
        estimation._make_bfgs = scaled
