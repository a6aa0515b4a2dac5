"""Maximum likelihood estimation via one ascent loop with backtracking.

``fit`` maximizes the (optionally weighted) log-likelihood over the packed
parameter vector. One loop takes two kinds of step:

1. BFGS steps with an inverse-Hessian approximation, until the score
   converges, two accepted steps stall or the line search fails;
2. then Newton steps on a finite-difference Hessian, eigenvalue-shifted so
   the direction is always an ascent direction, with the stall count reset.

A cold BFGS phase starts at the gradient's scale rather than from the plain
identity: its first trial step has unit length, and the identity is scaled
by s'y / y'y before the first update. The score is a sum over observations,
so at large n the plain identity's first steps overshoot by orders of
magnitude and the line search rejects a dozen trials per step. Refits that
pass their own inverse Hessian (the bootstrap's ``_WarmStart``) get it
unscaled.

Both phases share one backtracking line search enforcing the Armijo
sufficient-increase condition, so the sequence of accepted log-likelihood
values is non-decreasing. Convergence means the sup-norm of the score drops
below ``tol_grad``. The Newton phase ends the fit when it can no longer
improve the objective: ``"stalled"`` (relative change below ``tol_ll`` on two
consecutive accepted steps) or ``"line_search_failed"`` (no step length gives
sufficient increase, or a difference step of its Hessian leaves the
family's domain). Both phases count their accepted steps against one budget
of ``max_iter``, so a fit makes at most ``max_iter`` iterations; a fit that
uses it up ends ``"max_iters"``, in whichever phase it is.

``fit`` computes no Hessian at the optimum. ``fd_hessian(data, spec,
res.params, use_weights)`` gives one on request: a central finite difference
of the analytic score. No analytic second derivatives exist anywhere in the
package.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .data import ChoiceDataset, observed_shares
from .errors import (
    DegenerateSharesWarning,
    DomainViolation,
    InadmissibleOptimum,
    InvalidParams,
    NonFiniteIndex,
    NonFiniteObjectiveAtInit,
    SpecDataMismatch,
)
from .likelihood import (
    Design,
    ModelSpec,
    NaturalParams,
    Packing,
    build_design,
    gradient_with_design,
    ll_by_alternative_with_design,
    ll_with_design,
    validate_params,
)

__all__ = ["FitOptions", "EstimationResult", "fit", "default_init", "fd_hessian"]

ARMIJO_C1 = 1e-4
BACKTRACK_SHRINK = 0.5
MAX_HALVINGS = 50
HESSIAN_STEP = 1e-5


@dataclass(frozen=True)
class FitOptions:
    """Optimizer settings; defaults follow the package-wide conventions."""

    tol_grad: float = 1e-5
    tol_ll: float = 1e-9
    max_iter: int = 500
    multistart: int = 0
    multistart_scale: float = 0.5
    seed: int = 0
    use_weights: bool = False

    def __post_init__(self):
        def check(name, kind, ok, rule):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                raise ValueError(f"fit option {name} must be {rule}, got {value!r}")

        check("tol_grad", Real, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
        check("tol_ll", Real, lambda v: v >= 0, ">= 0")
        check("max_iter", Integral, lambda v: v >= 0, "an integer >= 0")
        check("multistart", Integral, lambda v: v >= 0, "an integer >= 0")
        check("multistart_scale", Real, lambda v: v >= 0, ">= 0")
        check("seed", Integral, lambda v: v >= 0, "an integer >= 0")
        if not isinstance(self.use_weights, bool):
            raise ValueError(f"fit option use_weights must be true or false, "
                             f"got {self.use_weights!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "FitOptions":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown fit options: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "FitOptions":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class EstimationResult:
    """Everything a downstream consumer needs about one fitted model."""

    spec: ModelSpec
    params: NaturalParams
    packed: np.ndarray
    param_names: list[str]
    ll: float
    ll_by_alt: dict[int, float]
    score: np.ndarray
    grad_norm_inf: float
    status: str  # converged | stalled | line_search_failed | max_iters
    iterations: int  # accepted steps of both phases, at most max_iter
    optimizer_used: str  # "bfgs", or "bfgs+newton" once the Newton phase began
    ll_path: list[float] = field(default_factory=list)
    n_floored: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class _WarmStart:
    """A packed start point together with the inverse Hessian the BFGS phase
    starts from in place of the identity; ``fit`` accepts it as ``init``."""

    packed: np.ndarray
    inv_hessian: np.ndarray


def _check_spec(data: ChoiceDataset | Design, spec: ModelSpec) -> None:
    if isinstance(data, Design) and data.spec != spec:
        raise SpecDataMismatch("the design was compiled against another spec")


def _design(data: ChoiceDataset | Design, spec: ModelSpec) -> Design:
    _check_spec(data, spec)
    return data if isinstance(data, Design) else build_design(data, spec)


def default_init(data: ChoiceDataset | Design, spec: ModelSpec) -> np.ndarray:
    """Packed starting point: beta = 0, share-matched intercepts, flat shapes.

    ``data`` may be a dataset or a design compiled from one against ``spec``;
    a design compiled against another spec raises ``SpecDataMismatch``.

    With S(V=0) constant across alternatives, intercepts
    tau_j = log(share_j / share_ref) reproduce the observed chosen shares
    exactly, which is the closed-form MLE of the intercept-only model. If any
    alternative is never chosen the log-ratio is undefined; the init falls
    back to all-zero intercepts with a warning.
    """
    _check_spec(data, spec)
    pk = Packing(spec, data.alternatives)
    vec = np.zeros(pk.dim)
    shares = observed_shares(data)
    if any(s == 0.0 for s in shares.values()):
        never = sorted(a for a, s in shares.items() if s == 0.0)
        warnings.warn(
            f"alternatives {never} are never chosen; intercept init falls back to 0",
            DegenerateSharesWarning,
            stacklevel=2,
        )
        return vec
    ref_share = shares[spec.ref_alt]
    vec[pk.n_beta : pk.n_beta + pk.n_tau] = [
        np.log(shares[a] / ref_share) for a in pk.free_taus
    ]
    return vec


def _objective(design: Design, opts):
    # Exploratory line-search points may overflow shapes or violate a
    # restricted domain; both simply mean "reject this point".
    def f(x):
        with np.errstate(all="ignore"):
            try:
                ll, _ = ll_with_design(design, x, opts.use_weights)
            except (DomainViolation, NonFiniteIndex):
                return np.inf
        return -ll if np.isfinite(ll) else np.inf

    def g(x):
        with np.errstate(all="ignore"):
            return -gradient_with_design(design, x, opts.use_weights)

    return f, g


def _backtrack(f, x, fx, gx, d):
    """Armijo backtracking; returns (x_new, f_new) or None."""
    slope = float(gx @ d)
    if slope >= 0:
        return None
    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        x_new = x + alpha * d
        f_new = f(x_new)
        if np.isfinite(f_new) and f_new <= fx + ARMIJO_C1 * alpha * slope:
            return x_new, f_new
        alpha *= BACKTRACK_SHRINK
    return None


def _make_bfgs(h0=None):
    """BFGS over its own inverse Hessian; returns (direction, update).

    A caller's inverse Hessian ``h0`` is used as given. Without one the phase
    starts from the identity at the gradient's scale: the first direction is
    -g / max(1, |g|_2), a unit-length first trial, and just before the first
    update H becomes (s'y / y'y) I (Shanno & Phua 1978; Nocedal & Wright,
    Numerical Optimization, eq. 6.20). The score is a sum over rows, so an
    unscaled identity makes the line search halve its first steps many times
    over at large n. A reset goes back to the unscaled identity."""
    H = h0

    def direction(x, gx):
        nonlocal H
        if H is None:
            return -gx / max(1.0, float(np.linalg.norm(gx)))
        d = -H @ gx
        if float(gx @ d) >= 0:  # safeguard: fall back to steepest descent
            H = np.eye(x.shape[0])
            d = -gx
        return d

    def update(s, y):
        nonlocal H
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            if H is None:
                H = (sy / float(y @ y)) * np.eye(s.shape[0])
            rho = 1.0 / sy
            V = np.eye(s.shape[0]) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)

    return direction, update


def _make_newton_direction(g):
    def direction(x, gx):
        H = _fd_hessian_of(g, x)
        try:
            w, Q = np.linalg.eigh(H)
        except np.linalg.LinAlgError:
            return -gx
        floor = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        w = np.maximum(w, floor)
        return -(Q @ ((Q.T @ gx) / w))

    return direction


def _fd_hessian_of(g, x, step=HESSIAN_STEP):
    """Central finite differences of a gradient function, symmetrized."""
    n = x.shape[0]
    H = np.empty((n, n))
    for m in range(n):
        h = step * max(1.0, abs(float(x[m])))
        e = np.zeros(n)
        e[m] = h
        H[:, m] = (g(x + e) - g(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def fd_hessian(design_or_data, spec, params, use_weights=False) -> np.ndarray:
    """Finite-difference Hessian of the log-likelihood at ``params``; as in
    ``fit``, a design compiled against another spec raises ``SpecDataMismatch``."""
    design = _design(design_or_data, spec)

    def grad_ll(x):
        return gradient_with_design(design, x, use_weights)

    return _fd_hessian_of(grad_ll, design.packing.pack(params))


def _ascend(f, g, x0, opts, h0=None):
    """The ascent from ``x0``; returns (x, fx, gx, iterations, status,
    optimizer_used, ll_path)."""
    fx = f(x0)
    if not np.isfinite(fx):
        raise NonFiniteObjectiveAtInit(
            "log-likelihood is not finite at the starting point"
        )
    x, gx, path = x0.copy(), g(x0), [-fx]
    direction, update = _make_bfgs(h0)
    phase, it, stalls = "bfgs", 0, 0
    while True:
        if np.max(np.abs(gx)) < opts.tol_grad:
            return x, fx, gx, it, "converged", phase, path
        if it == opts.max_iter:
            return x, fx, gx, it, "max_iters", phase, path
        try:
            step = _backtrack(f, x, fx, gx, direction(x, gx))
        except (DomainViolation, NonFiniteIndex):  # a Newton difference step left
            step = None  # the domain; f itself maps such points to inf
        if step is None:
            status = "line_search_failed"
        else:
            x_new, f_new = step
            g_new = g(x_new)
            if update is not None:
                update(x_new - x, g_new - gx)
            rel = abs(f_new - fx) / max(1.0, abs(f_new))
            x, fx, gx = x_new, f_new, g_new
            path.append(-fx)
            it += 1
            stalls = stalls + 1 if rel < opts.tol_ll else 0
            if stalls < 2 or np.max(np.abs(gx)) < opts.tol_grad:
                continue
            status = "stalled"
        if phase != "bfgs":
            return x, fx, gx, it, status, phase, path
        direction, update = _make_newton_direction(g), None
        phase, stalls = "bfgs+newton", 0


def fit(
    data: ChoiceDataset | Design,
    spec: ModelSpec,
    init: np.ndarray | NaturalParams | None = None,
    options: FitOptions | None = None,
) -> EstimationResult:
    """Maximize the log-likelihood; returns the best point found.

    ``init`` may be a packed vector or ``NaturalParams``; when omitted the
    share-matched default is used. With ``multistart=k`` the ascent also runs
    from k seeded perturbations of the init and the best final
    log-likelihood wins. ``data`` may be a dataset or a design compiled
    from one against ``spec``; a design is used as is, and a design compiled
    against another spec raises ``SpecDataMismatch``. A best point outside
    the family's admissible set raises ``InadmissibleOptimum``.
    """
    opts = options or FitOptions()
    design = _design(data, spec)
    pk = design.packing
    h0 = None
    if isinstance(init, _WarmStart):
        init, h0 = init.packed, init.inv_hessian
    if init is None:
        x0 = default_init(design, spec)
    elif isinstance(init, NaturalParams):
        validate_params(spec, init, design.alternatives)
        x0 = pk.pack(init)
    else:
        x0 = np.asarray(init, dtype=float).ravel()
        if x0.shape[0] != pk.dim:
            raise ValueError(f"init has length {x0.shape[0]}, expected {pk.dim}")

    f, g = _objective(design, opts)

    starts = [x0]
    if opts.multistart > 0:
        rng = np.random.default_rng(opts.seed)
        starts += [
            x0 + opts.multistart_scale * rng.standard_normal(pk.dim)
            for _ in range(opts.multistart)
        ]

    best = None
    first_error = None
    for x_start in starts:
        try:
            run = _ascend(f, g, x_start, opts, h0)
        except NonFiniteObjectiveAtInit as e:
            if first_error is None:
                first_error = e
            continue
        if best is None or run[1] < best[1]:
            best = run
    if best is None:
        raise first_error
    x, fx, gx, iters, status, optimizer_used, path = best

    # shapes that under- or overflowed at the optimum are not admissible
    with np.errstate(over="ignore"):
        params = pk.unpack(x)
    try:
        validate_params(spec, params, design.alternatives)
    except InvalidParams as e:
        raise InadmissibleOptimum(f"the optimum found is not admissible: {e}") from e
    ll, floored = ll_with_design(design, x, opts.use_weights)

    return EstimationResult(
        spec=spec,
        params=params,
        packed=x,
        param_names=pk.names(),
        ll=ll,
        ll_by_alt=ll_by_alternative_with_design(design, x, opts.use_weights),
        score=-gx,
        grad_norm_inf=float(np.max(np.abs(gx))),
        status=status,
        iterations=iters,
        optimizer_used=optimizer_used,
        ll_path=path,
        n_floored=floored,
    )
