"""Maximum likelihood estimation via a staged ascent with backtracking.

``fit`` maximizes the (optionally weighted) log-likelihood over the packed
parameter vector. Three stages run in order until one converges:

1. BFGS with an inverse-Hessian approximation,
2. Newton steps on a finite-difference Hessian, eigenvalue-shifted so the
   direction is always an ascent direction,
3. plain gradient ascent.

Every stage shares one backtracking line search enforcing the Armijo
sufficient-increase condition, so the sequence of accepted log-likelihood
values is non-decreasing. Convergence means the sup-norm of the score drops
below ``tol_grad``. A stage that can no longer improve the objective
(relative change below ``tol_ll`` on consecutive accepted steps, or a failed
line search) hands its best point to the next stage.

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
    status: str  # converged | max_iters | line_search_failed
    iterations: int
    optimizer_used: str
    ll_path: list[float] = field(default_factory=list)
    n_floored: int = 0
    alternatives: tuple[int, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class _WarmStart:
    """A packed start point together with the inverse Hessian the BFGS stage
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
    """Armijo backtracking; returns (x_new, f_new, alpha) or None."""
    slope = float(gx @ d)
    if slope >= 0:
        return None
    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        x_new = x + alpha * d
        f_new = f(x_new)
        if np.isfinite(f_new) and f_new <= fx + ARMIJO_C1 * alpha * slope:
            return x_new, f_new, alpha
        alpha *= BACKTRACK_SHRINK
    return None


def _stage_loop(direction_fn, update, f, g, x, fx, gx, opts, state):
    """Shared iteration scaffold; returns (x, fx, gx, iters, status, path).

    ``state`` is the stage's memory. BFGS keeps its inverse Hessian in
    ``state["H"]``, which starts as the seed or the identity; every reset goes
    back to the identity."""
    path = []
    stalls = 0
    for it in range(opts.max_iter):
        if np.max(np.abs(gx)) < opts.tol_grad:
            return x, fx, gx, it, "converged", path
        d = direction_fn(x, gx, state)
        step = _backtrack(f, x, fx, gx, d)
        if step is None and update is not None:
            # curvature memory can go bad; retry once from steepest descent
            state["H"] = np.eye(x.shape[0])
            step = _backtrack(f, x, fx, gx, -gx)
        if step is None:
            return x, fx, gx, it, "line_search_failed", path
        x_new, f_new, _ = step
        g_new = g(x_new)
        if update is not None:
            update(state, x_new - x, g_new - gx)
        rel = abs(f_new - fx) / max(1.0, abs(f_new))
        x, fx, gx = x_new, f_new, g_new
        path.append(-fx)
        if np.max(np.abs(gx)) < opts.tol_grad:
            return x, fx, gx, it + 1, "converged", path
        stalls = stalls + 1 if rel < opts.tol_ll else 0
        if stalls >= 2:
            return x, fx, gx, it + 1, "line_search_failed", path
    return x, fx, gx, opts.max_iter, "max_iters", path


def _bfgs_update(state, s, y):
    H = state["H"]
    sy = float(s @ y)
    if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
        rho = 1.0 / sy
        I = np.eye(s.shape[0])
        V = I - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
    state["H"] = H


def _bfgs_direction(x, gx, state):
    d = -state["H"] @ gx
    if float(gx @ d) >= 0:  # safeguard: fall back to steepest descent
        state["H"] = np.eye(x.shape[0])
        d = -gx
    return d


def _make_newton_direction(g):
    def direction(x, gx, state):
        H = _fd_hessian_of(g, x)
        try:
            w, Q = np.linalg.eigh(0.5 * (H + H.T))
        except np.linalg.LinAlgError:
            return -gx
        floor = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        w = np.maximum(w, floor)
        return -(Q @ ((Q.T @ gx) / w))

    return direction


def _steepest_direction(x, gx, state):
    return -gx


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


def _run_cascade(f, g, x0, opts, h0=None):
    fx = f(x0)
    if not np.isfinite(fx):
        raise NonFiniteObjectiveAtInit(
            "log-likelihood is not finite at the starting point"
        )
    gx = g(x0)
    path = [-fx]
    x = x0.copy()
    total_iters = 0
    stages_used = []
    status = "converged"
    h_start = np.eye(x.shape[0]) if h0 is None else h0
    stages = (
        ("bfgs", _bfgs_direction, _bfgs_update),
        ("newton", _make_newton_direction(g), None),
        ("ascent", _steepest_direction, None),
    )
    for name, direction, update in stages:
        state = {"H": h_start} if name == "bfgs" else {}
        x, fx, gx, iters, status, seg = _stage_loop(
            direction, update, f, g, x, fx, gx, opts, state
        )
        total_iters += iters
        path += seg
        stages_used.append(name)
        if status == "converged":
            break
    return x, fx, gx, total_iters, status, "+".join(stages_used), path


def fit(
    data: ChoiceDataset | Design,
    spec: ModelSpec,
    init: np.ndarray | NaturalParams | None = None,
    options: FitOptions | None = None,
) -> EstimationResult:
    """Maximize the log-likelihood; returns the best point found.

    ``init`` may be a packed vector or ``NaturalParams``; when omitted the
    share-matched default is used. With ``multistart=k`` the cascade also runs
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
            run = _run_cascade(f, g, x_start, opts, h0)
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
        alternatives=design.alternatives,
    )
