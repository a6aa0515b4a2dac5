"""Model specification, parameter packing, probabilities, and gradients.

The model for observation i choosing among its available alternatives C_i is

    P_ij = exp(tau_j + S(V_ij, gamma_j)) / sum_{l in C_i} exp(tau_l + S(V_il, gamma_l))

with systematic index V_ij = x_ij . beta, a per-alternative intercept tau_j
(one alternative's tau fixed at zero for identification), and a transformation
family S from :mod:`flexlogit.transforms`, possibly carrying per-alternative
shape parameters gamma_j.

Parameters travel in two representations. ``NaturalParams`` holds the
human-readable values (beta, intercepts keyed by alternative id, shapes on
their natural scale) and is the type at the API boundary. Only ``Packing``
reads or writes the optimizer's unconstrained vector: the beta block in
specification order, then free intercepts by ascending alternative id, then
free unconstrained shapes by ascending alternative id. The compiled
evaluators take ``(design, params)``: a ``Design`` carries the spec it was
compiled against, and params of either form are read, a packed vector
directly. ``gradient`` returns derivatives in packed order, with the chain
rule through each family's reparameterization applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import ChoiceDataset, gather_obs_rows
from .errors import (
    InvalidParams,
    MissingColumn,
    NonFiniteIndex,
    SpecDataMismatch,
)
from .transforms import get_family

__all__ = [
    "Coefficient",
    "ModelSpec",
    "NaturalParams",
    "Packing",
    "Design",
    "build_design",
    "probabilities",
    "log_likelihood",
    "ll_by_alternative",
    "gradient",
]

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class Coefficient:
    """One entry of beta: applies ``column`` to the listed alternatives.

    ``alts=None`` applies the coefficient to every alternative (a generic
    coefficient); otherwise the covariate enters only the listed
    alternatives' indices, which is how alternative-specific effects are
    written in long format.
    """

    name: str
    column: str
    alts: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ModelSpec:
    """A transform family plus the design of the systematic index."""

    transform: str
    ref_alt: int
    coefficients: tuple[Coefficient, ...]
    shape_ref_alt: int | None = None

    def __post_init__(self):
        get_family(self.transform)  # unknown name fails fast
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        names = [c.name for c in self.coefficients]
        if len(set(names)) != len(names):
            raise SpecDataMismatch("coefficient names must be unique")
        if self.shape_ref_alt is not None and self.transform != "asym_logit":
            raise SpecDataMismatch(
                "shape_ref_alt applies only to the asym_logit transform"
            )

    @property
    def family(self):
        return get_family(self.transform)

    def effective_shape_ref(self) -> int | None:
        if self.transform != "asym_logit":
            return None
        return self.ref_alt if self.shape_ref_alt is None else self.shape_ref_alt

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        coefs = tuple(
            Coefficient(
                name=c["name"],
                column=c["column"],
                alts=None
                if c.get("alts") in (None, "all")
                else tuple(int(a) for a in c["alts"]),
            )
            for c in d["coefficients"]
        )
        return cls(
            transform=d["transform"],
            ref_alt=int(d["ref_alt"]),
            coefficients=coefs,
            shape_ref_alt=None
            if d.get("shape_ref_alt") is None
            else int(d["shape_ref_alt"]),
        )

    @classmethod
    def from_json(cls, path) -> "ModelSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "transform": self.transform,
            "ref_alt": self.ref_alt,
            "shape_ref_alt": self.shape_ref_alt,
            "coefficients": [
                {
                    "name": c.name,
                    "column": c.column,
                    "alts": "all" if c.alts is None else list(c.alts),
                }
                for c in self.coefficients
            ],
        }


@dataclass
class NaturalParams:
    """Parameters on their natural scale.

    ``tau`` maps alternative id to intercept; missing ids default to zero and
    the reference alternative must be zero. ``gamma`` maps alternative id to
    that alternative's shape value (a 2-tuple for two-shape families);
    families without shapes take ``gamma=None``.
    """

    beta: np.ndarray
    tau: dict[int, float] = field(default_factory=dict)
    gamma: dict[int, float | tuple[float, float]] | None = None
    # Unconstrained shape block cached by Packing.unpack so that
    # pack(unpack(v)) round-trips bit-exactly through exp/log pairs; pack
    # reads it only while it still maps to ``gamma``.
    packed_shapes: np.ndarray | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()

    def tau_vector(self, alternatives) -> np.ndarray:
        return np.array([float(self.tau.get(int(a), 0.0)) for a in alternatives])

    def gamma_matrix(self, alternatives, n_shapes: int) -> np.ndarray | None:
        """(n_alts, n_shapes) matrix of natural shape values."""
        if n_shapes == 0:
            return None
        if self.gamma is None:
            raise InvalidParams("this transform family requires shape parameters")
        out = np.empty((len(alternatives), n_shapes))
        for i, a in enumerate(alternatives):
            try:
                g = self.gamma[int(a)]
            except KeyError:
                raise InvalidParams(f"missing shape value for alternative {a}") from None
            out[i] = np.asarray(g, dtype=float).ravel()
        return out


def validate_params(spec: ModelSpec, params: NaturalParams, alternatives) -> None:
    """Raise ``InvalidParams`` unless params fit the spec and family."""
    if params.beta.shape[0] != len(spec.coefficients):
        raise InvalidParams(
            f"beta has {params.beta.shape[0]} entries; spec declares "
            f"{len(spec.coefficients)} coefficients"
        )
    if not np.all(np.isfinite(params.beta)):
        raise InvalidParams("beta contains non-finite entries")
    tau = params.tau_vector(alternatives)
    if not np.all(np.isfinite(tau)):
        raise InvalidParams("tau contains non-finite entries")
    ref_tau = float(params.tau.get(spec.ref_alt, 0.0))
    if ref_tau != 0.0:
        raise InvalidParams(
            f"tau for reference alternative {spec.ref_alt} must be 0, got {ref_tau}"
        )
    fam = spec.family
    if fam.n_shapes_per_alt:
        g = params.gamma_matrix(alternatives, fam.n_shapes_per_alt)
        if not np.all(np.isfinite(g)):
            raise InvalidParams("gamma contains non-finite entries")
        problem = fam.check_shapes(g)
        if problem:
            raise InvalidParams(f"{fam.name}: shape constraint violated: {problem}")


class Packing:
    """Bijection between ``NaturalParams`` and one unconstrained vector.

    Layout: beta (specification order), then tau for every non-reference
    alternative ascending, then the unconstrained shape block ascending by
    alternative id (two adjacent slots per alternative for two-shape
    families; the asym_logit shape of its reference alternative is fixed at
    zero and omitted). No other code reads or writes this layout; the compiled
    evaluators read a packed vector through ``arrays``.
    """

    def __init__(self, spec: ModelSpec, alternatives):
        self.spec = spec
        self.alternatives = tuple(int(a) for a in alternatives)
        self.family = spec.family
        if spec.ref_alt not in self.alternatives:
            raise SpecDataMismatch(
                f"ref_alt {spec.ref_alt} is not among alternatives {self.alternatives}"
            )
        self.free_taus = [a for a in self.alternatives if a != spec.ref_alt]
        ns = self.family.n_shapes_per_alt
        self.shape_ref = spec.effective_shape_ref()
        if self.shape_ref is not None and self.shape_ref not in self.alternatives:
            raise SpecDataMismatch(
                f"shape_ref_alt {self.shape_ref} is not among alternatives"
            )
        self.shape_alts = (
            [a for a in self.alternatives if ns and a != self.shape_ref] if ns else []
        )
        row = {a: i for i, a in enumerate(self.alternatives)}
        self.tau_rows = np.array([row[a] for a in self.free_taus], dtype=np.intp)
        self.shape_rows = np.array([row[a] for a in self.shape_alts], dtype=np.intp)
        self.n_beta = len(spec.coefficients)
        self.n_tau = len(self.free_taus)
        self.n_shape = len(self.shape_alts) * ns
        self.dim = self.n_beta + self.n_tau + self.n_shape

    def names(self) -> list[str]:
        out = [f"beta:{c.name}" for c in self.spec.coefficients]
        out += [f"tau:{a}" for a in self.free_taus]
        ns = self.family.n_shapes_per_alt
        for a in self.shape_alts:
            if ns == 1:
                out.append(f"shape:{a}")
            else:
                out += [f"shape:{a}:{k + 1}" for k in range(ns)]
        return out

    def arrays(self, vec):
        """``(beta, tau, gamma)`` at a packed vector: beta a view of ``vec``,
        tau per alternative (zero at the reference), and the (n_alts,
        n_shapes) natural shape matrix, or ``None`` for families without
        shapes."""
        vec = np.asarray(vec, dtype=float).ravel()
        if vec.shape[0] != self.dim:
            raise InvalidParams(f"expected packed vector of length {self.dim}")
        b, t = self.n_beta, self.n_beta + self.n_tau
        tau = np.zeros(len(self.alternatives))
        tau[self.tau_rows] = vec[b:t]
        if not self.family.n_shapes_per_alt:
            return vec[:b], tau, None
        return vec[:b], tau, self._natural_shapes(vec[t:])

    def _natural_shapes(self, block):
        """Natural shape matrix of a free unconstrained shape block."""
        u = np.zeros((len(self.alternatives), self.family.n_shapes_per_alt))
        u[self.shape_rows] = block.reshape(-1, u.shape[1])
        return self.family.to_natural(u)

    def unpack(self, vec: np.ndarray) -> NaturalParams:
        vec = np.asarray(vec, dtype=float).ravel()
        beta, tau, nat = self.arrays(vec)
        gamma = None if nat is None else {
            a: (g[0] if len(g) == 1 else tuple(g))
            for a, g in zip(self.alternatives, nat.tolist())
        }
        return NaturalParams(
            beta=beta.copy(),
            tau=dict(zip(self.alternatives, tau.tolist())),
            gamma=gamma,
            packed_shapes=vec[self.n_beta + self.n_tau :].copy(),
        )

    def pack(self, params: NaturalParams) -> np.ndarray:
        vec = np.empty(self.dim)
        vec[: self.n_beta] = params.beta
        vec[self.n_beta : self.n_beta + self.n_tau] = params.tau_vector(
            self.alternatives
        )[self.tau_rows]
        if self.family.n_shapes_per_alt:
            nat = params.gamma_matrix(self.alternatives, self.family.n_shapes_per_alt)
            cached = params.packed_shapes
            if (cached is not None and cached.shape == (self.n_shape,)
                    and np.array_equal(self._natural_shapes(cached), nat)):
                vec[self.n_beta + self.n_tau :] = cached
            else:
                full = self.family.from_natural(nat)
                if self.shape_ref is not None:
                    # fix the gauge: the reference alternative's shape is 0
                    full = full - full[self.alternatives.index(self.shape_ref)]
                vec[self.n_beta + self.n_tau :] = full[self.shape_rows].ravel()
        return vec

    def shape_gradient(self, t_natural: np.ndarray, nat: np.ndarray) -> np.ndarray:
        """Chain dLL/dgamma (per alt, natural) into the free unconstrained block.

        ``t_natural`` and ``nat`` are (n_alts, n_shapes).
        """
        return self.family.chain_natural(t_natural, nat)[self.shape_rows].ravel()


@dataclass
class Design:
    """Dataset compiled against ``packing.spec`` for repeated evaluation."""

    X: np.ndarray
    alt_index: np.ndarray
    obs_ptr: np.ndarray
    row_obs: np.ndarray
    chosen: np.ndarray
    chosen_rows: np.ndarray
    weights_obs: np.ndarray
    packing: Packing

    @classmethod
    def _of_rows(cls, X, alt_index, obs_ptr, chosen, weights_obs, packing) -> "Design":
        """Design of these rows; ``row_obs`` and ``chosen_rows`` are derived."""
        return cls(
            X=X, alt_index=alt_index, obs_ptr=obs_ptr,
            row_obs=np.repeat(np.arange(obs_ptr.shape[0] - 1), np.diff(obs_ptr)),
            chosen=chosen, chosen_rows=np.flatnonzero(chosen),
            weights_obs=weights_obs, packing=packing,
        )

    @property
    def spec(self) -> ModelSpec:
        return self.packing.spec

    @property
    def alternatives(self) -> tuple[int, ...]:
        return self.packing.alternatives

    def chosen_alt_by_obs(self) -> np.ndarray:
        return np.asarray(self.alternatives)[self.alt_index[self.chosen_rows]]

    def obs_weights(self) -> np.ndarray:
        return self.weights_obs

    def take(self, obs_positions) -> "Design":
        """Design of the observations at ``obs_positions``, in that order.

        Positions index observations in canonical order and may repeat. The
        arrays equal those ``build_design`` compiles from the matching
        ``ChoiceDataset.resample`` (or, for ascending positions without
        repeats, ``subset``), row for row. ``packing`` stays that of the full
        data even when the gathered observations never offer some
        alternative, so one packed vector fits every gather.
        """
        positions = np.asarray(obs_positions, dtype=np.int64)
        rows, ptr = gather_obs_rows(self.obs_ptr, positions)
        return Design._of_rows(self.X[rows], self.alt_index[rows], ptr, self.chosen[rows],
                               self.weights_obs[positions], self.packing)


def build_design_matrix(spec: ModelSpec, covariates, columns, alt_ids, alternatives):
    """Assemble the (n_rows, n_coefficients) index design matrix.

    Entry (r, k) is the coefficient's covariate value when row r's alternative
    is in the coefficient's scope, else zero.
    """
    covariates = np.asarray(covariates, dtype=float)
    columns = list(columns)
    alt_ids = np.asarray(alt_ids)
    n = covariates.shape[0]
    X = np.zeros((n, len(spec.coefficients)))
    alts = np.asarray(alternatives, dtype=np.int64)
    order = np.argsort(alts)  # positions follow ``alternatives``, sorted or not
    alt_index = order.take(np.searchsorted(alts, alt_ids, sorter=order), mode="clip")
    unknown = alt_ids[alts[alt_index] != alt_ids]
    if unknown.size:
        raise SpecDataMismatch(f"alternative {unknown[0]} not in the alternative set")
    for k, coef in enumerate(spec.coefficients):
        try:
            j = columns.index(coef.column)
        except ValueError:
            raise MissingColumn(
                f"coefficient {coef.name!r} needs column {coef.column!r}"
            ) from None
        col = covariates[:, j]
        if coef.alts is None:
            X[:, k] = col
        else:
            mask = np.isin(alt_ids, np.asarray(coef.alts))
            X[mask, k] = col[mask]
    return X, alt_index


def _compile(packing, covariates, columns, alt_ids, obs_ptr, chosen, weights_obs):
    """Design of rows grouped by ``obs_ptr``; no identification checks."""
    X, alt_index = build_design_matrix(
        packing.spec, covariates, columns, alt_ids, packing.alternatives
    )
    return Design._of_rows(X, alt_index, obs_ptr, chosen, weights_obs, packing)


def build_design(data: ChoiceDataset, spec: ModelSpec) -> Design:
    """Validate the spec against the data and compile evaluation arrays."""
    alternatives = data.alternatives
    for coef in spec.coefficients:
        if coef.alts is not None:
            missing = set(coef.alts) - set(alternatives)
            if missing:
                raise SpecDataMismatch(
                    f"coefficient {coef.name!r} references unknown alternatives {sorted(missing)}"
                )
    design = _compile(
        Packing(spec, alternatives), data.covariates, data.columns, data.alt_ids,
        data.obs_ptr, np.asarray(data.chosen), data.obs_weights(),
    )
    # A constant column applied to every alternative duplicates the intercepts.
    for coef in spec.coefficients:
        if coef.alts is None and np.ptp(data.column(coef.column)) == 0.0:
            raise SpecDataMismatch(
                f"coefficient {coef.name!r} applies a constant column to all "
                "alternatives; it is collinear with the intercepts"
            )
    return design


def _forward(design: Design, params, grad=False):
    """Per-row probabilities, floored log chosen-probabilities and the number
    floored, dS/dV and dS/dgamma per row (``None`` unless ``grad``) and the
    natural shape matrix at ``params``, ``NaturalParams`` or packed."""
    pk = design.packing
    fam = pk.family
    if isinstance(params, NaturalParams):
        beta, tau = params.beta, params.tau_vector(pk.alternatives)
        nat = params.gamma_matrix(pk.alternatives, fam.n_shapes_per_alt)
    else:
        beta, tau, nat = pk.arrays(params)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        V = design.X @ beta
    if not np.all(np.isfinite(V)):
        raise NonFiniteIndex("systematic index V is NaN or infinite")
    alt_index, J = design.alt_index, len(pk.alternatives)
    if fam.n_shapes_per_alt:
        g_rows = nat[alt_index, 0] if fam.n_shapes_per_alt == 1 else nat[alt_index]
    else:
        g_rows = None
    if grad:
        S, dSdV, dSdg = fam.value(V, g_rows, J, grad=True)
    else:
        S, dSdV, dSdg = fam.value(V, g_rows, J), None, None
    # Row-sized temporaries are freed once read, and the gradient still gets
    # the floored log-probabilities it never reads: under glibc's dynamic mmap
    # threshold, longer lifetimes or fewer arrays made 60k-row fits slower.
    expo = S + tau[alt_index]
    del V, S, g_rows
    starts, row_obs = design.obs_ptr[:-1], design.row_obs
    m = np.maximum.reduceat(expo, starts)
    e = np.exp(expo - m[row_obs])
    P = e / np.add.reduceat(e, starts)[row_obs]
    del m, e
    pc = P[design.chosen_rows]
    floored = int(np.sum(pc < PROB_FLOOR))
    logp = np.log(np.maximum(pc, PROB_FLOOR))
    return P, logp, floored, dSdV, dSdg, nat


def probabilities_from_design(design: Design, params) -> np.ndarray:
    """Per-row probabilities on the compiled rows; no parameter checks."""
    return _forward(design, params)[0]


def probabilities(data: ChoiceDataset, spec: ModelSpec, params: NaturalParams) -> np.ndarray:
    """Per-row choice probabilities; rows of an observation sum to one."""
    validate_params(spec, params, data.alternatives)
    return probabilities_from_design(build_design(data, spec), params)


def log_likelihood(
    data: ChoiceDataset,
    spec: ModelSpec,
    params: NaturalParams,
    use_weights: bool = False,
) -> float:
    """Sum of log chosen-probabilities, optionally weighted.

    Chosen probabilities are floored at 1e-300 before the log so the result
    is never -inf; the flooring count is surfaced through estimation
    diagnostics.
    """
    validate_params(spec, params, data.alternatives)
    ll, _ = ll_with_design(build_design(data, spec), params, use_weights)
    return ll


def ll_with_design(design: Design, params, use_weights=False):
    _, logp, floored, *_ = _forward(design, params)
    w = design.weights_obs if use_weights else 1.0
    return float(np.sum(w * logp)), floored


def ll_by_alternative(
    data: ChoiceDataset,
    spec: ModelSpec,
    params: NaturalParams,
    use_weights: bool = False,
) -> dict[int, float]:
    """Log-likelihood split by the chosen alternative; values sum to the total."""
    validate_params(spec, params, data.alternatives)
    return ll_by_alternative_with_design(build_design(data, spec), params, use_weights)


def ll_by_alternative_with_design(design: Design, params, use_weights=False) -> dict[int, float]:
    _, logp, *_ = _forward(design, params)
    w = design.weights_obs if use_weights else 1.0
    contrib = w * logp
    chosen_alt = design.chosen_alt_by_obs()
    return {
        int(a): float(np.sum(contrib[chosen_alt == a])) for a in design.alternatives
    }


def gradient(
    data: ChoiceDataset,
    spec: ModelSpec,
    params: NaturalParams,
    use_weights: bool = False,
) -> np.ndarray:
    """Analytic score in packed order (beta, free taus, free shapes)."""
    validate_params(spec, params, data.alternatives)
    return gradient_with_design(build_design(data, spec), params, use_weights)


def gradient_with_design(design: Design, params, use_weights=False) -> np.ndarray:
    P, _, _, dSdV, dSdg, nat = _forward(design, params, grad=True)
    J = len(design.alternatives)
    w_rows = design.weights_obs[design.row_obs] if use_weights else 1.0
    resid = (design.chosen.astype(float) - P) * w_rows

    pk = design.packing
    out = np.empty(pk.dim)
    out[: pk.n_beta] = design.X.T @ (resid * dSdV)

    g_tau = np.bincount(design.alt_index, weights=resid, minlength=J)
    out[pk.n_beta : pk.n_beta + pk.n_tau] = g_tau[pk.tau_rows]

    if dSdg is not None:
        t = np.column_stack(
            [
                np.bincount(design.alt_index, weights=resid * d, minlength=J)
                for d in dSdg.reshape(resid.shape[0], -1).T
            ]
        )
        out[pk.n_beta + pk.n_tau :] = pk.shape_gradient(t, nat)
    return out
