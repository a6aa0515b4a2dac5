"""Multinomial choice models with flexible, closed-form link transformations.

The package estimates logit-type choice models whose index transformation can
bend the probability curve away from the symmetric logistic shape, compares
transformations by likelihood-ratio test and cross-validation, wraps
estimates in bootstrap BCa intervals, and evaluates counterfactual pricing
and targeting policies on the fitted models.
"""

__version__ = "0.1.0"

from .data import (
    ChoiceDataset,
    CovariateSpec,
    SchemaMapping,
    SimulationConfig,
    load_csv,
    observed_shares,
    simulate,
    write_csv,
)
from .estimation import EstimationResult, FitOptions, default_init, fd_hessian, fit
from .inference import BootstrapRun, LRTestResult, bca_interval, bootstrap, lr_test
from .likelihood import (
    Coefficient,
    ModelSpec,
    NaturalParams,
    Packing,
    gradient,
    ll_by_alternative,
    log_likelihood,
    probabilities,
)
from .policy import (
    Scenario,
    ScenarioEdit,
    SelectionReport,
    TargetingProblem,
    apply_scenario,
    enumerate_shares,
    select_targets,
    sweep,
)
from .transforms import FAMILIES, get_family
from .validation import FoldPlan, cross_validate, make_folds

__all__ = [
    "__version__",
    "ChoiceDataset",
    "SchemaMapping",
    "CovariateSpec",
    "SimulationConfig",
    "load_csv",
    "write_csv",
    "observed_shares",
    "simulate",
    "Coefficient",
    "ModelSpec",
    "NaturalParams",
    "Packing",
    "probabilities",
    "log_likelihood",
    "ll_by_alternative",
    "gradient",
    "FitOptions",
    "EstimationResult",
    "fit",
    "default_init",
    "fd_hessian",
    "LRTestResult",
    "lr_test",
    "BootstrapRun",
    "bootstrap",
    "bca_interval",
    "FoldPlan",
    "make_folds",
    "cross_validate",
    "Scenario",
    "ScenarioEdit",
    "apply_scenario",
    "enumerate_shares",
    "sweep",
    "TargetingProblem",
    "SelectionReport",
    "select_targets",
    "FAMILIES",
    "get_family",
]
