"""Exception and warning types shared across the package."""


class FlexLogitError(Exception):
    """Base class for all errors raised by this package."""


# -- data loading / validation -------------------------------------------------

class DataError(FlexLogitError):
    """A dataset violates the long-format contract."""


class MissingColumn(DataError):
    pass


class EmptyDataset(DataError, ValueError):
    """A dataset has no rows, e.g. a CSV file with only a header."""


class DuplicateAltForObs(DataError):
    pass


class NoChoiceForObs(DataError):
    pass


class MultipleChoicesForObs(DataError):
    pass


class NonNumericCell(DataError):
    pass


# -- model specification / parameters ------------------------------------------

class SpecError(FlexLogitError):
    """A model specification is malformed or inconsistent with the data."""


class SpecDataMismatch(SpecError):
    pass


class InvalidParams(FlexLogitError):
    """Natural parameters violate a family's admissible set."""


class DomainViolation(FlexLogitError):
    """The systematic index V falls outside a transform's domain.

    The message names the violated constraint, e.g. ``"V > 1"``.
    """

    def __init__(self, family: str, constraint: str, value=None):
        self.family = family
        self.constraint = constraint
        self.value = value
        detail = f"{family}: domain constraint {constraint} violated"
        if value is not None:
            detail += f" (got V = {value})"
        super().__init__(detail)


class NonFiniteIndex(FlexLogitError):
    """A systematic index V is NaN or infinite."""


# -- estimation -----------------------------------------------------------------

class EstimationError(FlexLogitError):
    pass


class NonFiniteObjectiveAtInit(EstimationError):
    """The log-likelihood is not finite at the starting point."""


class InadmissibleOptimum(EstimationError):
    """The best point found violates the family's admissible set."""


# -- inference ------------------------------------------------------------------

class InferenceError(FlexLogitError):
    pass


class NegativeStatBeyondSlack(InferenceError):
    """A likelihood-ratio statistic is negative beyond numerical slack."""


class TooManyFailures(InferenceError):
    """More than the tolerated fraction of bootstrap replicates failed."""


class DegenerateDistribution(InferenceError):
    """All bootstrap replicates are identical; no interval width exists."""


# -- validation / policy ---------------------------------------------------------

class KTooLarge(FlexLogitError):
    """More folds requested than observations available."""


class EmptySelection(FlexLogitError):
    """No individual is affordable under the targeting budget."""


class DegenerateDenominator(FlexLogitError):
    """A loss-pair denominator vanished where a probability was requested."""


class IntegrationFailure(FlexLogitError):
    """The probability ODE integrator failed to meet its tolerance."""


# -- warnings ---------------------------------------------------------------------

class DegenerateSharesWarning(UserWarning):
    """Some alternative is never chosen; intercept init falls back to zero."""


class SparseStratumWarning(UserWarning):
    """A chosen-alternative stratum has fewer members than folds."""
