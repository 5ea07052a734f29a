"""Exception and warning types shared across the package."""


class MarketPanelError(Exception):
    """Base class for all package-specific errors."""


class InputError(MarketPanelError):
    """Bad input, configuration or file access rather than an analytical failure.

    The CLI exits with status 2 on these and with 1 on every other error.
    """


class ConfigError(InputError):
    """A run configuration that cannot be used: a bad key, value or combination."""


# --- dataset construction ---------------------------------------------------

class EmptyInput(InputError):
    pass


class DuplicateKey(InputError):
    pass


class MissingRiskFree(InputError):
    pass


# --- ingest ------------------------------------------------------------------

class SchemaMismatch(InputError):
    pass


class NonPositivePrice(InputError):
    pass


class DuplicateMonth(InputError):
    pass


class RateOutOfRange(InputError):
    pass


# --- beta estimation ----------------------------------------------------------

class TooShort(MarketPanelError):
    pass


class UnknownMarket(InputError):
    pass


# --- regression core ----------------------------------------------------------

class RankDeficient(MarketPanelError):
    """Design matrix is rank deficient; ``columns`` names the dependent ones."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"rank deficient design; dependent columns: {list(self.columns)}")


class TooFewObservations(MarketPanelError):
    pass


class TooFewClusters(MarketPanelError):
    pass


# --- diagnostics ----------------------------------------------------------------

class ConstantSeries(MarketPanelError):
    pass


class TooFewGroups(MarketPanelError):
    pass


class NotPositiveDefinite(MarketPanelError):
    """The Hausman covariance difference V_FE - V_RE has no Cholesky factor."""


# --- synthetic generator ------------------------------------------------------------

class InfeasibleTargets(InputError):
    pass


# --- reporting -----------------------------------------------------------------------

class IoFailure(InputError):
    pass


# --- warnings --------------------------------------------------------------------------

class SingletonGroupWarning(UserWarning):
    """A group contributes a single row and hence zero within variation."""


class NegativeVarianceComponentWarning(UserWarning):
    """Estimated between variance fell below zero and was clamped."""


class CollinearityProximityWarning(UserWarning):
    """A demeaned regressor is nearly collinear with a common linear trend."""
