"""Exception and warning types shared across the package."""


class MarketPanelError(Exception):
    """Base class for all package-specific errors."""


# --- dataset construction ---------------------------------------------------

class EmptyInput(MarketPanelError):
    pass


class DuplicateKey(MarketPanelError):
    pass


class MissingRiskFree(MarketPanelError):
    pass


class InvariantViolation(MarketPanelError):
    """A field-level invariant failed; identifies (firm, year, field)."""

    def __init__(self, field, reason, firm_id=None, year=None):
        self.field = field
        self.reason = reason
        self.firm_id = firm_id
        self.year = year
        where = ""
        if firm_id is not None or year is not None:
            where = f" [firm={firm_id}, year={year}]"
        super().__init__(f"{field}: {reason}{where}")


# --- ingest ------------------------------------------------------------------

class SchemaMismatch(MarketPanelError):
    pass


class NonPositivePrice(MarketPanelError):
    pass


class DuplicateMonth(MarketPanelError):
    pass


class RateOutOfRange(MarketPanelError):
    pass


# --- derived variables -------------------------------------------------------

class NegativeNumerator(MarketPanelError):
    pass


class ZeroSales(MarketPanelError):
    pass


class NonPositiveExpense(MarketPanelError):
    pass


# --- beta estimation ----------------------------------------------------------

class TooShort(MarketPanelError):
    pass


class InsufficientWindow(MarketPanelError):
    pass


class ZeroMarketVariance(MarketPanelError):
    pass


class UnknownMarket(MarketPanelError):
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


class SpecMismatch(MarketPanelError):
    pass


class TooFewGroups(MarketPanelError):
    pass


# --- model layer ------------------------------------------------------------------

class MissingVariable(MarketPanelError):
    pass


class LengthMismatch(MarketPanelError):
    pass


# --- synthetic generator ------------------------------------------------------------

class InfeasibleTargets(MarketPanelError):
    pass


class ModelMismatch(MarketPanelError):
    pass


# --- reporting -----------------------------------------------------------------------

class IoFailure(MarketPanelError):
    pass


# --- warnings --------------------------------------------------------------------------

class SingletonGroupWarning(UserWarning):
    """A group contributes a single row and hence zero within variation."""


class NegativeVarianceComponentWarning(UserWarning):
    """Estimated between variance fell below zero and was clamped."""


class CollinearityProximityWarning(UserWarning):
    """A demeaned regressor is nearly collinear with a common linear trend."""
