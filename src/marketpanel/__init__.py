"""Panel-data toolkit for estimating marketing-investment effects on firm
value and systematic risk.

The pipeline builds a validated firm-year panel from CSV inputs (or a
calibrated synthetic generator), derives the regression variables including
rolling-window market betas, estimates fixed-effects value and risk models
with period-clustered robust covariance, runs the diagnostic battery, and
emits publication-style report tables.
"""

__version__ = "0.1.0"

from .beta import (BetaEstimate, PriceTable, ReturnPanel, all_betas, beta_for_year,
                   monthly_returns)
from .diagnostics import (CorrelationResult, TestResult, VariableSummary, adf_test,
                          correlation_matrix, descriptives, hausman_test,
                          lr_heteroskedasticity, panel_stationarity)
from .ingest import (IngestReport, parse_fundamentals, parse_prices, parse_riskfree)
from .models import (EstimationReport, ModelSpec, build_interaction, estimate,
                     robustness_suite, spec_for)
from .panel_core import (FundamentalsTable, PanelCodes, PanelDataset, RiskFreeSeries,
                         build_dataset)
from .regress import (DesignMatrix, FitResult, fe_fit, ols_fit, re_fit,
                      robust_cov_white_cross_section, within_transform)
from .report import ReportBundle, emit, golden_compare
from .synth import DGPConfig, SynthResult, TruthRecord, generate_panel, truth_check
from .variables import (DerivedPanel, abnormal_earnings, derive_all, marin, marin_alt_assets,
                        marin_alt_log, ownership_concentration)

__all__ = [
    "__version__",
    "BetaEstimate", "PriceTable", "ReturnPanel", "all_betas", "beta_for_year",
    "monthly_returns",
    "CorrelationResult", "TestResult", "VariableSummary", "adf_test",
    "correlation_matrix", "descriptives", "hausman_test", "lr_heteroskedasticity",
    "panel_stationarity",
    "IngestReport", "parse_fundamentals", "parse_prices", "parse_riskfree",
    "EstimationReport", "ModelSpec", "build_interaction", "estimate",
    "robustness_suite", "spec_for",
    "FundamentalsTable", "PanelCodes", "PanelDataset", "RiskFreeSeries", "build_dataset",
    "DesignMatrix", "FitResult", "fe_fit", "ols_fit", "re_fit",
    "robust_cov_white_cross_section", "within_transform",
    "ReportBundle", "emit", "golden_compare",
    "DGPConfig", "SynthResult", "TruthRecord", "generate_panel", "truth_check",
    "DerivedPanel", "abnormal_earnings", "derive_all", "marin", "marin_alt_assets",
    "marin_alt_log", "ownership_concentration",
]
