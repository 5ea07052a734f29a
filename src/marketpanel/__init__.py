"""Panel-data toolkit for estimating marketing-investment effects on firm
value and systematic risk.

The pipeline builds a validated firm-year panel from CSV inputs (or a
calibrated synthetic generator), derives the regression variables including
rolling-window market betas, estimates fixed-effects value and risk models
with period-clustered robust covariance, runs the diagnostic battery, and
emits publication-style report tables.
"""

__version__ = "0.1.0"
