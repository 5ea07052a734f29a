"""Panel-data toolkit for estimating marketing-investment effects on firm
value and systematic risk.

The pipeline builds a validated firm-year panel from three CSV inputs
(which the calibrated synthetic generator can write), derives the regression
variables including rolling-window market betas, estimates fixed-effects
value and risk models with period-clustered robust covariance, runs the
diagnostic battery, and emits publication-style report tables.
"""

import os

__version__ = "0.1.0"

# the variables OpenBLAS reads its thread count from, the first one set winning
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread_unless_chosen() -> None:
    """Have numpy's OpenBLAS start one thread unless the caller chose a count.

    OpenBLAS reads its thread count once, when numpy loads it, and by default
    starts a worker per CPU; the package's solves are small, so the pool costs
    start-up time and buys none. Only the CLI's two program entry points
    (``python -m marketpanel.cli`` and the ``marketpanel`` script) call this,
    before numpy is imported; importing the package changes nothing. A caller's
    value of any of the three variables wins: OpenBLAS reads
    ``OPENBLAS_NUM_THREADS`` first, so a 1 set beside a caller's
    ``OMP_NUM_THREADS`` would override it.
    """
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
