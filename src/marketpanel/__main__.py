"""The ``marketpanel`` script: one OpenBLAS thread unless the caller chose, then the CLI."""
from . import one_blas_thread_unless_chosen
one_blas_thread_unless_chosen()   # before .cli imports numpy
from .cli import main

if __name__ == "__main__":   # python -m marketpanel
    raise SystemExit(main())
