"""The gjms-lab program entry and the BLAS thread policy of a command.

A gjms-lab command multiplies matrices too small for a second OpenBLAS
thread to pay for starting it, so a command runs with one BLAS thread:
OPENBLAS_NUM_THREADS=1, unless the user has set any of BLAS_THREAD_VARS,
whose value then stands. OpenBLAS reads its thread count when numpy loads,
so only the two program entries apply the policy, before their first numpy
import: main here (the gjms-lab console script) and python -m gjmslab.cli.
A library import of gjmslab leaves os.environ alone. This module imports
no numpy.
"""

import os

# the variables OpenBLAS reads its thread count from, first found wins
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread():
    """Set OPENBLAS_NUM_THREADS=1 unless one of BLAS_THREAD_VARS is set."""
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    """The gjms-lab console script: gjmslab.cli.main with one BLAS thread."""
    one_blas_thread()
    from .cli import main as cli_main
    return cli_main()
