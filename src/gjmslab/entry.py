"""The gjms-lab program entry and the BLAS thread and heap policies of a command.

A gjms-lab command multiplies matrices too small for a second OpenBLAS
thread to pay for starting it, so a command runs with one BLAS thread:
OPENBLAS_NUM_THREADS=1, unless the user has set any of BLAS_THREAD_VARS,
whose value then stands. OpenBLAS reads its thread count when numpy loads,
so only the two program entries apply the policy, before their first numpy
import: main here (the gjms-lab console script) and python -m gjmslab.cli.

A command's imports (numpy, the package) make some 22 thousand container
objects that live until the process ends. The cyclic collector would walk
them in about 34 collections during the imports and once more when the
interpreter finalizes. So the same two entries turn the collector off
before numpy loads (begin_imports) and, once the imports are done, move
every object made so far into the permanent generation and turn it back on
(end_imports). The command's own objects are collected as before.

A library import of gjmslab leaves os.environ and the collector alone. This
module imports no numpy.
"""

import gc
import os

# the variables OpenBLAS reads its thread count from, first found wins
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread():
    """Set OPENBLAS_NUM_THREADS=1 unless one of BLAS_THREAD_VARS is set."""
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def begin_imports():
    """A program entry's policies before its first numpy import: one BLAS
    thread, and no cyclic collection until end_imports."""
    one_blas_thread()
    gc.disable()


def end_imports():
    """Freeze the objects the imports made (gc.freeze: no collection walks
    them again, the one at exit included) and turn the collector back on."""
    gc.freeze()
    gc.enable()


def main() -> int:
    """The gjms-lab console script: gjmslab.cli.main with one BLAS thread and
    the import-time heap frozen."""
    begin_imports()
    from .cli import main as cli_main
    end_imports()
    return cli_main()
