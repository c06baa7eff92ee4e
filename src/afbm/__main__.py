"""Command-line entry point: ``python -m afbm`` and the ``afbm`` script.

Monte-Carlo runs parallelize over worker processes (``--workers``), so
each process keeps BLAS to one thread unless the environment already
sets a count.  BLAS reads these variables once, when its library loads,
so they are set here, before :mod:`afbm.cli` imports numpy (numpy's
OpenBLAS) and :mod:`afbm.equalize` loads scipy's BLAS/LAPACK modules
(scipy's own OpenBLAS); the package's ``__init__`` imports nothing
heavy for the same reason.
"""

import os
import sys

__all__ = ["main"]

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from afbm.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
