"""Command-line entry point: ``python -m afbm`` and the ``afbm`` script.

Monte-Carlo runs parallelize over worker processes (``--workers``), so
each process keeps BLAS to one thread unless the environment already
sets a count.  BLAS reads these variables once, when its library loads,
so they are set here, before :mod:`afbm.cli` imports numpy; the
package's ``__init__`` imports nothing heavy for the same reason.
They matter for numpy's OpenBLAS only: :mod:`afbm.equalize` binds its
kernels from that same copy, and loads scipy's own OpenBLAS only where
numpy's BLAS does not export them.
"""

import os
import sys

__all__ = ["main"]

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from afbm.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
