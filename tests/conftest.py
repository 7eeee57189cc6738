"""Pin BLAS and OpenMP to one thread before any test module loads numpy.

Unpinned, OpenBLAS spreads small complex matrix products over every core
and can stall each for milliseconds on a small shared host, which the
suite's wall-clock gates feel; one thread also fixes the order of the
reductions, as in ``scripts/state_digest.py`` and ``scripts/stress.py``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
