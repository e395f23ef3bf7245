"""Multi-unit sealed-bid auction laboratory with reinforcement-learning bidders.

Importing the package pins OpenBLAS to one thread, before numpy loads, unless
one of the BLAS thread variables is set: the network updates multiply small
matrices, for which more threads only add CPU time, and a few of their products
round differently with the thread count, which would tie replay to the host.
"""

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")
if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
