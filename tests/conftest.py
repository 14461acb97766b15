"""Test-session setup that must run before numpy is first imported.

Pin the BLAS libraries to one thread each unless the environment already
says otherwise.  The multi-worker tests run the simulators on two worker
threads, and each worker's GEMMs would otherwise wake the BLAS library's
own threads as well, oversubscribing the cores.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
