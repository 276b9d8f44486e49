"""Terminal-airspace traffic modeling: learn deviation mixtures from flight
tracks and procedures, then generate synthetic trajectories and traffic scenes.
"""

import os
import sys

__version__ = "0.1.0"

# BLAS runs on one thread. A multithreaded BLAS splits its sums by thread
# count, so the rounding, and with it the artefacts' bytes, would depend on
# the machine's cores. The BLAS libraries read these variables when numpy
# loads them, so the pin holds only where trafgen is imported before numpy:
# a process that imported numpy first keeps its own setting.
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
