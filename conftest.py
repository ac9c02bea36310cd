"""Pytest runs the tests on one BLAS thread, as CI and the benchmark do, so
that timing checks do not depend on the number of cores.  This file is read
before any test module imports NumPy; a thread count already set in the
environment wins."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
