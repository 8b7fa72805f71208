import os

# One BLAS thread, set before numpy loads, as benchmarks/run.py does: on a
# two-core machine two OpenBLAS threads make small complex matmuls up to
# 100 times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ptqm.two_level import TwoLevelParams  # noqa: E402


def random_valid_params(rng, margin=0.95):
    """Draw (r, s, theta) uniformly, rejected into the unbroken region."""
    while True:
        r = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.3, 2.0)
        theta = rng.uniform(-np.pi, np.pi)
        if abs(r * np.sin(theta) / s) < margin:
            return TwoLevelParams(r, s, theta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
