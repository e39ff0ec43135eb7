import os

# Pin BLAS pools before numpy loads so timing-sensitive tests stay single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from padre.oracle import rel_dev  # noqa: F401  (re-exported for the test modules)
from padre.tensor import apply_mixer


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def stacked(f):
    """``f`` of one (N, D) input, lifted to the (P, N, D) stacks extract_coeffs passes."""
    return lambda xs: np.stack([f(x) for x in xs])


def dense_of(m):
    """``m``'s implicit matrix: token side ``apply_mixer(m, x) == M @ x``, channel side ``x @ M``."""
    return apply_mixer(m, np.eye(m.dim))
