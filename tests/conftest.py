import os

# Pin BLAS pools before numpy loads so timing-sensitive tests stay single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rel_dev(got, ref):
    """Matrix-level relative deviation: max |got - ref| / max(|ref|)."""
    scale = max(float(np.max(np.abs(ref))), 1e-12)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(ref)))) / scale


def stacked(f):
    """``f`` of one (N, D) input, lifted to the (P, N, D) stacks extract_coeffs passes."""
    return lambda xs: np.stack([f(x) for x in xs])
