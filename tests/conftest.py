import os
import sys
import threading

# One BLAS thread, fixed before numpy loads, as CI and the benchmark run:
# training numerics (and so loss.csv, checkpoints and the acceptance figures)
# depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more live threads than it started with:
    the backbone's per-call worker, and any thread a test starts, is joined
    before the test returns."""
    before = threading.active_count()
    yield
    after = threading.enumerate()
    assert len(after) <= before, f"threads left running: {[t.name for t in after]}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_rng(seed):
    return np.random.default_rng(seed)
