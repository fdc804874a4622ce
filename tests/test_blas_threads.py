"""Training numerics depend on the BLAS thread count, so the suite runs with
one thread (tests/conftest.py), as CI and the benchmark do."""

import importlib.util
import os

import numpy  # noqa: F401  (loads the BLAS library the check looks for)
import pytest

RUN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")


def test_openblas_runs_one_thread():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    threads = run._blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread-count symbol found in this numpy")
    assert threads == 1
