"""The benchmark tracer binds crackdet names with bare getattr: a renamed or
deleted target would break only a traced benchmark run, so check them here."""

import importlib
import os
import types

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    """The tracer module's names, executed from its source (no bytecode cache
    is written beside it)."""
    with open(SPANS_PATH) as fh:
        namespace = {"__name__": "perfbench_spans"}
        exec(compile(fh.read(), SPANS_PATH, "exec"), namespace)
    return types.SimpleNamespace(**namespace)


SPANS = load_spans()


@pytest.mark.parametrize("module,name,span", SPANS.FUNCTION_SPANS)
def test_function_span_target_resolves(module, name, span):
    assert callable(getattr(importlib.import_module(f"crackdet.{module}"), name))


@pytest.mark.parametrize("module,cls,method,span", SPANS.METHOD_SPANS)
def test_method_span_target_resolves(module, cls, method, span):
    owner = getattr(importlib.import_module(f"crackdet.{module}"), cls)
    assert callable(owner.__dict__[method])
