"""The benchmark workloads import crackdet names and read them as
``module.attr``: a renamed or deleted name would break only a benchmark run,
so check each one here, read from the workloads' source. The package's own
``__all__`` is checked alike."""

import ast
import importlib
import importlib.util
import os

import pytest

import crackdet

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "workloads.py")


def crackdet_names(path):
    """Sorted (module, name) pairs: every name a file imports from a crackdet
    module, and every ``alias.name`` it reads off a crackdet module that it
    imported as ``alias``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "crackdet":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "crackdet":
                    modules[alias.asname or alias.name] = f"crackdet.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return sorted(names)


WORKLOAD_NAMES = crackdet_names(WORKLOADS_PATH)


def test_names_are_read_from_the_workloads():
    assert {("crackdet.geometry", "SMALL_MAX_AREA"), ("crackdet.model", "Detection"),
            ("crackdet.dataio", "DatasetIndex"), ("crackdet", "evaluator")} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("module,name", WORKLOAD_NAMES,
                         ids=[f"{m}.{n}" for m, n in WORKLOAD_NAMES])
def test_workload_name_resolves(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None


@pytest.mark.parametrize("name", crackdet.__all__)
def test_package_export_resolves(name):
    assert hasattr(crackdet, name)
