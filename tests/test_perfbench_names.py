"""The benchmark workloads import crackdet names and read them as
``module.attr``, and read or write run settings as ``<x>.<section>.<field>``:
a renamed or deleted name or field would break only a benchmark run, so check
each one here, read from the workloads' source. The package's own
``__all__`` is checked alike."""

import ast
import importlib
import importlib.util
import os
from dataclasses import fields

import pytest

import crackdet
from crackdet.config import RunConfig

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


def config_fields(path):
    """Sorted (section, field) pairs: every ``<x>.<section>.<field>``
    attribute chain in a file whose middle name is a ``RunConfig`` section."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    sections = {f.name for f in fields(RunConfig)}
    return sorted({(node.value.attr, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                   and node.value.attr in sections})


WORKLOAD_NAMES = crackdet_names(WORKLOADS_PATH)
WORKLOAD_FIELDS = config_fields(WORKLOADS_PATH)


def test_names_are_read_from_the_workloads():
    assert {("crackdet.geometry", "SMALL_MAX_AREA"), ("crackdet.model", "Detection"),
            ("crackdet.dataio", "DatasetIndex"), ("crackdet", "evaluator")} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("module,name", WORKLOAD_NAMES,
                         ids=[f"{m}.{n}" for m, n in WORKLOAD_NAMES])
def test_workload_name_resolves(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def test_fields_are_read_from_the_workloads():
    assert {("synthetic", "seed"), ("training", "steps"), ("training", "seed"),
            ("training", "batch_size"), ("model", "image_size")} <= set(WORKLOAD_FIELDS)


@pytest.mark.parametrize("section,name", WORKLOAD_FIELDS,
                         ids=[f"{s}.{n}" for s, n in WORKLOAD_FIELDS])
def test_workload_config_field_resolves(section, name):
    assert name in {f.name for f in fields(getattr(RunConfig(), section))}


@pytest.mark.parametrize("name", crackdet.__all__)
def test_package_export_resolves(name):
    assert hasattr(crackdet, name)
