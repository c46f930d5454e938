"""Every exported name exists, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import tagparse

# `tagparse.__main__` runs the CLI on import and exports nothing
MODULES = ["tagparse", *(m.name for m in pkgutil.walk_packages(tagparse.__path__, "tagparse.")
                         if m.name != "tagparse.__main__")]


def test_every_submodule_is_covered():
    assert {"tagparse.data", "tagparse.autodiff", "tagparse.data.corpus"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert isinstance(module.__all__, list)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tagparse import *", namespace)
    assert set(tagparse.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["sigmoid", "tsum", "transpose", "mul"])
def test_test_only_ops_stay_out_of_autodiff(name):
    # these live in tests/oracles.py; the library applies weights through `linear`
    assert not hasattr(importlib.import_module("tagparse.autodiff"), name)
