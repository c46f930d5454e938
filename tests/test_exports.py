"""Every exported name exists, so a deletion cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", ["sigmoid", "_sigmoid", "tsum", "transpose", "matmul", "mul",
                                  "lstm_sequence"])
def test_test_only_ops_stay_out_of_autodiff(name):
    # these live in tests/oracles.py, or are gone: the library applies weights
    # through `linear`, activates gates with one tanh and runs each encoder
    # layer as one `bilstm_sequence` node
    assert not hasattr(importlib.import_module("tagparse.autodiff"), name)


@pytest.mark.parametrize("module, name", [("tagparse.autodiff", "finite_diff_check"),
                                          ("tagparse.optim", "clip_global_norm"),
                                          ("tagparse.em", "fix_linked_posteriors")])
def test_folded_and_test_only_helpers_stay_out_of_the_library(module, name):
    # the gradient check lives in tests/oracles.py; Adam.step clips and
    # compute_posteriors pins linked columns themselves
    assert not hasattr(importlib.import_module(module), name)
    assert name not in tagparse.__all__ and not hasattr(tagparse, name)


@pytest.mark.parametrize("module", ["tagparse.parser", "tagparse"])
def test_parser_embeds_only_whole_batches(module):
    # `_start` embeds a batch with one gather per table; the per-utterance
    # `embed_inputs` is the reference in tests/oracles.py
    assert not hasattr(importlib.import_module(module), "embed_inputs")


def test_lstm_cell_has_no_sequence_run():
    # an encoder layer runs both of its cells inside `bilstm_sequence`
    assert not hasattr(importlib.import_module("tagparse.nn").LstmCell, "run")


def test_no_module_rebinds_a_tensor_data():
    # a loaded parameter's `data` is the checkpoint's own array, so rebinding it
    # would silently detach the two; only Tensor.__init__ binds it, and in-place
    # updates (`p.data -= ...`) leave the binding alone
    root = Path(tagparse.__file__).parent
    rebinds = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node.target) for node in ast.walk(tree) if isinstance(node, ast.AugAssign)}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "Tensor":
                init = next(f for f in cls.body if getattr(f, "name", None) == "__init__")
                allowed |= {id(node) for node in ast.walk(init)
                            if isinstance(node, ast.Attribute) and ast.unparse(node) == "self.data"}
        rebinds += [f"{path.relative_to(root)}:{node.lineno}: {ast.unparse(node)}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "data"
                    and isinstance(node.ctx, ast.Store) and id(node) not in allowed]
    assert rebinds == []


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark wraps library functions by module attribute, so a name
    # deleted here fails there; install every level, then put all back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = workloads.Tracer(lambda: 0)
    try:
        workloads.install(tracer, workloads.COARSE)
        workloads.install(tracer, workloads.FULL)
        hooked = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
        assert {(owner.__name__, attr) for owner, attr, _ in hooked} >= {
            ("tagparse.parser", "decode"), ("tagparse.em", "predict_tags"),
            ("tagparse.em", "train_tagger"), ("tagparse.parser", "train_parser")}
    finally:
        tracer.uninstall()
    assert [(owner, attr) for owner, attr, original in hooked
            if getattr(owner, attr) is not original] == []
