"""Checkpoint container round trips and format guards."""

import json

import numpy as np
import pytest

from tagparse import autodiff as ad
from tagparse.checkpoint import (CheckpointError, config_from_fields, save_checkpoint,
                                 load_checkpoint)
from tagparse.parser import ParserConfig


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    params = [
        ad.parameter(rng.normal(scale=1e-8, size=(3, 4)), "tiny"),
        ad.parameter(rng.normal(scale=1e8, size=(2,)), "huge"),
        ad.parameter(np.array(np.pi), "scalar"),
    ]
    path = tmp_path / "model.json"
    save_checkpoint(path, params, kind="tagger", meta={"vocab": ["a", "b"]})
    loaded, meta = load_checkpoint(path, expect_kind="tagger")
    for p in params:
        assert loaded[p.name].shape == p.data.shape
        np.testing.assert_array_equal(loaded[p.name], p.data)
    assert meta == {"vocab": ["a", "b"]}


def test_identical_params_identical_bytes(tmp_path):
    arr = np.random.default_rng(1).normal(size=(5, 5))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, [ad.parameter(arr, "w")], kind="x")
    save_checkpoint(b, [ad.parameter(arr.copy(), "w")], kind="x")
    assert a.read_bytes() == b.read_bytes()


def test_unsupported_format_version(tmp_path):
    path = tmp_path / "old.json"
    save_checkpoint(path, [ad.parameter(np.ones(2), "w")], kind="x")
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)


def test_kind_mismatch(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, [ad.parameter(np.ones(2), "w")], kind="parser")
    with pytest.raises(CheckpointError, match="kind"):
        load_checkpoint(path, expect_kind="tagger")


def test_unnamed_parameter_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="unnamed"):
        save_checkpoint(tmp_path / "x.json", [ad.tensor(np.ones(2))], kind="x")


def test_shape_value_count_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    save_checkpoint(path, [ad.parameter(np.ones((2, 2)), "w")], kind="x")
    doc = json.loads(path.read_text())
    doc["params"]["w"]["shape"] = [3, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="w"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("shape", "2x2"), ("values", ["a"] * 4)])
def test_malformed_entry_named(tmp_path, field, value):
    path = tmp_path / "bad.json"
    save_checkpoint(path, [ad.parameter(np.ones((2, 2)), "w")], kind="x")
    doc = json.loads(path.read_text())
    doc["params"]["w"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="parameter 'w': malformed"):
        load_checkpoint(path)


def saved_models(tmp_path):
    """A tiny tagger and parser checkpoint, each with its loader."""
    from tagparse.parser import load_parser, save_parser
    from tagparse.tagger import load_tagger, save_tagger
    from tests.test_parser import tiny_parser
    from tests.test_tagger import small_params
    tagger, parser = tmp_path / "tagger.json", tmp_path / "parser.json"
    save_tagger(tagger, small_params())
    save_parser(parser, tiny_parser())
    return {"tagger": (tagger, load_tagger), "parser": (parser, load_parser)}


def edit_params(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["params"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_missing_parameter_named(tmp_path, kind):
    path, load = saved_models(tmp_path)[kind]
    name = f"{kind}.b_out"
    edit_params(path, lambda params: params.pop(name))
    with pytest.raises(CheckpointError, match=f"lacks parameter '{name}'"):
        load(path)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_extra_parameter_named(tmp_path, kind):
    path, load = saved_models(tmp_path)[kind]
    edit_params(path, lambda params: params.update(
        {f"{kind}.stray": {"shape": [2], "values": [0.0, 1.0]}}))
    with pytest.raises(CheckpointError, match=f"unexpected parameter '{kind}.stray'"):
        load(path)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_wrong_shape_named(tmp_path, kind):
    path, load = saved_models(tmp_path)[kind]
    name = f"{kind}.w_out"

    def transpose(params):
        params[name]["shape"] = params[name]["shape"][::-1]

    edit_params(path, transpose)
    with pytest.raises(CheckpointError, match=f"parameter '{name}': checkpoint shape"):
        load(path)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta.pop("tag_vocab"), "checkpoint meta lacks 'tag_vocab'"),
    (lambda meta: meta["config"].update(dropout=0.1),
     "checkpoint config has unknown field 'dropout'"),
    (lambda meta: meta["config"].update(hidden_size=2.5),
     "checkpoint config field 'hidden_size' must be a JSON integer, not float"),
])
def test_meta_fault_named(tmp_path, kind, edit, message):
    path, load = saved_models(tmp_path)[kind]
    doc = json.loads(path.read_text())
    edit(doc["meta"])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=message):
        load(path)


@pytest.mark.parametrize("fields, message", [
    ({"hidden_size": 2.5}, "field 'hidden_size' must be a JSON integer, not float"),
    ({"hidden_size": False}, "field 'hidden_size' must be a JSON integer, not bool"),
    ({"learning_rate": True}, "field 'learning_rate' must be a JSON number, not bool"),
    ({"learning_rate": "0.1"}, "field 'learning_rate' must be a JSON number, not str"),
    ({"use_tags": 1}, "field 'use_tags' must be a JSON boolean, not int"),
    ({"use_tags": None}, "field 'use_tags' must be a JSON boolean, not NoneType"),
])
def test_config_field_of_the_wrong_json_type_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^config {message}$"):
        config_from_fields(ParserConfig, fields, "config")


def test_config_number_field_takes_an_integer():
    config = config_from_fields(ParserConfig, {"learning_rate": 1, "use_tags": False},
                                "config")
    assert config.learning_rate == 1 and config.use_tags is False
