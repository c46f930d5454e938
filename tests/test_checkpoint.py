"""Checkpoint container round trips and format guards."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def edit_checkpoint(path, edit, out=None):
    """Decode the format-2 file at `path` into (header doc, {name: array}), pass
    both to `edit`, which returns the pair to write, and write that pair to
    `out` (default `path`): the doc as the header and the arrays, in sorted-name
    order, as the payload."""
    blob = path.read_bytes()
    assert blob[:8] == b"TAGPARSE"
    end = 16 + int.from_bytes(blob[8:16], "little")
    doc, arrays = json.loads(blob[16:end]), {}
    for name in sorted(doc["params"]):
        shape = doc["params"][name]["shape"]
        arrays[name] = np.frombuffer(blob, "<f8", math.prod(shape), end).reshape(shape)
        end += arrays[name].nbytes
    assert end == len(blob)
    doc, arrays = edit(doc, arrays)
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(np.asarray(arrays[name], "<f8").tobytes() for name in sorted(arrays))
    (out or path).write_bytes(b"TAGPARSE" + len(header).to_bytes(8, "little")
                              + header + payload)


def edit_header(edit):
    """An `edit_checkpoint` edit that changes the header doc in place."""
    def apply(doc, arrays):
        edit(doc)
        return doc, arrays
    return apply


@st.composite
def named_arrays(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4,
                          unique=True))
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    return {name: draw(hnp.arrays(np.float64, shapes, elements=st.floats()))
            for name in names}


@given(named_arrays())
@example({"special": np.array([-0.0, 0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan]),
          "scalar": np.array(-0.0), "empty": np.zeros((2, 0))})
def test_round_trip_property(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.ckpt", Path(tmp) / "second.ckpt"
        meta = {"names": sorted(arrays)}
        save_checkpoint(first, [ad.parameter(v, n) for n, v in arrays.items()], "x", meta)
        save_checkpoint(second, [ad.parameter(v.copy(), n)
                                 for n, v in reversed(list(arrays.items()))], "x", meta)
        assert first.read_bytes() == second.read_bytes()
        loaded, loaded_meta = load_checkpoint(first, expect_kind="x")
    assert loaded_meta == meta
    assert loaded.keys() == arrays.keys()
    for name, values in arrays.items():
        got = loaded[name]
        assert got.shape == values.shape
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.writeable and got.flags.owndata
        np.testing.assert_array_equal(got.view(np.uint64), values.view(np.uint64))


def test_duplicate_parameter_name_rejected(tmp_path):
    params = [ad.parameter(np.ones(2), "w"), ad.parameter(np.zeros(3), "w")]
    with pytest.raises(CheckpointError, match="^duplicate parameter name 'w'$"):
        save_checkpoint(tmp_path / "x.ckpt", params, kind="x")


def test_identical_params_identical_bytes(tmp_path):
    arr = np.random.default_rng(1).normal(size=(5, 5))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, [ad.parameter(arr, "w")], kind="x")
    save_checkpoint(b, [ad.parameter(arr.copy(), "w")], kind="x")
    assert a.read_bytes() == b.read_bytes()


def test_unsupported_format_version(tmp_path):
    path = tmp_path / "old.json"
    save_checkpoint(path, [ad.parameter(np.ones(2), "w")], kind="x")
    edit_checkpoint(path, edit_header(lambda doc: doc.update(format_version=99)))
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
    edit_checkpoint(path, edit_header(lambda doc: doc["params"]["w"].update(shape=[3, 3])))
    with pytest.raises(CheckpointError, match="w"):
        load_checkpoint(path)


# "values" stores three of the four values that shape [2, 2] needs
@pytest.mark.parametrize("field, value", [("shape", "2x2"), ("values", [0.0, 1.0, 2.0])])
def test_malformed_entry_named(tmp_path, field, value):
    path = tmp_path / "bad.json"
    save_checkpoint(path, [ad.parameter(np.ones((2, 2)), "w")], kind="x")

    def edit(doc, arrays):
        if field == "shape":
            doc["params"]["w"]["shape"] = value
        else:
            arrays["w"] = np.array(value)
        return doc, arrays

    edit_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match="parameter 'w': malformed"):
        load_checkpoint(path)


def _with_header(blob, header):
    """`blob` with its header bytes replaced by `header`, length field updated."""
    end = 16 + int.from_bytes(blob[8:16], "little")
    return blob[:8] + len(header).to_bytes(8, "little") + header + blob[end:]


V1_CHECKPOINT = json.dumps({"format_version": 1, "kind": "x", "meta": {},
                            "params": {"a": {"shape": [2], "values": [1.0, 2.0]}}})

# each case: the file's bytes from a valid checkpoint's, and the one-line message
MALFORMED_FILES = {
    "wrong magic": (lambda blob: b"TAGPARSX" + blob[8:],
                    "checkpoint does not start with b'TAGPARSE', "
                    "so it is not format_version 2"),
    "shorter than the preamble": (lambda blob: blob[:15],
                                  "checkpoint is 15 bytes, shorter than its "
                                  "16-byte preamble"),
    "empty": (lambda blob: b"",
              "checkpoint is 0 bytes, shorter than its 16-byte preamble"),
    "header length past the end": (
        lambda blob: blob[:8] + (len(blob) - 15).to_bytes(8, "little") + blob[16:],
        "checkpoint header of {n} bytes runs past the end of the {size}-byte file"),
    "header not UTF-8": (lambda blob: _with_header(blob, b'{"kind":"\xff"}'),
                         "checkpoint header is not UTF-8 JSON: 'utf-8' codec can't decode "
                         "byte 0xff in position 9: invalid start byte"),
    "header not JSON": (lambda blob: _with_header(blob, b"{kind: x}"),
                        "checkpoint header is not UTF-8 JSON: Expecting property name "
                        "enclosed in double quotes: line 1 column 2 (char 1)"),
    # 'a' holds 2 values and 'b' 3; 8 payload bytes are left, so 'a' runs past the end
    "payload ends inside a parameter": (
        lambda blob: blob[:-32],
        "parameter 'a': malformed payload, the file ends inside its values"),
    "bytes after the last parameter": (lambda blob: blob + bytes(8),
                                       "checkpoint has 8 bytes after its last parameter"),
    "version 1 JSON": (lambda blob: V1_CHECKPOINT.encode(),
                       "checkpoint does not start with b'TAGPARSE', "
                       "so it is not format_version 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_named(tmp_path, case):
    path = tmp_path / "bad.json"
    save_checkpoint(path, [ad.parameter(np.ones(3), "b"), ad.parameter(np.ones(2), "a")],
                    kind="x")
    transform, message = MALFORMED_FILES[case]
    blob = transform(path.read_bytes())
    path.write_bytes(blob)
    message = message.format(n=len(blob) - 15, size=len(blob))
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


def test_loaded_tagger_takes_an_adam_step(tmp_path):
    from tagparse.optim import Adam
    from tagparse.tagger import load_tagger, save_tagger
    from tests.test_tagger import small_params
    path = tmp_path / "tagger.json"
    save_tagger(path, small_params())
    params = load_tagger(path).parameters()
    before = [p.data.copy() for p in params]
    Adam(params, lr=0.1).step({p: np.ones_like(p.data) for p in params})
    for p, old in zip(params, before):
        assert not np.any(p.data == old), p.name


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


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_missing_parameter_named(tmp_path, kind):
    path, load = saved_models(tmp_path)[kind]
    name = f"{kind}.b_out"
    edit_checkpoint(path, lambda doc, arrays: (
        {**doc, "params": {k: v for k, v in doc["params"].items() if k != name}},
        {k: v for k, v in arrays.items() if k != name}))
    with pytest.raises(CheckpointError, match=f"lacks parameter '{name}'"):
        load(path)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_extra_parameter_named(tmp_path, kind):
    path, load = saved_models(tmp_path)[kind]
    stray = f"{kind}.stray"
    edit_checkpoint(path, lambda doc, arrays: (
        {**doc, "params": {**doc["params"], stray: {"shape": [2]}}},
        {**arrays, stray: np.array([0.0, 1.0])}))
    with pytest.raises(CheckpointError, match=f"unexpected parameter '{kind}.stray'"):
        load(path)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
def test_wrong_shape_named(tmp_path, kind):
    path, load = saved_models(tmp_path)[kind]
    name = f"{kind}.w_out"

    def transpose(doc, arrays):
        doc["params"][name]["shape"] = doc["params"][name]["shape"][::-1]
        return doc, {**arrays, name: arrays[name].T}

    edit_checkpoint(path, transpose)
    with pytest.raises(CheckpointError, match=f"parameter '{name}': checkpoint shape"):
        load(path)


def test_loading_draws_nothing(tmp_path, monkeypatch):
    from tests.test_parser import tiny_parser
    from tests.test_tagger import small_params
    saved = {"tagger": small_params(), "parser": tiny_parser()}   # as saved_models saves them

    def no_draws(*args):
        raise AssertionError("a loader drew initial values")

    models = saved_models(tmp_path)
    monkeypatch.setattr(ad, "glorot", no_draws)
    for kind, (path, load) in models.items():
        for want, got in zip(saved[kind].parameters(), load(path).parameters(), strict=True):
            assert got.name == want.name
            np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@st.composite
def parameter_faults(draw, shapes):
    """Edits of a checkpoint whose parameters have `shapes`: ({name: new shape or
    None to drop}, {added name: shape}), at least one of the two non-empty."""
    changed = draw(st.dictionaries(
        st.sampled_from(sorted(shapes)),
        st.none() | hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
        max_size=4))
    changed = {n: shape for n, shape in changed.items() if shape != shapes[n]}
    added = draw(st.dictionaries(
        st.text("abgprt._", min_size=1, max_size=10).filter(lambda n: n not in shapes),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3), max_size=3))
    assume(changed or added)
    return changed, added


def first_fault(model, stored):
    """The documented message for loading `stored` {name: shape} into `model`
    {name: shape}, the latter in model order: missing and misshapen parameters in
    model order, then the first unexpected name in sorted order."""
    for name, shape in model.items():
        if name not in stored:
            return f"checkpoint lacks parameter '{name}'"
        if stored[name] != shape:
            return f"parameter '{name}': checkpoint shape {stored[name]}, model expects {shape}"
    return f"checkpoint has unexpected parameter '{min(stored.keys() - model.keys())}'"


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """{kind: (checkpoint path, loader, {name: shape} in model order)}."""
    models = saved_models(tmp_path_factory.mktemp("models"))
    return {kind: (path, load, {p.name: p.data.shape for p in load(path).parameters()})
            for kind, (path, load) in models.items()}


@pytest.mark.parametrize("kind", ["tagger", "parser"])
@given(data=st.data())
def test_any_parameter_fault_names_the_first_one(tiny_models, kind, data):
    path, load, model = tiny_models[kind]
    changed, added = data.draw(parameter_faults(model))

    def edit(doc, arrays):
        for name, shape in {**changed, **added}.items():
            arrays.pop(name, None)
            if shape is not None:
                arrays[name] = np.zeros(shape)
        doc["params"] = {name: {"shape": list(a.shape)} for name, a in arrays.items()}
        return doc, arrays

    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.ckpt"
        edit_checkpoint(path, edit, out=edited)
        stored = {name: shape for name, shape in {**model, **changed, **added}.items()
                  if shape is not None}
        with pytest.raises(CheckpointError, match=f"^{re.escape(first_fault(model, stored))}$"):
            load(edited)


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
    edit_checkpoint(path, edit_header(lambda doc: edit(doc["meta"])))
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


# any JSON value, NaN and the infinities included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def meta_values(meta, key):
    """Values for meta `key`: any JSON, and near misses of the saved meta's own
    values: token lists over every vocabulary's and reserved token, the saved
    list permuted, the config with some fields replaced, and formalism names."""
    tokens = {"<unk>", "<s>", "</s>", "<null>", "<unk-symbol>"}
    for vocab in ("word_vocab", "out_vocab", "tag_vocab"):
        tokens.update(meta.get(vocab, []))
    tokens = sorted(tokens)
    near = [st.lists(st.sampled_from(tokens), max_size=12),
            st.sampled_from(["lambda", "sql", "prolog"]),
            st.dictionaries(st.sampled_from(sorted(meta["config"])),
                            json_values | st.integers(-1, 40), max_size=3)
            .map(lambda fields: {**meta["config"], **fields})]
    if isinstance(meta.get(key), list):
        near.append(st.permutations(meta[key]))
    return st.one_of(json_values, *near)


@pytest.mark.parametrize("kind", ["tagger", "parser"])
@given(data=st.data())
def test_any_meta_value_loads_or_raises_a_checkpoint_error(tiny_models, kind, data):
    path, load, _ = tiny_models[kind]
    key = data.draw(st.sampled_from(["word_vocab", "out_vocab", "tag_vocab", "formalism",
                                     "config"]))
    meta = {}

    def edit(doc):
        doc["meta"][key] = data.draw(meta_values(doc["meta"], key))
        meta.update(doc["meta"])

    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.ckpt"
        edit_checkpoint(path, edit_header(edit), out=edited)
        try:
            model = load(edited)
        except CheckpointError as e:
            assert "\n" not in str(e)
            return
    assert model.word_vocab.id2tok == meta["word_vocab"]
    assert model.tag_vocab.id2sym == meta["tag_vocab"]
    if kind == "parser":
        assert model.out_vocab.id2tok == meta["out_vocab"]
        assert model.formalism == meta["formalism"]
