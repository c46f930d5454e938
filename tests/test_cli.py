import json

import pytest

from tagparse.cli import main
from tagparse.tagger import TaggerConfig, TagVocabulary, init_tagger, load_tagger, save_tagger
from tests.test_checkpoint import edit_checkpoint, edit_header
from tests.test_experiment import tiny_config
from tests.test_synthetic import cartesian_grammar

LAMBDA_MEANING = ("( lambda $0 e ( and ( oneway $0 ) ( from $0 columbus:ci ) "
                  "( to $0 chicago:ci ) ( day $0 thursday:da ) ) )")
SQL_MEANING = 'select area from state where state_name = "washington"'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Artifacts from one full command chain on a tiny corpus."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "grammar": root / "grammar.json",
        "em": root / "em.json",
        "tcfg": root / "tcfg.json",
        "pcfg": root / "pcfg.json",
        "corpus": root / "corpus.jsonl",
        "split": root / "split.json",
        "tagger": root / "tagger.json",
        "parser": root / "parser.json",
        "baseline": root / "baseline.json",
        "pred": root / "pred.jsonl",
        "pred_base": root / "pred_base.jsonl",
        "report": root / "report.json",
    }
    paths["grammar"].write_text(json.dumps(cartesian_grammar(2, 3, 1)))
    paths["em"].write_text(json.dumps({"seed": 0, "total_updates": 80, "soft_updates": 40,
                                       "batch_size": 4, "learning_rate": 0.02}))
    paths["tcfg"].write_text(json.dumps({"embedding_size": 8, "hidden_size": 8}))
    paths["pcfg"].write_text(json.dumps({"word_embedding_size": 10, "tag_embedding_size": 10,
                                         "hidden_size": 16, "epochs": 30, "batch_size": 3,
                                         "learning_rate": 0.02, "seed": 0}))
    steps = [
        ["gen-synthetic", "--grammar", str(paths["grammar"]), "--seed", "0",
         "--out", str(paths["corpus"])],
        ["split", "--corpus", str(paths["corpus"]), "--mode", "question",
         "--ratios", "0.5,0.5", "--seed", "0", "--out", str(paths["split"])],
        ["train-tagger", "--corpus", str(paths["corpus"]),
         "--split", str(paths["split"]), "--config", str(paths["em"]),
         "--model-config", str(paths["tcfg"]), "--out", str(paths["tagger"])],
        ["train-parser", "--corpus", str(paths["corpus"]),
         "--split", str(paths["split"]), "--tagger", str(paths["tagger"]),
         "--config", str(paths["pcfg"]), "--out", str(paths["parser"])],
        ["train-parser", "--corpus", str(paths["corpus"]),
         "--split", str(paths["split"]), "--baseline",
         "--config", str(paths["pcfg"]), "--out", str(paths["baseline"])],
        ["parse", "--corpus", str(paths["corpus"]),
         "--split", str(paths["split"]), "--tagger", str(paths["tagger"]),
         "--parser", str(paths["parser"]), "--beam", "2",
         "--max-length", "30", "--out", str(paths["pred"])],
        ["parse", "--corpus", str(paths["corpus"]),
         "--split", str(paths["split"]), "--parser", str(paths["baseline"]),
         "--beam", "1", "--max-length", "30",
         "--out", str(paths["pred_base"])],
        ["evaluate", "--predictions", str(paths["pred"]),
         "--gold", str(paths["corpus"]), "--split", str(paths["split"]),
         "--per-template", "--out", str(paths["report"])],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return paths


def test_pipeline_writes_artifacts(pipeline):
    for name in ("corpus", "split", "tagger", "parser", "baseline", "pred",
                 "pred_base", "report"):
        assert pipeline[name].is_file(), name


def test_pipeline_report_partitions(pipeline):
    doc = json.loads(pipeline["report"].read_text())
    assert doc["total"] == 3
    total = doc["accuracy"] + sum(doc["error_rates"].values())
    assert abs(total - 1.0) <= 1e-12
    assert "per_template" in doc


def test_pipeline_predictions_schema(pipeline):
    rows = [json.loads(l) for l in pipeline["pred"].read_text().splitlines()]
    split = json.loads(pipeline["split"].read_text())
    assert [r["id"] for r in rows] == split["sections"]["test"]
    for r in rows:
        assert {"tags", "prediction", "gold", "exact_match"} <= set(r)
    base = [json.loads(l) for l in
            pipeline["pred_base"].read_text().splitlines()]
    assert all(r["tags"] == [] for r in base)


def test_tag_command_emits_tag_names(pipeline, capsys):
    code, out, _ = run_cli(capsys, "tag", "--corpus", str(pipeline["corpus"]),
                           "--split", str(pipeline["split"]),
                           "--checkpoint", str(pipeline["tagger"]))
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) == 3
    for r in rows:
        assert len(r["tags"]) == len(r["tokens"])
        assert "ci0" in r["tokens"]          # anonymized by default


def test_tag_command_tags_the_section_in_one_call(pipeline, capsys, monkeypatch):
    import tagparse.cli as cli_module
    predict, calls = cli_module.predict_tags, []

    def counting_predict(params, utterances):
        calls.append(len(utterances))
        return predict(params, utterances)

    monkeypatch.setattr(cli_module, "predict_tags", counting_predict)
    code, _, _ = run_cli(capsys, "tag", "--corpus", str(pipeline["corpus"]),
                         "--split", str(pipeline["split"]),
                         "--checkpoint", str(pipeline["tagger"]))
    assert code == 0
    assert calls == [3]


def test_tag_command_on_empty_corpus_prints_nothing(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run_cli(capsys, "tag", "--corpus", str(empty),
                             "--checkpoint", str(pipeline["tagger"]))
    assert (code, out, err) == (0, "", "")


def test_extract_symbols_reproduces_worked_rows(capsys):
    code, out, _ = run_cli(capsys, "extract-symbols",
                           "--meaning", LAMBDA_MEANING, "--formalism", "lambda")
    assert code == 0
    assert json.loads(out) == {"symbols": ["day", "from", "oneway", "to"]}
    code, out, _ = run_cli(capsys, "extract-symbols",
                           "--meaning", SQL_MEANING, "--formalism", "sql")
    assert code == 0
    assert json.loads(out) == {"symbols": ["area", "state_name"]}


def test_extract_symbols_corpus_mode(pipeline, capsys):
    code, out, _ = run_cli(capsys, "extract-symbols",
                           "--corpus", str(pipeline["corpus"]))
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) == 6
    assert all({"id", "symbols"} <= set(r) for r in rows)


def test_gen_synthetic_default_sql_grammar(tmp_path, capsys):
    out = tmp_path / "sql.jsonl"
    code, _, _ = run_cli(capsys, "gen-synthetic", "--formalism", "sql",
                         "--seed", "3", "--out", str(out))
    assert code == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["formalism"] == "sql"


def test_train_tagger_requires_seed(pipeline, tmp_path, capsys):
    code, _, err = run_cli(capsys, "train-tagger",
                           "--corpus", str(pipeline["corpus"]),
                           "--out", str(tmp_path / "t.json"))
    assert code == 1
    assert "seed" in err


def test_train_tagger_config_without_seed_is_one_line_error(pipeline, tmp_path, capsys):
    config = tmp_path / "em.json"
    config.write_text(json.dumps({"total_updates": 80, "soft_updates": 40}))
    code, _, err = run_cli(capsys, "train-tagger", "--corpus", str(pipeline["corpus"]),
                           "--config", str(config), "--out", str(tmp_path / "t.json"))
    assert code == 1
    assert err.splitlines() == ["error: give --seed or a config file with a seed"]


def test_train_parser_requires_tagger_unless_baseline(pipeline, tmp_path,
                                                      capsys):
    code, _, err = run_cli(capsys, "train-parser",
                           "--corpus", str(pipeline["corpus"]),
                           "--config", str(pipeline["pcfg"]),
                           "--out", str(tmp_path / "p.json"))
    assert code == 1
    assert "--tagger" in err or "--baseline" in err


@pytest.mark.parametrize("use_tags, baseline", [(False, []), (True, ["--baseline"])])
def test_train_parser_config_may_not_set_use_tags(use_tags, baseline, pipeline, tmp_path,
                                                  capsys):
    # only --baseline chooses the model; the small sizes keep a wrongly
    # accepted file quick to train
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"use_tags": use_tags, "epochs": 1, "hidden_size": 4,
                                "word_embedding_size": 4, "tag_embedding_size": 4}))
    code, _, err = run_cli(capsys, "train-parser", "--corpus", str(pipeline["corpus"]),
                           "--tagger", str(pipeline["tagger"]), *baseline, "--seed", "0",
                           "--config", str(path), "--out", str(tmp_path / "p.json"))
    assert code == 1
    assert err.splitlines() == [
        f"error: --config {path} sets 'use_tags', which only --baseline chooses"]


def test_split_with_mistyped_corpus_line_is_one_line_error(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    rows = pipeline["corpus"].read_text().splitlines()
    record = {**json.loads(rows[0]), "utterance": 5}
    corpus.write_text("\n".join([rows[0], json.dumps(record)]) + "\n")
    code, _, err = run_cli(capsys, "split", "--corpus", str(corpus), "--mode", "query",
                           "--out", str(tmp_path / "split.json"))
    assert code == 1
    assert err.splitlines() == [
        "error: line 2: field 'utterance' must be a JSON string, not int"]


def test_gen_synthetic_with_malformed_grammar_is_one_line_error(tmp_path, capsys):
    grammar = cartesian_grammar(2, 2, 1)
    del grammar["templates"][0]["meaning"]
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(grammar))
    code, _, err = run_cli(capsys, "gen-synthetic", "--grammar", str(path),
                           "--out", str(tmp_path / "corpus.jsonl"))
    assert code == 1
    assert err.splitlines() == ["error: templates[0] needs a string 'meaning'"]


# an integer field of each training config; INT in a case below stands for it
INT_FIELD = {("train-tagger", "--config"): "batch_size",
             ("train-tagger", "--model-config"): "hidden_size",
             ("train-parser", "--config"): "hidden_size"}
BAD_CONFIGS = {
    "unknown field": ({"dropout": 1}, "has unknown field 'dropout'"),
    "not an object": ([1], "is a JSON list, not an object"),
    "float for an integer": ({"INT": 2.5}, "field 'INT' must be a JSON integer, not float"),
    "boolean for an integer": ({"INT": True}, "field 'INT' must be a JSON integer, not bool"),
}


@pytest.mark.parametrize("command,flag", [("train-tagger", "--config"),
                                          ("train-tagger", "--model-config"),
                                          ("train-parser", "--config")])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_training_config_is_one_line_error(command, flag, case, pipeline, tmp_path,
                                               capsys):
    fields, message = BAD_CONFIGS[case]
    field = INT_FIELD[command, flag]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields).replace("INT", field))
    baseline = ["--baseline"] if command == "train-parser" else []
    code, _, err = run_cli(capsys, command, "--corpus", str(pipeline["corpus"]),
                           "--seed", "0", *baseline, flag, str(path),
                           "--out", str(tmp_path / "out.json"))
    assert code == 1
    assert err.splitlines() == [f"error: {flag} {path} {message.replace('INT', field)}"]


@pytest.mark.parametrize("command,fields,message", [
    pytest.param("train-tagger", {"log_every": 0}, "log_every must be >= 1, got 0",
                 id="tagger-log_every-0"),
    pytest.param("train-tagger", {"log_every": -3}, "log_every must be >= 1, got -3",
                 id="tagger-log_every-negative"),
    pytest.param("train-tagger", {"learning_rate": float("nan")},
                 "learning_rate must be finite and > 0, got nan", id="tagger-nan"),
    pytest.param("train-tagger", {"learning_rate": float("inf")},
                 "learning_rate must be finite and > 0, got inf", id="tagger-inf"),
    pytest.param("train-parser", {"learning_rate": float("nan")},
                 "learning_rate must be finite and > 0, got nan", id="parser-nan"),
    pytest.param("train-parser", {"learning_rate": float("-inf")},
                 "learning_rate must be finite and > 0, got -inf", id="parser-minus-inf"),
])
def test_training_config_out_of_range_is_one_line_error(command, fields, message, pipeline,
                                                        tmp_path, capsys):
    # json reads NaN and Infinity as floats; training must not start on them.
    # The small sizes keep a wrongly accepted file quick to train
    small = ({"total_updates": 2, "soft_updates": 1} if command == "train-tagger" else
             {"epochs": 1, "hidden_size": 4, "word_embedding_size": 4})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**small, **fields}))
    baseline = ["--baseline"] if command == "train-parser" else []
    code, _, err = run_cli(capsys, command, "--corpus", str(pipeline["corpus"]),
                           "--split", str(pipeline["split"]), "--seed", "0", *baseline,
                           "--config", str(path), "--log", str(tmp_path / "log.tsv"),
                           "--out", str(tmp_path / "out.json"))
    assert code == 1
    assert err.splitlines() == [f"error: --config {path}: {message}"]


def test_parse_tagged_checkpoint_requires_tagger(pipeline, capsys):
    code, _, err = run_cli(capsys, "parse",
                           "--corpus", str(pipeline["corpus"]),
                           "--parser", str(pipeline["parser"]))
    assert code == 1
    assert "--tagger" in err


def test_parse_with_another_corpus_tagger_is_one_line_error(pipeline, tmp_path, capsys):
    # a tagger whose tag ids name other symbols than the parser was trained on
    other = tmp_path / "other_tagger.json"
    words = load_tagger(pipeline["tagger"]).word_vocab
    save_tagger(other, init_tagger(words, TagVocabulary(["latest", "cheapest"]),
                                   TaggerConfig(8, 8)))
    code, _, err = run_cli(capsys, "parse",
                           "--corpus", str(pipeline["corpus"]),
                           "--tagger", str(other), "--parser", str(pipeline["parser"]))
    assert code == 1
    assert err.splitlines() == ["error: the tagger's tag vocabulary differs from the one "
                                "this parser was trained with"]


def test_parse_with_bad_checkpoint_is_one_line_error(pipeline, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    edit_checkpoint(pipeline["baseline"], lambda d, a: (
        {**d, "params": _without(d["params"], "parser.w_att")},
        _without(a, "parser.w_att")), out=broken)
    code, _, err = run_cli(capsys, "parse",
                           "--corpus", str(pipeline["corpus"]),
                           "--parser", str(broken))
    assert code == 1
    assert err.splitlines() == ["error: checkpoint lacks parameter 'parser.w_att'"]


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# each edit takes and returns (header doc, {name: array}); see edit_checkpoint
MALFORMED_CHECKPOINTS = {
    "meta without word_vocab": (
        lambda d, a: ({**d, "meta": _without(d["meta"], "word_vocab")}, a),
        "checkpoint meta lacks 'word_vocab'"),
    "unknown config field": (
        lambda d, a: ({**d, "meta": {**d["meta"],
                                     "config": {**d["meta"]["config"], "dropout": 0.5}}}, a),
        "checkpoint config has unknown field 'dropout'"),
    "no params": (
        lambda d, a: (_without(d, "params"), a),
        "checkpoint has no 'params' object"),
    "json list": (
        lambda d, a: ([d], a),
        "checkpoint is a JSON list, not an object"),
    "entry without shape": (
        lambda d, a: ({**d, "params": {**d["params"],
                                       "parser.w_att": _without(d["params"]["parser.w_att"],
                                                                "shape")}}, a),
        "parameter 'parser.w_att' lacks 'shape'"),
    # parser.word_emb is the last parameter in sorted-name order
    "truncated payload": (
        lambda d, a: (d, {**a, "parser.word_emb": a["parser.word_emb"].ravel()[:-1]}),
        "parameter 'parser.word_emb': malformed payload, the file ends inside its values"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_parse_with_malformed_checkpoint_is_one_line_error(case, pipeline, tmp_path,
                                                           capsys):
    edit, message = MALFORMED_CHECKPOINTS[case]
    broken = tmp_path / "broken.json"
    edit_checkpoint(pipeline["baseline"], edit, out=broken)
    code, _, err = run_cli(capsys, "parse",
                           "--corpus", str(pipeline["corpus"]),
                           "--parser", str(broken))
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]


# (checkpoint, edit of its meta in place, error); the command loading it is
# `tag` for the tagger and `parse` for the baseline parser
BAD_META = {
    "tagger word_vocab empty": (
        "tagger", lambda m: m.update(word_vocab=[]),
        "checkpoint meta 'word_vocab' does not start with ['<unk>']"),
    "parser word_vocab a number": (
        "baseline", lambda m: m.update(word_vocab=3),
        "checkpoint meta 'word_vocab' is not a list of distinct strings"),
    "parser tag_vocab a number": (
        "baseline", lambda m: m.update(tag_vocab=3),
        "checkpoint meta 'tag_vocab' is not a list of distinct strings"),
    "parser out_vocab without end marker": (
        "baseline",
        lambda m: m.update(out_vocab=["</end>" if t == "</s>" else t for t in m["out_vocab"]]),
        "checkpoint meta 'out_vocab' lacks '</s>'"),
    "parser formalism unknown": (
        "baseline", lambda m: m.update(formalism="prolog"),
        "checkpoint meta 'formalism' is not one of ['lambda', 'sql']"),
}


@pytest.mark.parametrize("case", sorted(BAD_META))
def test_checkpoint_with_bad_meta_is_one_line_error(case, pipeline, tmp_path, capsys):
    model, edit, message = BAD_META[case]
    broken = tmp_path / "broken.json"
    edit_checkpoint(pipeline[model], edit_header(lambda doc: edit(doc["meta"])), out=broken)
    command, flag = ("tag", "--checkpoint") if model == "tagger" else ("parse", "--parser")
    code, _, err = run_cli(capsys, command, "--corpus", str(pipeline["corpus"]),
                           flag, str(broken))
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]


def test_evaluate_reports_id_mismatch(pipeline, tmp_path, capsys):
    broken = tmp_path / "broken.jsonl"
    rows = pipeline["pred"].read_text().splitlines()
    broken.write_text("\n".join(rows[:-1]) + "\n")
    code, _, err = run_cli(capsys, "evaluate",
                           "--predictions", str(broken),
                           "--gold", str(pipeline["corpus"]),
                           "--split", str(pipeline["split"]))
    assert code == 1
    assert "missing predictions" in err


BAD_PREDICTION_LINES = {
    "a number": ("5", "5"),
    "null": ("null", "None"),
    "a list id": ('{"id": [1], "prediction": "a"}', "[1]"),
    "a number prediction": ('{"id": 1, "prediction": 5}', "'prediction': 5"),
    "a null prediction": ('{"id": 1, "prediction": null}', "'prediction': None"),
    "a list prediction": ('{"id": 1, "prediction": ["a"]}', "'prediction': ['a']"),
    "a number anonymized prediction": ('{"id": 1, "prediction": "a", '
                                       '"anonymized_prediction": 7}',
                                       "'anonymized_prediction': 7"),
}


@pytest.mark.parametrize("case", list(BAD_PREDICTION_LINES))
def test_evaluate_bad_prediction_line_is_one_line_error(case, pipeline, tmp_path,
                                                        capsys):
    line, shown = BAD_PREDICTION_LINES[case]
    broken = tmp_path / "broken.jsonl"
    rows = pipeline["pred"].read_text().splitlines()
    broken.write_text("\n".join([rows[0], line, *rows[1:]]) + "\n")
    code, _, err = run_cli(capsys, "evaluate",
                           "--predictions", str(broken),
                           "--gold", str(pipeline["corpus"]),
                           "--split", str(pipeline["split"]))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {broken}:2: ") and shown in err


def test_run_experiment_command(tmp_path, capsys):
    config = {
        "seeds": [0],
        "models": ["tagged"],
        "data": {"grammar": cartesian_grammar(2, 3, 1), "seed": 0},
        "split": {"mode": "question", "ratios": [0.5, 0.5]},
        "em": {"total_updates": 60, "soft_updates": 30, "batch_size": 4,
               "learning_rate": 0.02},
        "tagger": {"embedding_size": 8, "hidden_size": 8},
        "parser": {"word_embedding_size": 10, "tag_embedding_size": 10,
                   "hidden_size": 16, "epochs": 20, "batch_size": 3,
                   "learning_rate": 0.02},
        "decode": {"max_length": 30, "beam_size": 1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "run-experiment",
                           "--config", str(config_path),
                           "--out", str(out_dir))
    assert code == 0
    assert "tagged: mean exact match" in out
    assert (out_dir / "report.tsv").is_file()


@pytest.mark.parametrize("change", [{"seeds": [0, 0]}, {"seeds": [-1]},
                                    {"models": ["tagged", "tagged"]}])
def test_run_experiment_refuses_repeated_or_negative_seeds_and_repeated_models(
        change, tmp_path, capsys):
    # before any artifact is written: a repeated seed would write its directory
    # twice and count twice in the mean, a negative one fails at its split
    config_path, out_dir = tmp_path / "config.json", tmp_path / "run"
    config_path.write_text(json.dumps(tiny_config(**{"models": ["tagged"], **change})))
    code, _, err = run_cli(capsys, "run-experiment", "--config", str(config_path),
                           "--out", str(out_dir))
    assert code == 1
    key = next(iter(change))
    assert err.startswith(f"error: config key '{key}' must not ") and len(err.splitlines()) == 1
    assert not out_dir.exists()


BAD_EXPERIMENT_CONFIGS = {
    "invalid JSON": "{oops",
    "em a list": '{"em": [1]}',
    "split a list": '{"split": [1]}',
    "data a list": '{"data": [1]}',
    "decode a number": '{"decode": 5}',
    "seeds a number": '{"seeds": 3}',
    "models a number": '{"models": 3}',
    "anonymize a string": '{"anonymize": "no"}',
    "workers a float": '{"workers": 2.7}',
    "data with a misspelled key": '{"data": {"grammer": {}}}',
}


@pytest.mark.parametrize("case", list(BAD_EXPERIMENT_CONFIGS))
def test_bad_experiment_config_exits_nonzero(case, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_EXPERIMENT_CONFIGS[case])
    code, _, err = run_cli(capsys, "run-experiment", "--config", str(bad),
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    key = case.split()[0]
    if key != "invalid":
        assert f"'{key}'" in err


@pytest.mark.parametrize("split, message", [
    ({}, "split PATH: SplitSpec.__init__() missing 3 required positional arguments: "
         "'mode', 'seed', and 'sections'"),
    ({"mode": "query", "seed": 0, "sections": {"test": "abc"}},
     "split PATH: section 'test' is not a list of integer ids"),
    ({"mode": "query", "seed": 0, "sections": {"test": [99999]}},
     "split section 'test' names example id 99999, which the corpus lacks"),
])
def test_bad_split_file_is_one_line_error(split, message, pipeline, tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split))
    code, _, err = run_cli(capsys, "evaluate", "--predictions", str(pipeline["pred"]),
                           "--gold", str(pipeline["corpus"]), "--split", str(path))
    assert code == 1
    assert err.splitlines() == [f"error: {message.replace('PATH', str(path))}"]


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
