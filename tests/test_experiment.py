import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from tagparse import __version__, experiment
from tagparse.data import gen_synthetic
from tagparse.experiment import (DEFAULT_SEEDS, ExperimentError, code_version,
                                 resolve_config, run_experiment)
from tests.test_synthetic import cartesian_grammar


def tiny_config(**overrides):
    config = {
        "seeds": [0, 1],
        "data": {"grammar": cartesian_grammar(2, 3, 1), "seed": 0},
        "split": {"mode": "question", "ratios": [0.5, 0.5]},
        "em": {"total_updates": 60, "soft_updates": 30, "batch_size": 4,
               "learning_rate": 0.02},
        "tagger": {"embedding_size": 8, "hidden_size": 8},
        "parser": {"word_embedding_size": 10, "tag_embedding_size": 10,
                   "hidden_size": 16, "epochs": 25, "batch_size": 3,
                   "learning_rate": 0.02},
        "decode": {"max_length": 30, "beam_size": 1},
    }
    config.update(overrides)
    return config


def tree_hashes(root):
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# --- config resolution ---

def test_resolve_defaults():
    config = resolve_config({})
    assert config["seeds"] == list(DEFAULT_SEEDS)
    assert config["models"] == ["tagged", "baseline"]
    assert config["split"] == {"mode": "query", "ratios": [0.7, 0.3]}
    assert type(config["split"]["ratios"]) is list
    assert config["data"] == {"grammar": None, "seed": 0}
    assert type(config["data"]["seed"]) is int
    assert config["anonymize"] is True
    assert config["workers"] == 1


def test_resolve_rejects_unknown_keys():
    with pytest.raises(ExperimentError, match="unknown"):
        resolve_config({"optimizer": "adam"})


def test_resolve_rejects_bad_subconfig():
    with pytest.raises(ExperimentError, match="invalid config"):
        resolve_config({"em": {"total_updates": 5, "soft_updates": 9}})
    with pytest.raises(ExperimentError, match="invalid config"):
        resolve_config({"parser": {"hidden_size": -1}})


def test_resolve_rejects_conflicting_data():
    with pytest.raises(ExperimentError, match="either"):
        resolve_config({"data": {"path": "x.jsonl", "grammar": {}}})


def test_resolve_rejects_bad_models_and_seeds():
    with pytest.raises(ExperimentError, match="models"):
        resolve_config({"models": ["tagged", "oracle"]})
    with pytest.raises(ExperimentError, match="seed"):
        resolve_config({"seeds": []})
    with pytest.raises(ExperimentError, match="workers"):
        resolve_config({"workers": 0})


@pytest.mark.parametrize("raw, message", [
    ({"seeds": [0, 0]}, "'seeds' must not hold a negative or repeated seed, got [0, 0]"),
    ({"seeds": [3, 1, 3]}, "'seeds' must not hold a negative or repeated seed, got [3, 1, 3]"),
    ({"seeds": [-1]}, "'seeds' must not hold a negative or repeated seed, got [-1]"),
    ({"models": ["tagged", "tagged"]},
     "'models' must not repeat a model, got ['tagged', 'tagged']"),
])
def test_resolve_rejects_repeated_and_negative_seeds_and_repeated_models(raw, message):
    # a repeated seed would write its directory twice and count twice in the
    # mean; a negative one would fail only after the manifest is written
    with pytest.raises(ExperimentError, match=f"^config key {re.escape(message)}$"):
        resolve_config(raw)


@pytest.mark.parametrize("key, value, kind", [
    ("anonymize", "no", "boolean"), ("anonymize", "false", "boolean"),
    ("anonymize", 0, "boolean"), ("workers", True, "integer"),
    ("workers", 2.7, "integer"), ("workers", "2", "integer"),
])
def test_resolve_rejects_mistyped_scalars(key, value, kind):
    with pytest.raises(ExperimentError, match=f"'{key}' must be a JSON {kind}"):
        resolve_config({key: value})


@pytest.mark.parametrize("raw, message", [
    ({"decode": {"beam_size": 2.5}},
     "section 'decode' field 'beam_size' must be a JSON integer, not float"),
    ({"parser": {"epochs": 1.5}}, "section 'parser' field 'epochs' must be a JSON integer"),
    ({"em": {"beta": True}}, "section 'em' field 'beta' must be a JSON number, not bool"),
    ({"tagger": [1]}, "config field 'tagger' must be a JSON object, not list"),
    ({"data": {"grammer": {}}}, "section 'data' has unknown field 'grammer'"),
    ({"data": {"seed": 2.7}}, "section 'data' field 'seed' must be a JSON integer, not float"),
    ({"data": {"seed": True}}, "section 'data' field 'seed' must be a JSON integer, not bool"),
    ({"data": {"path": 5}}, "section 'data' field 'path' must be a JSON string, not int"),
    ({"data": {"path": "x.jsonl", "seed": 1}}, "either 'path' or 'grammar' and 'seed'"),
    ({"split": {"moed": "query"}}, "section 'split' has unknown field 'moed'"),
    ({"split": {"mode": 1}}, "section 'split' field 'mode' must be a JSON string, not int"),
    ({"seeds": ["a"]}, "'seeds' must be a nonempty list of integers, got ['a']"),
    ({"seeds": [1.5]}, "'seeds' must be a nonempty list of integers, got [1.5]"),
    ({"seeds": [0, True]}, "'seeds' must be a nonempty list of integers, got [0, True]"),
    ({"optimizer": None}, "config has unknown field 'optimizer'"),
    ({"em": {"seed": 1}}, "section 'em' sets 'seed'"),
    ({"parser": {"seed": 1}}, "section 'parser' sets 'seed'"),
    ({"parser": {"use_tags": False}}, "section 'parser' sets 'use_tags'"),
])
def test_resolve_rejects_mistyped_and_unknown_section_fields(raw, message):
    with pytest.raises(ExperimentError, match=re.escape(message)):
        resolve_config(raw)


def test_resolve_takes_an_integer_for_a_number_field():
    config = resolve_config({"em": {"learning_rate": 1}, "data": {"seed": 3}})
    assert config["em"] == {"learning_rate": 1}
    assert config["data"] == {"grammar": None, "seed": 3}


def test_resolve_takes_scalars_as_given():
    config = resolve_config({"anonymize": False, "workers": 3})
    assert config["anonymize"] is False and config["workers"] == 3


def test_resolve_null_means_the_default():
    keys = ("seeds", "data", "anonymize", "split", "em", "tagger", "parser",
            "decode", "models", "workers")
    assert resolve_config(dict.fromkeys(keys)) == resolve_config({})


def test_code_version_is_nonempty():
    assert code_version().strip()


def test_code_version_outside_git_digests_the_sources(tmp_path, monkeypatch):
    package = Path(experiment.__file__).resolve().parent
    monkeypatch.setattr(experiment.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 128, "", ""))
    assert code_version() == f"v{__version__}+{experiment._source_digest(package)}"
    copy = tmp_path / "tagparse"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    before = experiment._source_digest(copy)
    assert before == experiment._source_digest(package)
    assert re.fullmatch(r"[0-9a-f]{12}", before)
    parser = copy / "parser.py"
    parser.write_text(parser.read_text() + "\n")
    assert experiment._source_digest(copy) != before


# --- full pipeline on a tiny corpus ---

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = tiny_config()
    results = run_experiment(config, out)
    return config, out, results


def test_run_writes_all_artifacts(tiny_run):
    _, out, _ = tiny_run
    assert (out / "manifest.json").is_file()
    assert (out / "report.tsv").is_file()
    for seed in (0, 1):
        seed_dir = out / f"seed{seed}"
        for name in ["split.json", "tagger.json", "tagger_log.tsv",
                     "parser_tagged.json", "parser_tagged_log.tsv",
                     "parser_baseline.json", "parser_baseline_log.tsv",
                     "predictions_tagged.jsonl", "predictions_baseline.jsonl",
                     "report_tagged.json", "report_baseline.json"]:
            assert (seed_dir / name).is_file(), name


def test_manifest_records_config_and_version(tiny_run):
    config, out, _ = tiny_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format_version"] == 1
    assert manifest["config"] == resolve_config(config)
    assert manifest["code_version"] == code_version()
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"]["name"] and env["blas"]["version"]
    assert env["threads"] == {var: os.environ.get(var) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_paired_models_report_per_seed_and_mean(tiny_run):
    _, out, results = tiny_run
    assert set(results) == {"tagged", "baseline"}
    for rows in results.values():
        assert [r["seed"] for r in rows] == [0, 1, "mean"]
    table = (out / "report.tsv").read_text().strip().split("\n")
    header = table[0].split("\t")
    assert header[0] == "model"
    assert len(table) == 1 + 6    # two models x (2 seeds + mean)


def test_predictions_align_with_test_section(tiny_run):
    config, out, _ = tiny_run
    corpus = gen_synthetic(config["data"]["grammar"], seed=0)
    for seed in (0, 1):
        split = json.loads((out / f"seed{seed}" / "split.json").read_text())
        want = split["sections"]["test"]
        rows = [json.loads(line) for line in
                (out / f"seed{seed}" / "predictions_tagged.jsonl")
                .read_text().splitlines()]
        assert [r["id"] for r in rows] == want
        assert set(want) < {ex.example_id for ex in corpus}
        for r in rows:
            assert {"tags", "prediction", "anonymized_prediction", "gold",
                    "exact_match", "truncated"} <= set(r)


def test_report_rates_partition(tiny_run):
    _, out, _ = tiny_run
    for model in ("tagged", "baseline"):
        doc = json.loads((out / "seed0" / f"report_{model}.json").read_text())
        total = doc["accuracy"] + sum(doc["error_rates"].values())
        assert abs(total - 1.0) <= 1e-12
        assert "per_template" in doc
        assert "anonymized_accuracy" in doc


def test_rerun_is_bit_identical(tmp_path):
    config = tiny_config(seeds=[0], models=["tagged"])
    run_experiment(config, tmp_path / "a")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run_experiment(config_path, tmp_path / "b")
    assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")


def test_worker_pool_matches_sequential(tmp_path):
    config = tiny_config(models=["tagged"])
    run_experiment(config, tmp_path / "seq")
    run_experiment({**config, "workers": 2}, tmp_path / "par")
    seq = tree_hashes(tmp_path / "seq")
    par = tree_hashes(tmp_path / "par")
    del seq["manifest.json"], par["manifest.json"]   # configs differ by workers
    assert seq == par


def test_stage_failure_names_stage_and_keeps_partial_logs(tmp_path):
    # One template cannot satisfy a two-way query split.
    config = tiny_config(data={"grammar": cartesian_grammar(1, 3, 1)},
                         split={"mode": "query", "ratios": [0.5, 0.5]})
    with pytest.raises(ExperimentError, match=r"stage split failed for seed 0"):
        run_experiment(config, tmp_path)
    assert (tmp_path / "manifest.json").is_file()


def test_rejects_invalid_config_file(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    with pytest.raises(ExperimentError, match="JSON"):
        run_experiment(bad, tmp_path / "out")


def test_unanonymized_pipeline(tmp_path):
    config = tiny_config(seeds=[0], models=["tagged"], anonymize=False)
    run_experiment(config, tmp_path)
    rows = [json.loads(line) for line in
            (tmp_path / "seed0" / "predictions_tagged.jsonl")
            .read_text().splitlines()]
    for r in rows:
        assert r["prediction"] == r["anonymized_prediction"]
