"""Smoke test of the benchmark at small sizes.

Run from the repository root:

    python3 -m pytest perfbench -q

It checks that each workload prints every end-to-end metric that applies
to it and every per-layer metric, each with its unit, that the JSON line
carries the metrics BENCHMARK.json declares, that no operation fails with
models trained as the benchmark trains them, that failed parses and a
diverging training stage are counted as failed operations, and that the
command refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

# Models trained as in BENCH, so no operation fails; few parses per run.
SMALL = dict(em_updates=200, parser_epochs=4, min_parses=12, parse_limit=12,
             parse_max_length=150,
             checkpoint_parser={"word_embedding_size": 8, "tag_embedding_size": 8,
                                "hidden_size": 8},
             checkpoint_tagger={"embedding_size": 8, "hidden_size": 8},
             min_reps=1)
# Barely trained models, whose parses come back truncated or malformed.
TINY = dict(SMALL, em_updates=10, parser_epochs=1, min_parses=6, parse_limit=6,
            parse_max_length=10)

COMMON = {"setup_s": "s", "wall_s": "s", "checkpoint_mb": "MB",
          "peak_rss_mb": "MB", "failure_rate": "ratio"}
END_TO_END = {
    "query_seed": {**COMMON, "em_updates_per_s": "1/s",
                   "train_examples_per_s": "1/s", "parse_examples_per_s": "1/s",
                   "parse_p50_ms": "ms", "exact_match": "ratio",
                   "exact_match_baseline": "ratio", "tag_accuracy": "ratio"},
    "parse_beam5": {**COMMON, "parse_examples_per_s": "1/s", "parse_p50_ms": "ms",
                    "parse_p95_ms": "ms", "exact_match": "ratio"},
    "checkpoint_default": {**COMMON, "checkpoint_save_s": "s",
                           "checkpoint_load_s": "s"},
}

# Per-layer metrics that must be non-zero on a workload (the rest may be 0).
EXERCISED = {
    "query_seed": ["autodiff.backward.self_ms", "autodiff.backward.share",
                   "autodiff.tensors_per_train_example",
                   "autodiff.tensors_per_em_example", "optim.adam_step.self_ms",
                   "optim.adam_step.calls", "nn.encode.self_ms",
                   "nn.lstm_step.calls_per_example",
                   "tagger.tag_distribution.self_ms", "em.posteriors.self_ms",
                   "em.train_tagger.s", "parser.train_parser.s",
                   "parser.train.forward_ms_per_example", "parser.decode.self_ms",
                   "evaluation.evaluate.ms", "data.gen_synthetic.ms",
                   "data.make_split.ms", "data.anonymize.ms",
                   "experiment.stage.split.s", "experiment.stage.train_tagger.s",
                   "experiment.stage.train_parser_tagged.s",
                   "experiment.stage.train_parser_baseline.s",
                   "experiment.stage.parse_tagged.s",
                   "experiment.stage.parse_baseline.s",
                   "experiment.stage.evaluate.s"],
    "parse_beam5": ["autodiff.tensors_per_parse", "nn.encode.self_ms",
                    "nn.lstm_step.calls_per_parse", "tagger.predict_tags.ms",
                    "parser.decode.self_ms",
                    "parser.decode.lstm_steps_per_output_token",
                    "evaluation.evaluate.ms", "checkpoint.load.parser.ms",
                    "checkpoint.load.tagger.ms", "data.gen_synthetic.ms",
                    "data.make_split.ms", "data.anonymize.ms"],
    "checkpoint_default": ["checkpoint.save.parser.ms", "checkpoint.save.tagger.ms",
                           "checkpoint.load.parser.ms", "checkpoint.load.tagger.ms",
                           "checkpoint.bytes.parser", "checkpoint.bytes.tagger"],
}
# Training never runs in parse_beam5's timed phase.
ABSENT = {"parse_beam5": ["autodiff.backward.self_ms", "optim.adam_step.calls"]}


@pytest.fixture(scope="module")
def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]},
            [w["name"] for w in doc["workloads"]])


@pytest.fixture(scope="module")
def workloads():
    return bench.load_program(ROOT)


def _printed(lines, kind):
    out = {}
    for line in lines:
        if line.startswith(kind + " "):
            _, name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


def test_declared_workloads_match(declared):
    assert list(END_TO_END) == list(bench.WORKLOAD_NAMES)
    assert set(declared[2]) <= set(bench.WORKLOAD_NAMES)
    assert declared[0] == bench.GATED


@pytest.mark.parametrize("name", list(END_TO_END))
def test_timed_run_prints_end_to_end_metrics(name, declared, workloads, tmp_path):
    lines, result = bench.execute(workloads, name, 0, 0.01, False, tmp_path,
                                  workloads.Sizes(**SMALL))
    printed = _printed(lines, "metric")
    for metric, unit in END_TO_END[name].items():
        assert printed[metric][1] == unit, metric
    assert printed["failure_rate"][0] == 0.0
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[0]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(END_TO_END))
def test_traced_run_prints_per_layer_metrics(name, declared, workloads, tmp_path):
    lines, result = bench.execute(workloads, name, 0, 0.01, True, tmp_path,
                                  workloads.Sizes(**TINY))
    printed = _printed(lines, "layer")
    assert {k: u for k, (v, u) in printed.items()} == declared[1]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[1]
    for metric in EXERCISED[name]:
        assert printed[metric][0] > 0, metric
    for metric in ABSENT.get(name, []):
        assert printed[metric][0] == 0, metric
    assert result["correct"], lines
    assert (tmp_path / bench.OUT_DIR / f"trace-{name}-seed0.json").is_file()
    # barely trained parsers fail, and every failed parse is counted
    if name != "checkpoint_default":
        assert result["failed"] > 0, lines


def test_diverging_stage_is_a_failed_operation(workloads, tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise workloads.tp_parser.ParserError("loss diverged at epoch 0")

    monkeypatch.setattr(workloads.tp_exp, "train_parser", diverge)
    lines, result = bench.execute(workloads, "query_seed", 0, 0.01, False,
                                  tmp_path, workloads.Sizes(**TINY))
    assert result["failed"] == result["attempted"] >= 1, lines
    assert _printed(lines, "metric")["failure_rate"][0] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_seed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
