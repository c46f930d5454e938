"""Multi-seed experiment pipeline.

A JSON config names the data, the split, the training settings, and the
models to compare ("tagged" runs the tag-augmented parser, "baseline"
the same architecture without tag inputs).  Each seed runs the full
pipeline: split the corpus, train the tagger, train each parser on the
tagger's predicted tags, decode the test section, and score it.  All
artifacts land under one output directory (the two checkpoint kinds are
binary files despite their `.json` names; see `checkpoint`):

    manifest.json                   resolved config, code version and
                                    numeric environment
    report.tsv                      per-seed and mean rows per model
    seed<k>/split.json
    seed<k>/tagger.json             checkpoint
    seed<k>/tagger_log.tsv
    seed<k>/parser_<model>.json     checkpoint
    seed<k>/parser_<model>_log.tsv
    seed<k>/predictions_<model>.jsonl
    seed<k>/report_<model>.json

Outputs carry no timestamps, so a rerun with the same config and code
reproduces every file bit for bit.  Seeds are independent; they can run
in parallel worker processes, with aggregation as a final serial step.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import config_from_fields
from .data import anonymize_entities, gen_synthetic, load_corpus
from .data.splits import DEFAULT_RATIOS, make_split
from .em import EmConfig, train_tagger
from .evaluation import aggregate_reports, evaluate, exact_match, report_table
from .parser import (DecodeConfig, ParserConfig, parse, save_parser,
                     train_parser)
from .tagger import TaggerConfig, save_tagger

__all__ = ["ExperimentError", "DEFAULT_SEEDS", "MODELS", "resolve_config",
           "code_version", "predict_records", "run_experiment"]

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
MODELS = ("tagged", "baseline")


class ExperimentError(RuntimeError):
    pass


@dataclass(frozen=True)
class _Config:
    """The keys of an experiment config and their JSON types."""
    seeds: list = DEFAULT_SEEDS
    data: dict = None
    anonymize: bool = True
    split: dict = None
    em: dict = None
    tagger: dict = None
    parser: dict = None
    decode: dict = None
    models: list = MODELS
    workers: int = 1


@dataclass(frozen=True)
class _Data:
    """A corpus file `path`, or a synthetic `grammar` (null: built-in) and `seed`."""
    path: str = ""
    grammar: object = None
    seed: int = 0


@dataclass(frozen=True)
class _Split:
    mode: str = "query"
    ratios: list = DEFAULT_RATIOS


def _section(fields, name: str, cls, **fixed) -> dict:
    """A copy of section `name`, checked against `cls` with the experiment's own `fixed`."""
    fields = fields or {}
    clash = sorted(fixed.keys() & fields.keys())
    if clash:
        raise ExperimentError(f"config section '{name}' sets '{clash[0]}', which the "
                              f"experiment sets for each seed and model")
    config_from_fields(cls, {**fields, **fixed}, f"invalid config section '{name}'",
                       ExperimentError)
    return dict(fields)


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate every sub-config; returns a plain dict."""
    if not isinstance(raw, dict):
        raise ExperimentError("config must be a JSON object")
    # null stands for the default of a known key
    given = {k: v for k, v in raw.items()
             if v is not None or k not in _Config.__dataclass_fields__}
    top = config_from_fields(_Config, given, "config", ExperimentError)

    data = _section(top.data, "data", _Data)
    if "path" in data and len(data) > 1:
        raise ExperimentError("data takes either 'path' or 'grammar' and 'seed'")
    if "path" not in data:
        data = {key: data.get(key, getattr(_Data, key)) for key in ("grammar", "seed")}
    seeds, models = list(top.seeds), list(top.models)
    if not seeds or any(type(s) is not int for s in seeds):
        raise ExperimentError(f"config key 'seeds' must be a nonempty list of "
                              f"integers, got {seeds}")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ExperimentError(f"config key 'seeds' must not hold a negative or repeated "
                              f"seed, got {seeds}")
    if not models or any(m not in MODELS for m in models):
        raise ExperimentError(f"models must be drawn from {MODELS}, got {models}")
    if len(set(models)) < len(models):
        raise ExperimentError(f"config key 'models' must not repeat a model, got {models}")
    if top.workers < 1:
        raise ExperimentError("workers must be >= 1")
    return {
        "seeds": seeds,
        "data": data,
        "anonymize": top.anonymize,
        "split": {"mode": _Split.mode, "ratios": list(_Split.ratios),
                  **_section(top.split, "split", _Split)},
        "em": _section(top.em, "em", EmConfig, seed=0),
        "tagger": _section(top.tagger, "tagger", TaggerConfig),
        "parser": _section(top.parser, "parser", ParserConfig, seed=0, use_tags=True),
        "decode": _section(top.decode, "decode", DecodeConfig),
        "models": models,
        "workers": top.workers,
    }


def code_version() -> str:
    """Git description of the working tree; outside a git checkout, the
    package version and a digest of its sources (see `_source_digest`)."""
    package = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=package, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"v{__version__}+{_source_digest(package)}"


def _numeric_environment() -> dict:
    """What decides a run's last bits besides the code and the config: the Python
    and numpy versions, numpy's BLAS build and the BLAS thread variables."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _source_digest(root: Path) -> str:
    """The first 12 hex digits of a sha256 over every `*.py` file under `root`:
    its relative path, its length and its bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:12]


def _load_data(data_config: dict):
    if "path" in data_config:
        return load_corpus(data_config["path"])
    return gen_synthetic(data_config["grammar"], seed=data_config["seed"])


def _stage(name: str, seed, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ExperimentError:
        raise
    except Exception as e:
        raise ExperimentError(
            f"stage {name} failed for seed {seed}: {e}") from e


def predict_records(tagger, parser_params, examples, decode_config, anonymize):
    records = []
    for ex in examples:
        target = anonymize_entities(ex) if anonymize else ex
        result = parse(tagger, parser_params, target, decode_config)
        prediction = " ".join(result.tokens)
        records.append({
            "id": ex.example_id,
            "tags": list(result.tags),
            "prediction": prediction,
            "anonymized_prediction": " ".join(result.anonymized_tokens),
            "gold": ex.meaning.text(),
            "exact_match": exact_match(prediction, ex.meaning.tokens),
            "truncated": result.truncated,
        })
    return records


def _run_seed(config: dict, seed: int, out_dir: str) -> dict:
    """Full pipeline for one seed; returns EvalReports keyed by model."""
    seed_dir = Path(out_dir) / f"seed{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    corpus = _stage("load-data", seed, _load_data, config["data"])

    split = _stage("split", seed, make_split, corpus,
                   config["split"]["mode"], config["split"]["ratios"], seed)
    split.save(seed_dir / "split.json")

    train_examples = split.select(corpus, "train")
    test_examples = split.select(corpus, "test")
    if config["anonymize"]:
        train_examples = [anonymize_entities(ex) for ex in train_examples]

    em_config = EmConfig(seed=seed, **config["em"])
    tagger_config = TaggerConfig(**config["tagger"])
    tagger = _stage("train-tagger", seed, train_tagger, train_examples,
                    em_config, tagger_config=tagger_config,
                    log_file=seed_dir / "tagger_log.tsv")
    save_tagger(seed_dir / "tagger.json", tagger)

    decode_config = DecodeConfig(**config["decode"])
    reports = {}
    for model in config["models"]:
        parser_config = ParserConfig(seed=seed, use_tags=model == "tagged",
                                     **config["parser"])
        parser_params = _stage(
            f"train-parser[{model}]", seed, train_parser, train_examples,
            tagger if model == "tagged" else None, parser_config,
            log_file=seed_dir / f"parser_{model}_log.tsv")
        save_parser(seed_dir / f"parser_{model}.json", parser_params)

        records = _stage(f"parse[{model}]", seed, predict_records, tagger,
                         parser_params, test_examples, decode_config,
                         config["anonymize"])
        with open(seed_dir / f"predictions_{model}.jsonl", "w") as f:
            for r in records:
                f.write(json.dumps(r, sort_keys=True) + "\n")

        report = _stage(f"evaluate[{model}]", seed, evaluate, records,
                        test_examples, per_template=True)
        with open(seed_dir / f"report_{model}.json", "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        reports[model] = report
    return reports


def run_experiment(config, out_dir) -> dict:
    """Run every seed and model, write artifacts, return the report rows.

    `config` is a dict or a JSON file path.  Returns
    {model: aggregate rows} after writing report.tsv and manifest.json.
    """
    if not isinstance(config, dict):
        with open(config) as f:
            try:
                config = json.load(f)
            except json.JSONDecodeError as e:
                raise ExperimentError(f"config is not valid JSON: {e}") from e
    config = resolve_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {"format_version": 1, "config": config,
                "code_version": code_version(), "environment": _numeric_environment()}
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    seeds = config["seeds"]
    if config["workers"] > 1:
        with ProcessPoolExecutor(max_workers=config["workers"]) as pool:
            futures = [pool.submit(_run_seed, config, s, str(out_dir))
                       for s in seeds]
            per_seed = [f.result() for f in futures]
    else:
        per_seed = [_run_seed(config, s, str(out_dir)) for s in seeds]

    results = {}
    rows = []
    for model in config["models"]:
        pairs = [(seed, reports[model]) for seed, reports in zip(seeds, per_seed)]
        model_rows = [{"model": model, **row}
                      for row in aggregate_reports(pairs)]
        rows.extend(model_rows)
        results[model] = model_rows
    with open(out_dir / "report.tsv", "w") as f:
        f.write(report_table(rows, extra_keys=("model",)))
    return results
