"""Multi-seed experiment pipeline.

A JSON config names the data, the split, the training settings, and the
models to compare ("tagged" runs the tag-augmented parser, "baseline"
the same architecture without tag inputs).  Each seed runs the full
pipeline: split the corpus, train the tagger, train each parser on the
tagger's predicted tags, decode the test section, and score it.  All
artifacts land under one output directory:

    manifest.json                   resolved config + code version
    report.tsv                      per-seed and mean rows per model
    seed<k>/split.json
    seed<k>/tagger.json             checkpoint
    seed<k>/tagger_log.tsv
    seed<k>/parser_<model>.json
    seed<k>/parser_<model>_log.tsv
    seed<k>/predictions_<model>.jsonl
    seed<k>/report_<model>.json

Outputs carry no timestamps, so a rerun with the same config and code
reproduces every file bit for bit.  Seeds are independent; they can run
in parallel worker processes, with aggregation as a final serial step.
"""

from __future__ import annotations

import json
import subprocess
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .data import anonymize_entities, gen_synthetic, load_corpus
from .data.splits import make_split
from .em import EmConfig, train_tagger
from .evaluation import (EvalReport, aggregate_reports, evaluate, exact_match,
                         report_table)
from .parser import (DecodeConfig, ParserConfig, parse, save_parser,
                     train_parser)
from .tagger import TaggerConfig, save_tagger

__all__ = ["ExperimentError", "DEFAULT_SEEDS", "MODELS", "resolve_config",
           "code_version", "predict_records", "run_experiment"]

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
MODELS = ("tagged", "baseline")

_TOP_KEYS = {"seeds", "data", "anonymize", "split", "em", "tagger", "parser",
             "decode", "models", "workers"}
# the JSON type of each key that is not a free value, and its name; null stands
# for the default
_KEY_TYPES = {**dict.fromkeys(("data", "split", "em", "tagger", "parser", "decode"),
                              (dict, "object")),
              "seeds": ((list, tuple), "list"), "models": ((list, tuple), "list"),
              "anonymize": (bool, "boolean"), "workers": (int, "integer")}


class ExperimentError(RuntimeError):
    pass


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate every sub-config; returns a plain dict."""
    if not isinstance(raw, dict):
        raise ExperimentError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ExperimentError(f"unknown config keys {sorted(unknown)}")
    raw = {key: value for key, value in raw.items() if value is not None}
    for key, (kind, name) in _KEY_TYPES.items():
        value = raw.get(key)
        # a JSON true or false is a Python bool, which is also an int
        if value is not None and (not isinstance(value, kind)
                                  or isinstance(value, bool) and kind is not bool):
            raise ExperimentError(f"config key '{key}' must be a JSON {name}, "
                                  f"not {type(value).__name__}")

    data = raw.get("data", {})
    if "path" in data:
        if "grammar" in data:
            raise ExperimentError("data takes either 'path' or 'grammar'")
        data = {"path": str(data["path"])}
    else:
        data = {"grammar": data.get("grammar"),
                "seed": int(data.get("seed", 0))}

    split = dict(raw.get("split", {}))
    split.setdefault("mode", "query")
    split.setdefault("ratios", [0.7, 0.3])

    seeds = list(raw.get("seeds", DEFAULT_SEEDS))
    if not seeds:
        raise ExperimentError("seed list is empty")
    models = list(raw.get("models", MODELS))
    bad = [m for m in models if m not in MODELS]
    if bad or not models:
        raise ExperimentError(f"models must be drawn from {MODELS}, got {models}")

    config = {
        "seeds": seeds,
        "data": data,
        "anonymize": raw.get("anonymize", True),
        "split": split,
        "em": dict(raw.get("em", {})),
        "tagger": dict(raw.get("tagger", {})),
        "parser": dict(raw.get("parser", {})),
        "decode": dict(raw.get("decode", {})),
        "models": models,
        "workers": raw.get("workers", 1),
    }
    if config["workers"] < 1:
        raise ExperimentError("workers must be >= 1")
    try:
        EmConfig(seed=0, **config["em"])
        TaggerConfig(**config["tagger"])
        ParserConfig(seed=0, use_tags=True, **config["parser"])
        DecodeConfig(**config["decode"])
    except (TypeError, ValueError) as e:
        raise ExperimentError(f"invalid config: {e}") from e
    return config


def code_version() -> str:
    """Git description of the working tree, or the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"v{__version__}"


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
    """Full pipeline for one seed; returns report dicts keyed by model."""
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
        doc = report.to_dict()
        with open(seed_dir / f"report_{model}.json", "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        reports[model] = doc
    return reports


def _report_from_dict(doc: dict) -> EvalReport:
    return EvalReport(total=doc["total"], correct=doc["correct"],
                      error_counts=doc["error_counts"],
                      parse_failures=doc["parse_failures"])


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
                "code_version": code_version()}
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
        pairs = [(seed, _report_from_dict(reports[model]))
                 for seed, reports in zip(seeds, per_seed)]
        model_rows = [{"model": model, **row}
                      for row in aggregate_reports(pairs)]
        rows.extend(model_rows)
        results[model] = model_rows
    with open(out_dir / "report.tsv", "w") as f:
        f.write(report_table(rows, extra_keys=("model",)))
    return results
