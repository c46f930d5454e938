"""Command-line front end.

Subcommands cover the full pipeline: corpus generation and splits,
symbol extraction, tagger and parser training, tagging, parsing,
evaluation, and multi-seed experiments.  Every command exits nonzero on
error with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING

from .checkpoint import CheckpointError, config_from_fields
from .data import (CorpusError, MeaningParseError, MeaningRepresentation,
                   SyntheticConfigError, anonymize_entities, default_grammar,
                   extract_symbols, gen_synthetic, load_corpus, save_corpus)
from .data.splits import DEFAULT_RATIOS, SplitError, SplitSpec, make_split
from .em import EmConfig, EmError, train_tagger
from .evaluation import EvalError, evaluate
from .experiment import ExperimentError, predict_records, run_experiment
from .parser import (DecodeConfig, ParserConfig, ParserError, load_parser,
                     save_parser, train_parser)
from .tagger import (TaggerConfig, load_tagger, predict_tags, save_tagger)

__all__ = ["main"]

_ERRORS = (CorpusError, MeaningParseError, SyntheticConfigError, SplitError,
           EmError, ParserError, EvalError, ExperimentError, CheckpointError,
           OSError, json.JSONDecodeError, ValueError)


def _read_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def _read_config(cls, flag, path, switches=None, **overrides):
    """Config `cls` from the JSON object in `path` (if any) and the non-None overrides.

    `switches` maps each key that only a command-line switch sets to that
    switch; the file may not hold such a key.
    """
    fields = _read_json(path) if path else {}
    if isinstance(fields, dict):
        for key, switch in (switches or {}).items():
            if key in fields:
                raise ValueError(f"{flag} {path} sets '{key}', which only {switch} chooses")
        fields.update((k, v) for k, v in overrides.items() if v is not None)
        for key in overrides.keys() - fields.keys():
            if cls.__dataclass_fields__[key].default is MISSING:
                raise ValueError(f"give --{key} or a config file with a {key}")
    return config_from_fields(cls, fields, f"{flag} {path}" if path else cls.__name__)


def _write_lines(path, lines):
    if path is None:
        for line in lines:
            print(line)
        return
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def _section_examples(args, corpus):
    """Apply an optional --split/--section filter to a corpus."""
    if args.split is None:
        return corpus
    return SplitSpec.load(args.split).select(corpus, args.section)


def _training_corpus(args):
    corpus = _section_examples(args, load_corpus(args.corpus))
    if args.anonymize:
        corpus = [anonymize_entities(ex) for ex in corpus]
    return corpus


def _add_corpus_args(sub, section_default):
    sub.add_argument("--corpus", required=True, help="corpus JSONL file")
    sub.add_argument("--split", help="split JSON produced by the split command")
    sub.add_argument("--section", default=section_default,
                     help=f"split section (default {section_default})")
    sub.add_argument("--no-anonymize", dest="anonymize", action="store_false",
                     help="keep entity words instead of typed markers")


def _cmd_gen_synthetic(args):
    grammar = _read_json(args.grammar) if args.grammar else \
        default_grammar(args.formalism)
    corpus = gen_synthetic(grammar, seed=args.seed)
    save_corpus(args.out, corpus)
    print(f"wrote {len(corpus)} examples to {args.out}")
    return 0


def _cmd_split(args):
    corpus = load_corpus(args.corpus)
    ratios = [float(r) for r in args.ratios.split(",")]
    spec = make_split(corpus, args.mode, ratios, args.seed)
    spec.save(args.out)
    sizes = {name: len(ids) for name, ids in spec.sections.items()}
    print(f"wrote {args.mode} split {sizes} to {args.out}")
    return 0


def _cmd_extract_symbols(args):
    if args.meaning is not None:
        meaning = MeaningRepresentation(tuple(args.meaning.split()),
                                        args.formalism)
        _write_lines(args.out, [json.dumps(
            {"symbols": sorted(extract_symbols(meaning))})])
        return 0
    corpus = load_corpus(args.corpus)
    lines = [json.dumps({"id": ex.example_id,
                         "symbols": list(ex.symbol_set.symbols)},
                        sort_keys=True) for ex in corpus]
    _write_lines(args.out, lines)
    return 0


def _cmd_train_tagger(args):
    corpus = _training_corpus(args)
    em_config = _read_config(EmConfig, "--config", args.config, seed=args.seed)
    tagger_config = _read_config(TaggerConfig, "--model-config", args.model_config)
    params = train_tagger(corpus, em_config, log_file=args.log,
                          tagger_config=tagger_config)
    save_tagger(args.out, params)
    print(f"wrote tagger checkpoint to {args.out}")
    return 0


def _cmd_tag(args):
    params = load_tagger(args.checkpoint)
    corpus = _training_corpus(args)
    tags = predict_tags(params, [ex.utterance for ex in corpus])
    _write_lines(args.out, [json.dumps(
        {"id": ex.example_id, "tokens": list(ex.utterance.tokens),
         "tags": [params.tag_vocab.symbol_of(i) for i in ids]},
        sort_keys=True) for ex, ids in zip(corpus, tags)])
    return 0


def _cmd_train_parser(args):
    corpus = _training_corpus(args)
    config = _read_config(ParserConfig, "--config", args.config,
                          switches={"use_tags": "--baseline"}, seed=args.seed,
                          use_tags=not args.baseline)
    tagger = None
    if not args.baseline:
        if args.tagger is None:
            raise ParserError("give --tagger or use --baseline")
        tagger = load_tagger(args.tagger)
    params = train_parser(corpus, tagger, config, log_file=args.log)
    save_parser(args.out, params)
    print(f"wrote parser checkpoint to {args.out}")
    return 0


def _cmd_parse(args):
    parser_params = load_parser(args.parser)
    tagger = load_tagger(args.tagger) if args.tagger else None
    if parser_params.config.use_tags and tagger is None:
        raise ParserError("this parser checkpoint needs --tagger")
    corpus = _section_examples(args, load_corpus(args.corpus))
    decode = DecodeConfig(max_length=args.max_length, beam_size=args.beam)
    records = predict_records(tagger, parser_params, corpus, decode,
                              args.anonymize)
    _write_lines(args.out, [json.dumps(r, sort_keys=True) for r in records])
    return 0


def _cmd_evaluate(args):
    gold = _section_examples(args, load_corpus(args.gold))
    report = evaluate(args.predictions, gold, per_template=args.per_template)
    doc = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    _write_lines(args.out, [doc])
    return 0


def _cmd_run_experiment(args):
    results = run_experiment(args.config, args.out)
    for model, rows in results.items():
        mean = rows[-1]
        print(f"{model}: mean exact match "
              f"{mean['accuracy']:.4f} over {len(rows) - 1} seeds")
    print(f"artifacts in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tagparse",
        description="semantic-tagging and parsing pipeline")
    subs = top.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen-synthetic", help="generate a synthetic corpus")
    sub.add_argument("--grammar", help="grammar JSON (default built-in)")
    sub.add_argument("--formalism", default="lambda",
                     choices=("lambda", "sql"),
                     help="built-in grammar to use when --grammar is omitted")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=_cmd_gen_synthetic)

    sub = subs.add_parser("split", help="partition a corpus")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--mode", required=True, choices=("question", "query"))
    sub.add_argument("--ratios", default=",".join(map(str, DEFAULT_RATIOS)),
                     help="comma-separated fractions for train[,dev],test")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=_cmd_split)

    sub = subs.add_parser("extract-symbols",
                          help="list the semantic symbols per example")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus")
    group.add_argument("--meaning", help="one meaning string")
    sub.add_argument("--formalism", default="lambda",
                     choices=("lambda", "sql"))
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_extract_symbols)

    sub = subs.add_parser("train-tagger",
                          help="train the latent-alignment tagger")
    _add_corpus_args(sub, "train")
    sub.add_argument("--config", help="JSON file of EM settings")
    sub.add_argument("--model-config", help="JSON file of tagger sizes")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--log", help="TSV training log path")
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=_cmd_train_tagger)

    sub = subs.add_parser("tag", help="tag utterances with a trained tagger")
    _add_corpus_args(sub, "test")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_tag)

    sub = subs.add_parser("train-parser", help="train the parser")
    _add_corpus_args(sub, "train")
    sub.add_argument("--tagger", help="tagger checkpoint")
    sub.add_argument("--baseline", action="store_true",
                     help="train without tag inputs")
    sub.add_argument("--config", help="JSON file of parser settings")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--log", help="TSV training log path")
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=_cmd_train_parser)

    sub = subs.add_parser("parse", help="decode meanings for a corpus")
    _add_corpus_args(sub, "test")
    sub.add_argument("--tagger", help="tagger checkpoint")
    sub.add_argument("--parser", required=True, help="parser checkpoint")
    sub.add_argument("--beam", type=int, default=DecodeConfig.beam_size)
    sub.add_argument("--max-length", type=int, default=DecodeConfig.max_length)
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_parse)

    sub = subs.add_parser("evaluate", help="score predictions against gold")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--gold", required=True, help="gold corpus JSONL")
    sub.add_argument("--split", help="split JSON to select gold examples")
    sub.add_argument("--section", default="test",
                     help="split section (default test)")
    sub.add_argument("--per-template", action="store_true")
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_evaluate)

    sub = subs.add_parser("run-experiment",
                          help="multi-seed train/evaluate pipeline")
    sub.add_argument("--config", required=True, help="experiment JSON config")
    sub.add_argument("--out", required=True, help="artifact directory")
    sub.set_defaults(fn=_cmd_run_experiment)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
