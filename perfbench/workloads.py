"""The benchmark's three workloads, their output checks and their metrics.

Every call into the program goes through a module attribute
(``tp_parser.save_parser``, not a name imported from it), so the wrappers
the tracer installs on those attributes see it.  See README.md for what
each workload measures and why it was chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import tagparse.autodiff as tp_ad
import tagparse.data as tp_data
import tagparse.data.splits as tp_splits
import tagparse.em as tp_em
import tagparse.evaluation as tp_eval
import tagparse.experiment as tp_exp
import tagparse.nn as tp_nn
import tagparse.optim as tp_optim
import tagparse.parser as tp_parser
import tagparse.tagger as tp_tagger

from tracing import COARSE, FULL, SpanIndex, Tracer

MB = 1e6


def gate_grammar(n_preds: int = 5, n_ents: int = 6, n_templates: int = 4) -> dict:
    """The acceptance gate's cartesian grammar: every frame x predicate x city."""
    return {
        "formalism": "lambda",
        "entities": [{"word": f"city{e}", "id": f"city{e}:ci", "type": "ci"}
                     for e in range(n_ents)],
        "predicates": [{"word": f"word{p}", "symbol": f"pred{p}"}
                       for p in range(n_preds)],
        "templates": [
            {"utterance": f"frame{t} <P1> trips to <E1>",
             "meaning": f"( lambda $0 e ( and ( shape{t} $0 ) ( <P1> $0 ) "
                        "( to $0 <E1> ) ) )",
             "aligned": {f"shape{t}": f"frame{t}", "to": "<E1>"}}
            for t in range(n_templates)
        ],
    }


GRAMMAR = gate_grammar(5, 6, 4)
CORPUS_SIZE = 120                      # 4 frames x 5 predicates x 6 cities
SPLIT_RATIOS = [0.7, 0.3]
SPLIT_SIZES = {"train": 84, "test": 36}  # 14 / 6 of the 20 distinct queries
MODELS = ("tagged", "baseline")
GATE_SEEDS = (0, 1, 2, 3, 4)           # the gate's experiment seeds
GATE_SEED = GATE_SEEDS[0]
GATE_DATA_SEED = 0                     # the gate's corpus order

# The gate's settings except the update and epoch counts, which Sizes sets.
EM_SETTINGS = {"batch_size": 8, "learning_rate": 0.02}
TAGGER_SETTINGS = {"embedding_size": 16, "hidden_size": 16}
PARSER_SETTINGS = {"word_embedding_size": 16, "tag_embedding_size": 16,
                   "hidden_size": 32, "batch_size": 8, "learning_rate": 0.02}
GATE_DECODE = {"max_length": 40, "beam_size": 2}


@dataclass(frozen=True)
class Sizes:
    em_updates: int                # per EM run; the first half soft
    parser_epochs: int             # per parser training
    min_parses: int                # parse_beam5 parses per run, at least
    parse_limit: Optional[int]     # parse_beam5 examples per pass (None: all)
    parse_max_length: int          # the parse CLI's default is 150
    checkpoint_parser: dict        # ParserConfig fields for checkpoint_default
    checkpoint_tagger: dict        # TaggerConfig fields for checkpoint_default
    min_reps: int = 2              # timed repetitions per untraced run


BENCH = Sizes(em_updates=200, parser_epochs=4, min_parses=200,
              parse_limit=None, parse_max_length=150,
              checkpoint_parser={}, checkpoint_tagger={})


def tensors_created() -> int:
    """Graph tensors made so far; every Tensor takes the next autodiff id."""
    return int(repr(tp_ad._ids)[len("count("):-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _percentile(values: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _params_digest(params) -> str:
    return _digest(*(p.name.encode() + p.data.tobytes() for p in params))


def _same_params(a, b) -> bool:
    pa, pb = a.parameters(), b.parameters()
    return (len(pa) == len(pb)
            and all(x.name == y.name and np.array_equal(x.data, y.data)
                    for x, y in zip(pa, pb)))


@dataclass
class Run:
    """One invocation: set-up repetitions, timed repetitions and checks."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    sizes: Sizes
    tracer: Tracer
    setup_s: List[float] = field(default_factory=list)
    rep_s: List[float] = field(default_factory=list)
    traced_rep_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    _level: Optional[str] = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def report(self, name: str, value: float, unit: str) -> None:
        self.e2e[name] = (float(value), unit)

    def setup(self, build: Callable[[], tuple], times: int):
        """Run build() `times` times (once when traced); returns its value.

        Every build must give the same inputs; `setup_s` is the median time
        of one build.  The count is fixed, not a time budget: how many
        default-size models were built and freed before the timed phase
        moves its peak RSS by 5%.
        """
        fingerprints = []
        value = None
        for _ in range(1 if self.trace else times):
            self.tracer.phase = "setup"
            if self.trace:
                install(self.tracer, FULL)
                self.tracer.level = FULL
            began = time.perf_counter()
            try:
                value, fingerprint = build()
            finally:
                self.setup_s.append(time.perf_counter() - began)
                self.tracer.level = None
                self.tracer.uninstall(FULL)
            fingerprints.append(fingerprint)
        self.check(len(set(fingerprints)) == 1,
                   "set-up repetitions built different inputs")
        return value

    def timed(self, fn, *args):
        """Time fn(*args) with the repetition's trace level switched on."""
        self.tracer.level = self._level
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.level = None
        return elapsed, result

    @staticmethod
    def wall(facts: List[dict]) -> float:
        """A repetition's time: each step's median over the repetitions, summed.

        Medians per step keep a slow spell in one repetition out of the
        figure better than a median of repetition totals does.
        """
        return sum(statistics.median(step) for step in zip(*(f["steps"] for f in facts)))

    def repeat(self, rep: Callable[[int], dict], min_reps: int = 0) -> List[dict]:
        """Call rep(k) until --seconds is used up; returns the untraced facts.

        rep returns a dict with the repetition's "seconds", the times of
        its "steps", and a "deterministic" entry that must be the same for
        every repetition.  A traced run spends the first half of its
        budget untraced and the second half traced.
        """
        phases = [("untraced", COARSE, self.seconds,
                   max(min_reps, self.sizes.min_reps))]
        if self.trace:
            phases = [("untraced", COARSE, self.seconds / 2, 1),
                      ("traced", FULL, self.seconds / 2, 1)]
        untraced, outputs = [], []
        k = 0
        for phase, level, budget, least in phases:
            times = self.rep_s if phase == "untraced" else self.traced_rep_s
            if level == FULL:
                install(self.tracer, FULL)
            start = time.perf_counter()
            while True:
                self.tracer.phase, self.tracer.run, self._level = phase, k, level
                facts = rep(k)
                times.append(facts["seconds"])
                outputs.append(facts["deterministic"])
                if phase == "untraced":
                    untraced.append(facts)
                k += 1
                spent = time.perf_counter() - start
                # stop where the budget ends nearest a repetition boundary
                if (len(times) >= least
                        and spent + statistics.median(times) / 2 > budget):
                    break
            self.tracer.uninstall(FULL)
        self.check(all(o == outputs[0] for o in outputs),
                   "deterministic outputs differ between repetitions: "
                   + repr(outputs))
        return untraced


# -- instrumentation --------------------------------------------------------

def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _train_parser_meta(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"examples": len(args[0]) * config.epochs,
            "model": "tagged" if config.use_tags else "baseline"}


def _train_tagger_meta(args, kwargs, result):
    corpus, config = args[0], args[1]
    return {"examples": config.total_updates * min(config.batch_size, len(corpus))}


def _predict_records_meta(args, kwargs, result):
    return {"model": "tagged" if args[1].config.use_tags else "baseline"}


def _decode_meta(args, kwargs, result):
    # the end marker is an output step too, except when the beam ran out
    return {"tokens": len(result.token_ids) + (not result.truncated),
            "truncated": int(result.truncated)}


def install(tracer: Tracer, level: str) -> None:
    """Wrap one level's public functions where their callers look them up."""
    span = tracer.wrap_span
    if level == COARSE:
        span(tp_exp, "train_tagger", "em.train_tagger", COARSE, _train_tagger_meta)
        span(tp_em, "train_tagger", "em.train_tagger", COARSE, _train_tagger_meta)
        span(tp_exp, "train_parser", "parser.train_parser", COARSE, _train_parser_meta)
        span(tp_parser, "train_parser", "parser.train_parser", COARSE,
             _train_parser_meta)
        span(tp_exp, "parse", "parser.parse", COARSE)
        return
    span(tp_exp, "run_experiment", "experiment.run_experiment")
    span(tp_exp, "predict_records", "experiment.predict_records",
         meta=_predict_records_meta)
    span(tp_ad, "backward", "autodiff.backward")
    span(tp_optim.Adam, "step", "optim.adam_step")
    span(tp_nn.BiLstmEncoder, "encode", "nn.encode")
    tracer.wrap_count(tp_nn.LstmCell, "step", "nn.lstm_step")
    span(tp_em, "tag_distribution", "tagger.tag_distribution")
    span(tp_em, "compute_posteriors", "em.compute_posteriors")
    span(tp_em, "harden_posteriors", "em.harden_posteriors")
    span(tp_em, "predict_tags", "tagger.predict_tags")
    span(tp_parser, "predict_tags", "tagger.predict_tags")
    span(tp_parser, "decode", "parser.decode", meta=_decode_meta)
    for owner in (tp_exp, tp_parser):
        span(owner, "save_parser", "checkpoint.save.parser", meta=_bytes_written)
    for owner in (tp_exp, tp_tagger):
        span(owner, "save_tagger", "checkpoint.save.tagger", meta=_bytes_written)
    span(tp_parser, "load_parser", "checkpoint.load.parser")
    span(tp_tagger, "load_tagger", "checkpoint.load.tagger")
    span(tp_exp, "evaluate", "evaluation.evaluate")
    span(tp_eval, "evaluate", "evaluation.evaluate")
    span(tp_data, "gen_synthetic", "data.gen_synthetic")
    span(tp_exp, "make_split", "data.make_split")
    span(tp_splits, "make_split", "data.make_split")
    span(tp_exp, "anonymize_entities", "data.anonymize")
    span(tp_data, "anonymize_entities", "data.anonymize")


# -- shared inputs -----------------------------------------------------------

def _gate_corpus(run: Run, seed: int):
    """The gate's corpus and its query split at `seed`, checked."""
    corpus = tp_data.gen_synthetic(GRAMMAR, seed=GATE_DATA_SEED)
    split = tp_splits.make_split(corpus, "query", SPLIT_RATIOS, seed)
    sizes = {name: len(split.ids(name)) for name in SPLIT_SIZES}
    run.check(len(corpus) == CORPUS_SIZE,
              f"corpus has {len(corpus)} examples, expected {CORPUS_SIZE}")
    run.check(sizes == SPLIT_SIZES,
              f"query split sizes {sizes}, expected {SPLIT_SIZES}")
    return corpus, split


def _em_config(sizes: Sizes) -> dict:
    return {"total_updates": sizes.em_updates,
            "soft_updates": sizes.em_updates // 2, **EM_SETTINGS}


def _losses_finite(path: Path, column: int) -> bool:
    rows = path.read_text().splitlines()[1:]
    return bool(rows) and all(math.isfinite(float(r.split("\t")[column]))
                              for r in rows)


def _failed_parses(records: List[dict], report) -> int:
    """Parses that came back truncated or that `evaluate` could not parse."""
    bad = {v["id"] for v in report.verdicts if v.get("parse_failure")}
    return len(bad | {r["id"] for r in records if r["truncated"]})


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- query_seed --------------------------------------------------------------

def query_seed(run: Run) -> None:
    # One of the gate's seeds, not --seed itself: at the few epochs a run can
    # afford, models trained at other seeds can emit malformed parses, which
    # are failed operations.  See README.md.
    sizes = run.sizes
    seed = GATE_SEEDS[run.seed % len(GATE_SEEDS)]

    def build():
        corpus, split = _gate_corpus(run, seed)
        path = run.workdir / "corpus.jsonl"
        tp_data.save_corpus(path, corpus)
        config = {
            "seeds": [seed],
            "data": {"path": str(path)},
            "split": {"mode": "query", "ratios": SPLIT_RATIOS},
            "em": _em_config(sizes),
            "tagger": TAGGER_SETTINGS,
            "parser": {**PARSER_SETTINGS, "epochs": sizes.parser_epochs},
            "decode": GATE_DECODE,
            "models": list(MODELS),
            "workers": 1,
        }
        tp_exp.resolve_config(config)
        return (corpus, split, config), path.read_bytes()

    # about 3 s of set-up in all, for a steady median
    corpus, split, config = run.setup(build, times=250)
    test = split.select(corpus, "test")
    train_gold = [tp_data.anonymize_entities(ex)
                  for ex in split.select(corpus, "train")]

    def rep(k: int) -> dict:
        out = run.workdir / f"experiment{k}"
        before = tensors_created()
        start = time.perf_counter()
        try:
            seconds, _ = run.timed(tp_exp.run_experiment, config, out)
        except tp_exp.ExperimentError as e:
            # a diverging stage: one failed operation, and no outputs
            seconds = time.perf_counter() - start
            run.op(False)
            run.notes.append(f"repetition {k} failed: {e}")
            shutil.rmtree(out, ignore_errors=True)
            return {"seconds": seconds, "steps": [0.0] * 4 + [seconds],
                    "deterministic": {"error": str(e)}}
        tensors = tensors_created() - before
        seed_dir = out / f"seed{seed}"

        exact, ckpt_bytes = {}, 0
        run.op(_losses_finite(seed_dir / "tagger_log.tsv", 2))
        for model in MODELS:
            run.op(_losses_finite(seed_dir / f"parser_{model}_log.tsv", 1))
            path = seed_dir / f"predictions_{model}.jsonl"
            records = [json.loads(line) for line in path.read_text().splitlines()]
            report = tp_eval.evaluate(records, test)
            exact[model] = report.accuracy
            run.attempted += len(records)
            run.failed += _failed_parses(records, report)
            ckpt_bytes += (seed_dir / f"parser_{model}.json").stat().st_size
        ckpt_bytes += (seed_dir / "tagger.json").stat().st_size
        tagger = tp_tagger.load_tagger(seed_dir / "tagger.json")
        tag_acc = tp_em.tag_accuracy(tagger, train_gold)
        digest = _tree_digest(out)
        shutil.rmtree(out)

        index = SpanIndex([s for s in run.tracer.spans if s.run == k])
        parse_ms = [s.duration * 1e3 for s in index.named("parser.parse")]
        em = index.named("em.train_tagger")
        trains = index.named("parser.train_parser")
        steps = [sum(s.duration for s in em),
                 *(sum(s.duration for s in index.named("parser.train_parser",
                                                       model=model))
                   for model in MODELS),
                 sum(parse_ms) / 1e3]
        return {
            "seconds": seconds,
            "steps": [*steps, seconds - sum(steps)],
            "em_updates_per_s": sizes.em_updates / sum(s.duration for s in em),
            "train_examples_per_s": (sum(s.meta["examples"] for s in trains)
                                     / sum(s.duration for s in trains)),
            "parse_ms": parse_ms,
            "deterministic": {
                "exact_match": exact["tagged"],
                "exact_match_baseline": exact["baseline"],
                "tag_accuracy": tag_acc,
                "tensors": tensors,
                "artifacts": digest,
                "checkpoint_bytes": ckpt_bytes,
            },
        }

    facts = run.repeat(rep)
    done = [f for f in facts if "error" not in f["deterministic"]]
    det = done[0]["deterministic"] if done else {}
    parse_ms = [ms for f in done for ms in f["parse_ms"]]
    run.report("wall_s", run.wall(facts), "s")
    run.report("em_updates_per_s", _median(f["em_updates_per_s"] for f in done), "1/s")
    run.report("train_examples_per_s",
               _median(f["train_examples_per_s"] for f in done), "1/s")
    run.report("parse_examples_per_s",
               len(parse_ms) / (sum(parse_ms) / 1e3) if parse_ms else 0.0, "1/s")
    run.report("parse_p50_ms", _median(parse_ms), "ms")
    run.report("exact_match", det.get("exact_match", 0.0), "ratio")
    run.report("exact_match_baseline", det.get("exact_match_baseline", 0.0), "ratio")
    run.report("tag_accuracy", det.get("tag_accuracy", 0.0), "ratio")
    run.report("checkpoint_mb", det.get("checkpoint_bytes", 0) / MB, "MB")


# -- parse_beam5 -------------------------------------------------------------

def parse_beam5(run: Run) -> None:
    sizes = run.sizes
    decode_config = tp_parser.DecodeConfig(max_length=sizes.parse_max_length)

    def build():
        # The pair is the gate's first seed's; the workload seed picks the
        # section (the corpus in that seed's order), see README.md.
        corpus, split = _gate_corpus(run, GATE_SEED)
        train = [tp_data.anonymize_entities(ex) for ex in split.select(corpus, "train")]
        tagger = tp_em.train_tagger(
            train, tp_em.EmConfig(seed=GATE_SEED, **_em_config(sizes)),
            tagger_config=tp_tagger.TaggerConfig(**TAGGER_SETTINGS))
        parser = tp_parser.train_parser(
            train, tagger, tp_parser.ParserConfig(
                seed=GATE_SEED, use_tags=True, epochs=sizes.parser_epochs,
                **PARSER_SETTINGS))
        section = tp_data.gen_synthetic(GRAMMAR, seed=run.seed)[:sizes.parse_limit]
        folder = run.workdir / f"setup{len(run.setup_s)}"
        folder.mkdir()
        paths = folder / "tagger.json", folder / "parser.json"
        tp_tagger.save_tagger(paths[0], tagger)
        tp_parser.save_parser(paths[1], parser)
        run.check(len(section) == (sizes.parse_limit or CORPUS_SIZE),
                  f"section has {len(section)} examples")
        text = "\n".join(f"{ex.example_id} {ex.utterance.text()}" for ex in section)
        value = (section, tagger, parser, paths)
        return value, _digest(paths[0].read_bytes(), paths[1].read_bytes(),
                              text.encode())

    examples, tagger, parser, paths = run.setup(build, times=2)
    ckpt_bytes = sum(p.stat().st_size for p in paths)
    passes = max(1, math.ceil(sizes.min_parses / len(examples)))

    def one_pass():
        start = time.perf_counter()
        loaded_tagger = tp_tagger.load_tagger(paths[0])
        loaded_parser = tp_parser.load_parser(paths[1])
        load_s = time.perf_counter() - start
        records, latencies = [], []
        for ex in examples:
            start = time.perf_counter()
            records += tp_exp.predict_records(loaded_tagger, loaded_parser, [ex],
                                              decode_config, True)
            latencies.append(time.perf_counter() - start)
        start = time.perf_counter()
        report = tp_eval.evaluate(records, examples)
        steps = [load_s, *latencies, time.perf_counter() - start]
        return loaded_tagger, loaded_parser, records, steps, report

    def rep(k: int) -> dict:
        before = tensors_created()
        seconds, (lt, lp, records, steps, report) = run.timed(one_pass)
        tensors = tensors_created() - before
        run.op(_same_params(lt, tagger))
        run.op(_same_params(lp, parser))
        run.attempted += len(records)
        run.failed += _failed_parses(records, report)
        return {
            "seconds": seconds,
            "steps": steps,
            "parse_ms": [s * 1e3 for s in steps[1:-1]],
            "deterministic": {
                "exact_match": report.accuracy,
                "parse_failures": report.parse_failures,
                "truncated": sum(r["truncated"] for r in records),
                "tensors": tensors,
                "records": _digest(json.dumps(records, sort_keys=True).encode()),
            },
        }

    facts = run.repeat(rep, min_reps=passes)
    det = facts[0]["deterministic"]
    parse_ms = [ms for f in facts for ms in f["parse_ms"]]
    p95, beyond = _percentile(parse_ms, 0.95)
    run.report("wall_s", run.wall(facts), "s")
    run.report("parse_examples_per_s", len(parse_ms) / (sum(parse_ms) / 1e3), "1/s")
    run.report("parse_p50_ms", statistics.median(parse_ms), "ms")
    run.report("parse_p95_ms", p95, "ms")
    run.report("exact_match", det["exact_match"], "ratio")
    run.report("checkpoint_mb", ckpt_bytes / MB, "MB")
    run.notes.append(f"parse_p95_ms over {len(parse_ms)} parses, {beyond} beyond it")
    if not run.trace:
        # BENCH.min_parses = 200 puts at least 10 parses beyond p95
        run.check(beyond >= sizes.min_parses // 20, f"only {beyond} parses beyond p95")


# -- checkpoint_default ------------------------------------------------------

def checkpoint_default(run: Run) -> None:
    sizes = run.sizes

    def build():
        corpus = tp_data.gen_synthetic(tp_data.default_grammar("lambda"), seed=run.seed)
        words = [w for ex in corpus for w in ex.utterance.tokens]
        meaning = [t for ex in corpus for t in ex.meaning.tokens]
        word_vocab = tp_nn.Vocab(words)
        tag_vocab = tp_tagger.TagVocabulary.from_corpus(corpus)
        out_vocab = tp_nn.Vocab([tp_parser.BOS, tp_parser.EOS, tp_tagger.NULL_TAG,
                                 tp_tagger.UNK_TAG, *meaning])
        parser = tp_parser.init_parser(
            word_vocab, out_vocab, tag_vocab,
            tp_parser.ParserConfig(seed=run.seed, **sizes.checkpoint_parser), "lambda")
        tagger = tp_tagger.init_tagger(
            word_vocab, tag_vocab, tp_tagger.TaggerConfig(**sizes.checkpoint_tagger),
            seed=run.seed)
        digest = _params_digest(parser.parameters()) + _params_digest(tagger.parameters())
        return (parser, tagger), digest

    parser, tagger = run.setup(build, times=20)
    folder = run.workdir / "checkpoints"
    folder.mkdir()
    paths = folder / "parser.json", folder / "tagger.json"

    def round_trip():
        t0 = time.perf_counter()
        tp_parser.save_parser(paths[0], parser)
        t1 = time.perf_counter()
        loaded_parser = tp_parser.load_parser(paths[0])
        t2 = time.perf_counter()
        tp_tagger.save_tagger(paths[1], tagger)
        t3 = time.perf_counter()
        loaded_tagger = tp_tagger.load_tagger(paths[1])
        t4 = time.perf_counter()
        return loaded_parser, loaded_tagger, [t1 - t0, t2 - t1, t3 - t2, t4 - t3]

    def rep(k: int) -> dict:
        seconds, (lp, lt, steps) = run.timed(round_trip)
        run.op(_same_params(lp, parser))
        run.op(_same_params(lt, tagger))
        sizes_bytes = [p.stat().st_size for p in paths]
        digest = _digest(*(p.read_bytes() for p in paths))
        for p in paths:
            p.unlink()
        return {"seconds": seconds, "steps": steps,
                "deterministic": {"files": digest, "bytes": sizes_bytes}}

    facts = run.repeat(rep)
    save_parser, load_parser, save_tagger, load_tagger = (
        statistics.median(step) for step in zip(*(f["steps"] for f in facts)))
    run.report("wall_s", run.wall(facts), "s")
    run.report("checkpoint_save_s", save_parser + save_tagger, "s")
    run.report("checkpoint_load_s", load_parser + load_tagger, "s")
    run.report("checkpoint_mb", sum(facts[0]["deterministic"]["bytes"]) / MB, "MB")


WORKLOADS = {"query_seed": query_seed, "parse_beam5": parse_beam5,
             "checkpoint_default": checkpoint_default}


# -- per-layer metrics from the traced repetitions ---------------------------

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Run) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures from the traced repetitions (per repetition where summed)."""
    every = SpanIndex(run.tracer.spans)
    idx = SpanIndex([s for s in run.tracer.spans if s.phase == "traced"])
    reps = len(run.traced_rep_s)
    ms = 1e3

    def named(name, **meta):
        return idx.named(name, **meta)

    backward = named("autodiff.backward")
    trains = named("parser.train_parser")
    train_examples = sum(s.meta["examples"] for s in trains)
    tagging_in_training = [t for s in trains
                           for t in idx.under(named("tagger.predict_tags"), s)]
    em_runs = named("em.train_tagger")
    parses = named("parser.parse")
    decodes = named("parser.decode")
    posteriors = named("em.compute_posteriors")
    in_experiment = [s for s in idx.spans
                     if idx.has_ancestor(s, "experiment.run_experiment")]
    staged = SpanIndex(in_experiment)

    def stage(name, **meta):
        return sum(s.duration for s in staged.named(name, **meta)) / max(reps, 1)

    out = {
        "autodiff.backward.self_ms": (_mean(s.self_time for s in backward) * ms, "ms"),
        "autodiff.backward.share": (_ratio(
            sum(b.duration for t in trains for b in idx.under(backward, t)),
            sum(t.duration for t in trains)), "ratio"),
        "autodiff.tensors_per_train_example": (_ratio(
            sum(t.tensors for t in trains)
            - sum(t.tensors for t in tagging_in_training), train_examples), "count"),
        "autodiff.tensors_per_em_example": (_ratio(
            sum(s.tensors for s in em_runs),
            sum(s.meta["examples"] for s in em_runs)), "count"),
        "autodiff.tensors_per_parse": (_ratio(
            sum(s.tensors for s in parses), len(parses)), "count"),
        "optim.adam_step.self_ms": (_mean(s.self_time for s in named("optim.adam_step")) * ms, "ms"),
        "optim.adam_step.calls": (_ratio(len(named("optim.adam_step")), reps), "count"),
        "nn.encode.self_ms": (_mean(s.self_time for s in named("nn.encode")) * ms, "ms"),
        "nn.lstm_step.calls_per_example": (_ratio(
            sum(idx.count(t, "nn.lstm_step") for t in trains)
            - sum(idx.count(t, "nn.lstm_step") for t in tagging_in_training),
            train_examples), "count"),
        "nn.lstm_step.calls_per_parse": (_ratio(
            sum(idx.count(s, "nn.lstm_step") for s in parses), len(parses)), "count"),
        "tagger.tag_distribution.self_ms": (_mean(
            s.self_time for s in named("tagger.tag_distribution")) * ms, "ms"),
        "tagger.predict_tags.ms": (_mean(
            s.duration for s in named("tagger.predict_tags")) * ms, "ms"),
        "em.posteriors.self_ms": (_ratio(
            sum(s.self_time for s in posteriors)
            + sum(s.self_time for s in named("em.harden_posteriors")),
            len(posteriors)) * ms, "ms"),
        "em.train_tagger.s": (_ratio(sum(s.duration for s in em_runs), reps), "s"),
        "parser.train_parser.s": (_ratio(sum(s.duration for s in trains), reps), "s"),
        "parser.train.forward_ms_per_example": (_ratio(
            sum(s.self_time for s in trains), train_examples) * ms, "ms"),
        "parser.decode.self_ms": (_mean(s.self_time for s in decodes) * ms, "ms"),
        "parser.decode.lstm_steps_per_output_token": (_ratio(
            sum(s.counts.get("nn.lstm_step", 0) for s in decodes),
            sum(s.meta["tokens"] for s in decodes)), "ratio"),
        "parser.decode.truncated": (_ratio(
            sum(s.meta["truncated"] for s in decodes), reps), "count"),
        "evaluation.evaluate.ms": (_mean(
            s.duration for s in named("evaluation.evaluate")) * ms, "ms"),
    }
    for action in ("save", "load"):
        for kind in ("parser", "tagger"):
            spans = named(f"checkpoint.{action}.{kind}")
            out[f"checkpoint.{action}.{kind}.ms"] = (_mean(s.duration for s in spans) * ms, "ms")
    for kind in ("parser", "tagger"):
        spans = named(f"checkpoint.save.{kind}")
        out[f"checkpoint.bytes.{kind}"] = (_mean(s.meta["bytes"] for s in spans), "bytes")
    # data-layer calls happen mostly during set-up, so count every phase
    for name in ("data.gen_synthetic", "data.make_split", "data.anonymize"):
        out[f"{name}.ms"] = (_mean(s.duration for s in every.named(name)) * ms, "ms")
    for key, name, meta in (
            ("split", "data.make_split", {}),
            ("train_tagger", "em.train_tagger", {}),
            ("train_parser_tagged", "parser.train_parser", {"model": "tagged"}),
            ("train_parser_baseline", "parser.train_parser", {"model": "baseline"}),
            ("parse_tagged", "experiment.predict_records", {"model": "tagged"}),
            ("parse_baseline", "experiment.predict_records", {"model": "baseline"}),
            ("evaluate", "evaluation.evaluate", {})):
        out[f"experiment.stage.{key}.s"] = (stage(name, **meta), "s")
    out["trace.overhead_s"] = (statistics.median(run.traced_rep_s)
                               - statistics.median(run.rep_s), "s")
    return out
