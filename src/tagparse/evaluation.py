"""Exact-match scoring with a three-way error taxonomy.

A prediction is scored by token-sequence equality after normalization
(lowercasing and whitespace collapse).  Wrong predictions are split by
comparing the sets of semantic symbols each side evokes:

    spurious_symbols              predicted symbols outside the gold set
    missing_symbols               a strict subset of the gold symbols
    correct_symbols_wrong_query   same symbols, different query structure

Unparsable predictions count as spurious and carry a parse-failure
flag.  The classes partition the errors, so the class rates plus the
accuracy always sum to one.

Reports aggregate over seeds with per-seed rows plus a mean row, the
layout used for multi-seed comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .data import (CorpusError, MeaningParseError, MeaningRepresentation,
                   anonymize_entities, extract_symbols, load_corpus,
                   tokenize_meaning)
from .data.corpus import _is_quoted

__all__ = ["ERROR_CLASSES", "EvalError", "Verdict", "EvalReport",
           "normalize_tokens", "exact_match", "classify_error", "evaluate",
           "aggregate_reports", "report_table"]

ERROR_CLASSES = ("correct_symbols_wrong_query", "missing_symbols",
                 "spurious_symbols")


class EvalError(ValueError):
    pass


def _canonical_token(token: str) -> str:
    # String literals may arrive single- or double-quoted.
    return '"' + token[1:-1] + '"' if _is_quoted(token) else token


def normalize_tokens(meaning) -> Tuple[str, ...]:
    """Lowercased tokens, whitespace collapsed, literals double-quoted."""
    if isinstance(meaning, MeaningRepresentation):
        meaning = meaning.tokens
    if isinstance(meaning, str):
        meaning = meaning.split()
    return tuple(_canonical_token(t.lower()) for t in meaning if t)


def exact_match(pred, gold) -> bool:
    """Token-sequence equality under shared normalization."""
    return normalize_tokens(pred) == normalize_tokens(gold)


class Verdict(NamedTuple):
    label: str                           # one of ERROR_CLASSES
    parse_failure: bool


def _symbols_of(tokens: Sequence[str], formalism: str) -> set:
    meaning = MeaningRepresentation(tuple(tokens), formalism)
    return set(extract_symbols(meaning))


def classify_error(pred, gold, formalism: str) -> Verdict:
    """Taxonomy class for a wrong prediction (exact_match must be false)."""
    gold_tokens = normalize_tokens(gold)
    try:
        gold_symbols = _symbols_of(gold_tokens, formalism)
    except (MeaningParseError, CorpusError) as e:
        raise EvalError(f"gold meaning unparsable: {e}") from e
    pred_tokens = normalize_tokens(pred)
    try:
        if not pred_tokens:
            raise MeaningParseError("empty prediction")
        pred_symbols = _symbols_of(pred_tokens, formalism)
    except (MeaningParseError, CorpusError):
        return Verdict("spurious_symbols", parse_failure=True)
    if not pred_symbols <= gold_symbols:
        return Verdict("spurious_symbols", parse_failure=False)
    if pred_symbols < gold_symbols:
        return Verdict("missing_symbols", parse_failure=False)
    return Verdict("correct_symbols_wrong_query", parse_failure=False)


@dataclass
class EvalReport:
    total: int
    correct: int
    error_counts: Dict[str, int]
    parse_failures: int
    per_template: Optional[Dict[str, dict]] = None
    anonymized_correct: Optional[int] = None
    verdicts: List[dict] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def error_rates(self) -> Dict[str, float]:
        if not self.total:
            return {label: 0.0 for label in ERROR_CLASSES}
        return {label: self.error_counts[label] / self.total
                for label in ERROR_CLASSES}

    @property
    def anonymized_accuracy(self) -> Optional[float]:
        if self.anonymized_correct is None or not self.total:
            return None
        return self.anonymized_correct / self.total

    def to_dict(self) -> dict:
        doc = {
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "error_counts": dict(self.error_counts),
            "error_rates": self.error_rates,
            "parse_failures": self.parse_failures,
        }
        if self.anonymized_correct is not None:
            doc["anonymized_accuracy"] = self.anonymized_accuracy
        if self.per_template is not None:
            doc["per_template"] = self.per_template
        return doc


def _check_record(record, where: str) -> dict:
    if not (isinstance(record, dict) and "id" in record
            and not isinstance(record["id"], (list, dict))
            and isinstance(record.get("prediction"), str)
            and isinstance(record.get("anonymized_prediction", ""), str)):
        raise EvalError(f"{where}: prediction records need a string or number 'id', "
                        f"a string 'prediction' and, if any, a string "
                        f"'anonymized_prediction', got {record!r:.60}")
    return record


def _load_predictions(predictions) -> List[dict]:
    if isinstance(predictions, (list, tuple)):
        return [_check_record(r, f"record {k}") for k, r in enumerate(predictions, 1)]
    records = []
    with open(predictions) as f:
        for k, line in enumerate(f, 1):
            if line.strip():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise EvalError(f"{predictions}:{k}: invalid JSON: {e}") from e
                records.append(_check_record(record, f"{predictions}:{k}"))
    return records


def _load_gold(gold) -> list:
    if isinstance(gold, (list, tuple)):
        return list(gold)
    return load_corpus(gold)


def evaluate(predictions, gold, per_template: bool = False) -> EvalReport:
    """Score a prediction set against gold examples, aligned by id.

    `predictions` is a JSON Lines path or a list of records with at
    least an `id` and a string `prediction`; records may add a string
    `anonymized_prediction` to also report accuracy on the anonymized
    forms.  `gold` is a corpus path or a list of corpus examples.
    """
    records = _load_predictions(predictions)
    examples = {ex.example_id: ex for ex in _load_gold(gold)}
    seen = set()
    for r in records:
        if r["id"] in seen:
            raise EvalError(f"duplicate prediction for id {r['id']}")
        seen.add(r["id"])
    missing = sorted(set(examples) - seen)
    extra = sorted(seen - set(examples))
    if missing or extra:
        raise EvalError(
            f"prediction/gold id mismatch: missing predictions for {missing}, "
            f"predictions without gold {extra}")

    counts = {label: 0 for label in ERROR_CLASSES}
    correct = parse_failures = 0
    anon_correct = None
    templates: Dict[str, dict] = {}
    verdicts = []
    for r in sorted(records, key=lambda r: r["id"]):
        ex = examples[r["id"]]
        hit = exact_match(r["prediction"], ex.meaning.tokens)
        row = {"id": r["id"], "exact_match": hit}
        if hit:
            correct += 1
        else:
            verdict = classify_error(r["prediction"], ex.meaning.tokens,
                                     ex.meaning.formalism)
            counts[verdict.label] += 1
            parse_failures += verdict.parse_failure
            row["error_class"] = verdict.label
            if verdict.parse_failure:
                row["parse_failure"] = True
        if "anonymized_prediction" in r:
            anon_gold = anonymize_entities(ex).meaning.tokens
            anon_hit = exact_match(r["anonymized_prediction"], anon_gold)
            anon_correct = (anon_correct or 0) + anon_hit
            row["anonymized_exact_match"] = anon_hit
        if per_template:
            slot = templates.setdefault(ex.template_id,
                                        {"total": 0, "correct": 0})
            slot["total"] += 1
            slot["correct"] += hit
        verdicts.append(row)
    if per_template:
        for slot in templates.values():
            slot["accuracy"] = slot["correct"] / slot["total"]
    return EvalReport(total=len(records), correct=correct, error_counts=counts,
                      parse_failures=parse_failures,
                      per_template=templates if per_template else None,
                      anonymized_correct=anon_correct, verdicts=verdicts)


_COLUMNS = ("accuracy", *ERROR_CLASSES, "parse_failures", "total")


def aggregate_reports(reports: Sequence[Tuple[object, EvalReport]]) -> List[dict]:
    """Per-seed rows plus a mean row over the numeric columns."""
    if not reports:
        raise EvalError("nothing to aggregate")
    rows = []
    for seed, report in reports:
        rates = report.error_rates
        rows.append({"seed": seed, "accuracy": report.accuracy,
                     **{label: rates[label] for label in ERROR_CLASSES},
                     "parse_failures": report.parse_failures,
                     "total": report.total})
    mean = {"seed": "mean"}
    for col in _COLUMNS:
        mean[col] = sum(r[col] for r in rows) / len(rows)
    return [*rows, mean]


def report_table(rows: Sequence[dict], extra_keys: Sequence[str] = ()) -> str:
    """Render aggregate rows as TSV."""
    header = [*extra_keys, "seed", *_COLUMNS]
    lines = ["\t".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row.get(key, "")
            cells.append(f"{value:.4f}" if isinstance(value, float) else str(value))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
