"""JSON-Lines corpus ingestion.

One object per line:

    {"utterance": "what is the area of washington",
     "meaning": "select area from state where state_name = \\"washington\\"",
     "formalism": "sql",                        # "lambda" | "sql"
     "entities": [{"span": [5, 6], "id": "washington", "type": "st"}],
     "gold_alignment": {"area": [3]}}           # synthetic corpora only

`entities` and `gold_alignment` are optional.  Spans are token index
ranges [start, end) over the lowercased, whitespace-split utterance.
Loading reads each meaning once for its symbol set and entity links
(`symbols.linked_symbol_set`), and assigns the anonymized-meaning
template id.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .corpus import (CorpusError, CorpusExample, EntitySpan, FORMALISMS,
                     MeaningRepresentation, Utterance, template_id_for,
                     tokenize_meaning, tokenize_utterance)
from .symbols import linked_symbol_set

__all__ = ["example_from_record", "load_corpus", "save_corpus"]


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _indices_below(value, n: int) -> bool:
    if not isinstance(value, list):
        return False
    for i in value:
        if not (_is_index(i) and 0 <= i < n):
            return False
    return True


def _entity_span(ent) -> EntitySpan:
    span = ent.get("span") if isinstance(ent, dict) else None
    if not (isinstance(span, list) and len(span) == 2 and _is_index(span[0])
            and _is_index(span[1]) and isinstance(ent.get("id"), str)
            and isinstance(ent.get("type"), str)):
        raise CorpusError(f"malformed entity annotation {ent!r:.60}: need a 'span' of "
                          f"two integers and string 'id' and 'type'")
    return EntitySpan(span[0], span[1], ent["id"], ent["type"])


def _gold_alignment(gold, n: int) -> Optional[dict]:
    if gold is None:
        return None
    if not isinstance(gold, dict):
        raise CorpusError(f"field 'gold_alignment' must be a JSON object, "
                          f"not {type(gold).__name__}")
    for symbol, indices in gold.items():
        if not _indices_below(indices, n):
            raise CorpusError(f"gold alignment of {symbol!r} must be a list of word "
                              f"indices below {n}, got {indices!r:.60}")
    return {symbol: tuple(indices) for symbol, indices in gold.items()} or None


def example_from_record(record: dict, example_id: int) -> CorpusExample:
    """Build a fully derived CorpusExample from one JSONL object."""
    if not isinstance(record, dict):
        raise CorpusError(f"a corpus line must be a JSON object, not {type(record).__name__}")
    for key in ("utterance", "meaning"):
        if key not in record:
            raise CorpusError(f"missing field '{key}'")
        if not isinstance(record[key], str):
            raise CorpusError(f"field '{key}' must be a JSON string, "
                              f"not {type(record[key]).__name__}")
    formalism = record.get("formalism")
    if formalism not in FORMALISMS:
        raise CorpusError(f"unknown formalism {formalism!r}")
    entities = record.get("entities")
    if entities is not None and not isinstance(entities, list):
        raise CorpusError(f"field 'entities' must be a JSON list, "
                          f"not {type(entities).__name__}")

    tokens = tokenize_utterance(record["utterance"])
    spans = []
    for ent in entities or ():
        spans.append(_entity_span(ent))
    utterance = Utterance(tokens, tuple(spans))

    meaning = MeaningRepresentation(
        tokenize_meaning(record["meaning"], formalism), formalism)
    return CorpusExample(
        example_id=example_id,
        utterance=utterance,
        meaning=meaning,
        symbol_set=linked_symbol_set(meaning, utterance.entity_spans, utterance.n),
        template_id=template_id_for(meaning, utterance.entity_spans),
        gold_alignment=_gold_alignment(record.get("gold_alignment"), utterance.n),
    )


def load_corpus(path) -> List[CorpusExample]:
    """Load a JSONL corpus; a bad line raises CorpusError naming its number."""
    examples: List[CorpusExample] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: invalid JSON ({exc})")
            try:
                examples.append(example_from_record(record, example_id=len(examples)))
            except (CorpusError, ValueError) as exc:
                raise CorpusError(f"line {lineno}: {exc}")
    return examples


def corpus_to_records(corpus) -> List[dict]:
    records = []
    for ex in corpus:
        record = {
            "utterance": ex.utterance.text(),
            "meaning": ex.meaning.text(),
            "formalism": ex.meaning.formalism,
        }
        if ex.utterance.entity_spans:
            record["entities"] = [
                {"span": [s.start, s.end], "id": s.entity_id, "type": s.entity_type}
                for s in ex.utterance.entity_spans
            ]
        if ex.gold_alignment:
            record["gold_alignment"] = {k: list(v) for k, v in ex.gold_alignment.items()}
        records.append(record)
    return records


def save_corpus(path, corpus) -> None:
    with open(path, "w") as f:
        for record in corpus_to_records(corpus):
            f.write(json.dumps(record, sort_keys=True) + "\n")
