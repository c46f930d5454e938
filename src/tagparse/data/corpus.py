"""Corpus types, tokenization, and entity anonymization.

Utterances are lowercased and whitespace-tokenized.  Lambda-calculus
forms tokenize by splitting parentheses into their own tokens; SQL forms
tokenize with quoted literals kept whole and punctuation split out, and
both round-trip losslessly through join-with-spaces.

Entity anonymization replaces each distinct entity with a typed numbered
marker (ci0, ci1, ...) consistently in the utterance and the meaning,
keeping the reverse map so predictions can be de-anonymized.  Template
ids anonymize the meaning alone (markers numbered by first occurrence in
the meaning), so the id is a pure function of the meaning representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CorpusError",
    "EntitySpan",
    "Utterance",
    "MeaningRepresentation",
    "SymbolSet",
    "CorpusExample",
    "FORMALISMS",
    "tokenize_utterance",
    "tokenize_meaning",
    "template_id_for",
    "anonymize_entities",
    "deanonymize_tokens",
    "deanonymize_example",
]

FORMALISMS = ("lambda", "sql")


class CorpusError(ValueError):
    """Malformed corpus content (schema, spans, tokenization)."""


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int            # exclusive
    entity_id: str
    entity_type: str


@dataclass(frozen=True)
class Utterance:
    tokens: Tuple[str, ...]
    entity_spans: Tuple[EntitySpan, ...] = ()

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise CorpusError("utterance must have at least one token")
        last = 0
        for span in sorted(self.entity_spans, key=lambda s: s.start):
            if not (0 <= span.start < span.end <= len(self.tokens)):
                raise CorpusError(
                    f"entity span [{span.start},{span.end}) out of bounds "
                    f"for {len(self.tokens)} tokens")
            if span.start < last:
                raise CorpusError("entity spans overlap")
            last = span.end

    @property
    def n(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class MeaningRepresentation:
    tokens: Tuple[str, ...]
    formalism: str

    def __post_init__(self):
        if self.formalism not in FORMALISMS:
            raise CorpusError(f"unknown formalism {self.formalism!r}")
        if len(self.tokens) < 1:
            raise CorpusError("meaning must have at least one token")

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class SymbolSet:
    """Distinct symbols of one meaning, conceptually padded with nulls to n."""

    symbols: Tuple[str, ...]
    padded_length: int
    fixed_alignments: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise CorpusError(f"duplicate symbols in {self.symbols}")

    @property
    def l(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class CorpusExample:
    example_id: int
    utterance: Utterance
    meaning: MeaningRepresentation
    symbol_set: SymbolSet
    template_id: str
    gold_alignment: Optional[Dict[str, Tuple[int, ...]]] = None
    # marker -> {"utterance": original words, "meaning": original token,
    #            "id": entity id, "type": entity type}; None if never anonymized
    entity_map: Optional[Dict[str, dict]] = None
    flagged: bool = False


def tokenize_utterance(text: str) -> Tuple[str, ...]:
    return tuple(text.lower().split())


_SQL_TOKEN = re.compile(
    r""""[^"]*"|'[^']*'|[A-Za-z_][A-Za-z0-9_.]*|\d+(?:\.\d+)?|<=|>=|!=|<>|[(),;*=<>+\-/%]""")


def tokenize_meaning(text: str, formalism: str) -> Tuple[str, ...]:
    """Tokenize a logical form; join-with-spaces inverts this exactly."""
    if formalism == "lambda":
        spaced = text.replace("(", " ( ").replace(")", " ) ")
        return tuple(spaced.split())
    if formalism == "sql":
        tokens = tuple(_SQL_TOKEN.findall(text))
        leftover = _SQL_TOKEN.sub("", text).strip()
        if leftover:
            raise CorpusError(f"cannot tokenize SQL near {leftover.split()[0]!r}")
        return tokens
    raise CorpusError(f"unknown formalism {formalism!r}")


def _token_matches_entity(token: str, entity_id: str) -> bool:
    """A meaning token refers to an entity directly or as a quoted literal."""
    if token == entity_id:
        return True
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[1:-1] == entity_id
    return False


def _replace_entity_token(token: str, marker: str) -> str:
    """Substitute a marker while preserving the token's quoting."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[0] + marker + token[-1]
    return marker


def template_id_for(meaning: MeaningRepresentation,
                    entities: Sequence[EntitySpan]) -> str:
    """Anonymized meaning string with markers numbered by meaning order."""
    counters: Dict[str, int] = {}
    assigned: Dict[str, str] = {}
    out = []
    by_id = {}
    for span in entities:
        by_id.setdefault(span.entity_id, span.entity_type)
    for token in meaning.tokens:
        hit = None
        for ent_id, ent_type in by_id.items():
            if _token_matches_entity(token, ent_id):
                hit = (ent_id, ent_type)
                break
        if hit is None:
            out.append(token)
            continue
        ent_id, ent_type = hit
        if ent_id not in assigned:
            k = counters.get(ent_type, 0)
            counters[ent_type] = k + 1
            assigned[ent_id] = f"{ent_type}{k}"
        out.append(_replace_entity_token(token, assigned[ent_id]))
    return " ".join(out)


# Patterns for entity-like meaning tokens that anonymization should have
# consumed: lambda constants carry a :type suffix, SQL values are quoted.
_LAMBDA_ENTITY = re.compile(r"^[a-z0-9_.+\-]+:[a-z]+$")


def _looks_like_entity(token: str, formalism: str) -> bool:
    if formalism == "lambda":
        return bool(_LAMBDA_ENTITY.match(token))
    return len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'"


def anonymize_entities(example: CorpusExample) -> CorpusExample:
    """Replace each distinct entity with a typed numbered marker.

    Markers are numbered by first appearance in the utterance and applied
    consistently to utterance and meaning.  The reverse map is retained on
    the returned example.  Entity-like meaning tokens with no matching
    utterance span are left verbatim and flag the example.
    """
    utt = example.utterance
    if not utt.entity_spans:
        new_flagged = any(_looks_like_entity(t, example.meaning.formalism)
                          for t in example.meaning.tokens)
        return example if not new_flagged else replace(example, flagged=True)

    counters: Dict[str, int] = {}
    marker_for: Dict[str, str] = {}
    entity_map: Dict[str, dict] = {}
    new_tokens: List[str] = []
    new_spans: List[EntitySpan] = []
    old_to_new: List[int] = []
    pos = 0
    spans = sorted(utt.entity_spans, key=lambda s: s.start)
    span_iter = iter(spans)
    current = next(span_iter, None)
    i = 0
    while i < utt.n:
        if current is not None and i == current.start:
            ent_id = current.entity_id
            if ent_id not in marker_for:
                k = counters.get(current.entity_type, 0)
                counters[current.entity_type] = k + 1
                marker = f"{current.entity_type}{k}"
                marker_for[ent_id] = marker
                entity_map[marker] = {
                    "utterance": list(utt.tokens[current.start:current.end]),
                    "id": ent_id,
                    "type": current.entity_type,
                }
            marker = marker_for[ent_id]
            new_tokens.append(marker)
            new_spans.append(EntitySpan(pos, pos + 1, marker, current.entity_type))
            old_to_new.extend([pos] * (current.end - i))
            pos += 1
            i = current.end
            current = next(span_iter, None)
        else:
            new_tokens.append(utt.tokens[i])
            old_to_new.append(pos)
            pos += 1
            i += 1

    flagged = example.flagged
    new_meaning_tokens: List[str] = []
    for token in example.meaning.tokens:
        hit = None
        for ent_id, marker in marker_for.items():
            if _token_matches_entity(token, ent_id):
                hit = marker
                break
        if hit is not None:
            entity_map[hit].setdefault("meaning", token)
            new_meaning_tokens.append(_replace_entity_token(token, hit))
        else:
            if _looks_like_entity(token, example.meaning.formalism):
                flagged = True
            new_meaning_tokens.append(token)

    # Collapsed spans shift word positions, so every index-bearing field
    # must be remapped onto the marker positions.
    remapped = _remap_alignments(example, lambda k: (old_to_new[k],),
                                 padded_length=len(new_tokens))
    return replace(
        example,
        utterance=Utterance(tuple(new_tokens), tuple(new_spans)),
        meaning=MeaningRepresentation(tuple(new_meaning_tokens),
                                      example.meaning.formalism),
        entity_map=entity_map,
        flagged=flagged,
        **remapped,
    )


def _remap_alignments(example: CorpusExample, positions_of,
                      padded_length: int) -> dict:
    """Rewrite index-bearing fields through an old->new position expansion."""

    def remap(indices):
        out = set()
        for k in indices:
            out.update(positions_of(k))
        return tuple(sorted(out))

    sset = example.symbol_set
    fields = {"symbol_set": replace(
        sset, padded_length=padded_length,
        fixed_alignments={s: remap(v) for s, v in sset.fixed_alignments.items()})}
    if example.gold_alignment is not None:
        fields["gold_alignment"] = {s: remap(v)
                                    for s, v in example.gold_alignment.items()}
    return fields


def deanonymize_example(example: CorpusExample) -> CorpusExample:
    """Invert anonymize_entities on both the utterance and the meaning."""
    entity_map = example.entity_map
    if not entity_map:
        return example
    new_tokens: List[str] = []
    new_spans: List[EntitySpan] = []
    expansions: List[range] = []
    for token in example.utterance.tokens:
        info = entity_map.get(token)
        start = len(new_tokens)
        if info is None:
            new_tokens.append(token)
        else:
            new_tokens.extend(info["utterance"])
            new_spans.append(EntitySpan(start, len(new_tokens), info["id"], info["type"]))
        expansions.append(range(start, len(new_tokens)))
    remapped = _remap_alignments(example, lambda k: expansions[k],
                                 padded_length=len(new_tokens))
    return replace(
        example,
        utterance=Utterance(tuple(new_tokens), tuple(new_spans)),
        meaning=MeaningRepresentation(
            deanonymize_tokens(example.meaning.tokens, entity_map),
            example.meaning.formalism),
        entity_map=None,
        **remapped,
    )


def deanonymize_tokens(tokens: Sequence[str],
                       entity_map: Optional[Dict[str, dict]]) -> Tuple[str, ...]:
    """Invert anonymize_entities on a meaning token sequence."""
    if not entity_map:
        return tuple(tokens)
    out = []
    for token in tokens:
        restored = token
        for marker, info in entity_map.items():
            original = info.get("meaning", info["id"])
            if token == marker:
                restored = original
                break
            if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'" \
                    and token[1:-1] == marker:
                # Prediction re-quoted the marker; restore the original token
                # verbatim (it carries its own quoting).
                restored = original
                break
        out.append(restored)
    return tuple(out)
