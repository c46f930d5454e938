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

One entity-reference rule serves template ids, anonymization,
de-anonymization and entity linking (`symbols`): a meaning token names
an entity id when it is the id itself or the id as a quoted literal, and
a token that names several ids names the first in the caller's order.
`_entity_refs` builds that rule into one dict, so each token costs one
lookup, and `_number_markers` numbers the markers for both template ids
and anonymization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def _is_quoted(token: str) -> bool:
    """Whether a meaning token is a quoted literal ("x" or 'x')."""
    return len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'"


def _entity_refs(entities: Iterable[tuple]) -> dict:
    """Map every meaning token that names an entity id to that id's value.

    A token names an id when it is the id itself or the id as a quoted
    literal.  A token that names several ids maps to the first (id, value)
    pair, so one dict lookup per token resolves it.
    """
    refs = {}
    for ent_id, value in entities:
        for form in (ent_id, f'"{ent_id}"', f"'{ent_id}'"):
            refs.setdefault(form, value)
    return refs


def _replace_entity_token(token: str, marker: str) -> str:
    """Substitute a marker while preserving the token's quoting."""
    return token[0] + marker + token[-1] if _is_quoted(token) else marker


def _number_markers(spans: Iterable[EntitySpan]) -> Dict[str, str]:
    """Typed numbered marker (ci0, ci1, ...) of each distinct entity id,
    numbered per type in the order the spans come."""
    counters: Dict[str, int] = {}
    markers: Dict[str, str] = {}
    for span in spans:
        if span.entity_id not in markers:
            k = counters.get(span.entity_type, 0)
            counters[span.entity_type] = k + 1
            markers[span.entity_id] = f"{span.entity_type}{k}"
    return markers


def template_id_for(meaning: MeaningRepresentation,
                    entities: Sequence[EntitySpan]) -> str:
    """Anonymized meaning string with markers numbered by meaning order."""
    refs = _entity_refs((span.entity_id, span) for span in entities)
    named = [refs.get(token) for token in meaning.tokens]
    markers = _number_markers(span for span in named if span is not None)
    return " ".join([token if span is None
                     else _replace_entity_token(token, markers[span.entity_id])
                     for token, span in zip(meaning.tokens, named)])


# Patterns for entity-like meaning tokens that anonymization should have
# consumed: lambda constants carry a :type suffix, SQL values are quoted.
_LAMBDA_ENTITY = re.compile(r"^[a-z0-9_.+\-]+:[a-z]+$")


def _looks_like_entity(token: str, formalism: str) -> bool:
    if formalism == "lambda":
        return bool(_LAMBDA_ENTITY.match(token))
    return _is_quoted(token)


def anonymize_entities(example: CorpusExample) -> CorpusExample:
    """Replace each distinct entity with a typed numbered marker.

    Markers are numbered by first appearance in the utterance and applied
    consistently to utterance and meaning.  The reverse map is retained on
    the returned example.  Entity-like meaning tokens with no matching
    utterance span are left verbatim and flag the example.
    """
    utt = example.utterance
    formalism = example.meaning.formalism
    if not utt.entity_spans:
        new_flagged = any(_looks_like_entity(t, formalism) for t in example.meaning.tokens)
        return example if not new_flagged else replace(example, flagged=True)

    spans = sorted(utt.entity_spans, key=lambda s: s.start)
    starts = {span.start: span for span in spans}
    first: Dict[str, EntitySpan] = {}
    for span in spans:
        first.setdefault(span.entity_id, span)
    markers = _number_markers(first.values())
    entity_map = {markers[ent_id]: {"utterance": list(utt.tokens[span.start:span.end]),
                                    "id": ent_id, "type": span.entity_type}
                  for ent_id, span in first.items()}

    new_tokens: List[str] = []
    new_spans: List[EntitySpan] = []
    old_to_new: List[int] = []
    i = 0
    while i < utt.n:
        pos = len(new_tokens)
        span = starts.get(i)
        if span is None:
            new_tokens.append(utt.tokens[i])
            old_to_new.append(pos)
            i += 1
            continue
        marker = markers[span.entity_id]
        new_tokens.append(marker)
        new_spans.append(EntitySpan(pos, pos + 1, marker, span.entity_type))
        old_to_new.extend([pos] * (span.end - i))
        i = span.end

    refs = _entity_refs((ent_id, markers[ent_id]) for ent_id in first)
    flagged = example.flagged
    new_meaning_tokens: List[str] = []
    for token in example.meaning.tokens:
        marker = refs.get(token)
        if marker is None:
            flagged = flagged or _looks_like_entity(token, formalism)
            new_meaning_tokens.append(token)
        else:
            entity_map[marker].setdefault("meaning", token)
            new_meaning_tokens.append(_replace_entity_token(token, marker))

    # Collapsed spans shift word positions, so every index-bearing field
    # must be remapped onto the marker positions.
    remapped = _remap_alignments(example, lambda k: (old_to_new[k],),
                                 padded_length=len(new_tokens))
    return replace(
        example,
        utterance=Utterance(tuple(new_tokens), tuple(new_spans)),
        meaning=MeaningRepresentation(tuple(new_meaning_tokens), formalism),
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
    """Invert anonymize_entities on a meaning token sequence.

    A marker, bare or re-quoted by a prediction, is restored to its
    original meaning token verbatim (that token carries its own quoting).
    """
    if not entity_map:
        return tuple(tokens)
    refs = _entity_refs((marker, info.get("meaning", info["id"]))
                        for marker, info in entity_map.items())
    return tuple(refs.get(token, token) for token in tokens)
