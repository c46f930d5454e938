"""Synthetic compositional corpora with construction-time gold alignments.

A grammar config is a JSON-able dict:

    {"formalism": "lambda",
     "entities":   [{"word": "boston", "id": "boston:ci", "type": "ci"}, ...],
     "predicates": [{"word": "nonstop", "symbol": "nonstop"}, ...],
     "templates":  [{"utterance": "list <P1> flights from <E1> to <E2>",
                     "meaning": "( ... ( <P1> $0 ) ( from $0 <E1> ) ... )",
                     "aligned": {"flight": "flights",
                                 "from": "<E1>", "to": "<E2>"},
                     "types": {"E1": "ci"}},            # optional filter
                    ...],
     "max_examples": 400}                                # optional cap

Utterance patterns are token sequences; <Pk> slots draw predicate words,
<Ek> slots draw entity words (distinct entities per example).  Meaning
patterns substitute the predicate symbol for <Pk> and the entity id for
<Ek> at string level, so SQL patterns may quote slots.  Each predicate
slot is gold-aligned to its own word automatically; the optional
"aligned" map adds fixed vocabulary words ("flight" evoked by "flights")
and entity-evoked symbols ("from" evoked by whatever fills <E1>,
mirroring the entity-linking rules).

The full slot product is enumerated in a fixed order, shuffled with the
seed, and optionally capped, so a (config, seed) pair names one corpus.
Each template is compiled once (its fixed tokens and slots, its aligned
references, its meaning's slot markers; each lexicon entry's lowercased
words), and only the combinations the cap keeps are instantiated, each
once, in enumeration order.  An entity type may not end in a digit, since
its numbered markers could equal another type's ('c1' + '0' = 'c' + '10').

The cap does not hide errors: a grammar either builds its corpus or
raises the first error that instantiating every combination in order
would raise.  So the combinations that could fail are instantiated as they
are enumerated, whether the cap keeps them or not:

- every combination with a fill that has no word or has an aligned word,
  or with a predicate whose symbol is an aligned symbol;
- every combination whose predicates repeat a symbol;
- of the rest, the "plain" combinations, each template's first.  Plain
  combinations give the gold alignment the shape that the template alone
  sets, so either all of them fail, with one message, or none does (an
  aligned ref that names no slot, an aligned word that the fixed tokens
  lack, an alignment that is not injective).
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import FORMALISMS, CorpusExample
from .loader import example_from_record

__all__ = ["SyntheticConfigError", "gen_synthetic", "default_grammar"]


class SyntheticConfigError(ValueError):
    pass


_SLOT = re.compile(r"^<([PE])(\d+)>$")


def _slots_in(pattern: str):
    found = []
    for token in pattern.split():
        m = _SLOT.match(token)
        if m:
            found.append(token.strip("<>"))
    return found


class _Template:
    """A template compiled once: everything instantiating one of its
    combinations reads that does not depend on the combination.

    A combination is a tuple of predicate indices, one per <Pk> occurrence
    in the utterance, and a tuple of entity indices, one per <Ek>
    occurrence.  A slot that occurs twice takes the fill of its last
    occurrence, and its span is that of its last occurrence."""

    def __init__(self, template: dict, formalism: str, lexicon: "_Lexicon"):
        self.text = template["utterance"]
        self.meaning = template["meaning"]
        self.formalism = formalism
        self.lexicon = lexicon
        runs: List[List[str]] = [[]]         # fixed tokens before, between, after slots
        slots: List[str] = []
        for token in self.text.split():
            if _SLOT.match(token):
                slots.append(token.strip("<>"))
                runs.append([])
            else:
                runs[-1].append(token.lower())
        self.slots = slots
        self.p_slots = [s for s in slots if s.startswith("P")]
        self.e_slots = [s for s in slots if s.startswith("E")]
        # where each slot's fill sits in its combination tuple, and the step
        # of its last occurrence
        fill = {**{s: (True, k) for k, s in enumerate(self.p_slots)},
                **{s: (False, k) for k, s in enumerate(self.e_slots)}}
        step = {s: k for k, s in enumerate(slots)}
        self.head = runs[0]
        self.steps = [(*fill[s], run) for s, run in zip(slots, runs[1:])]
        # meaning slots are replaced at string level, predicates first
        self.markers = [(f"<{s}>", *fill[s]) for s in dict.fromkeys(self.p_slots + self.e_slots)]
        self.pred_gold = [(fill[s][1], step[s]) for s in dict.fromkeys(self.p_slots)]
        # (symbol, step, word, ref): a slot ref's step, a word ref's
        # lowercased word, or the error of a ref that names no slot
        self.aligned: List[tuple] = []
        for symbol, ref in (template.get("aligned") or {}).items():
            if not _SLOT.match(ref):
                self.aligned.append((symbol, None, ref.lower(), ref))
            elif ref.strip("<>") in step:
                self.aligned.append((symbol, step[ref.strip("<>")], None, ref))
            else:
                self.aligned.append((symbol, None, None, SyntheticConfigError(
                    f"aligned ref {ref} not a slot of template {self.text!r}")))

    def plain(self) -> Tuple[List[bool], List[bool]]:
        """Per predicate and per entity: whether the entry leaves the gold
        alignment the shape the template alone sets: it has at least one
        word and no aligned word, and a predicate's symbol is not aligned."""
        words = {word for _, _, word, _ in self.aligned if word is not None}
        symbols = {symbol for symbol, _, _, _ in self.aligned}
        lex = self.lexicon
        preds = [bool(w) and words.isdisjoint(w) and s not in symbols
                 for w, s in zip(lex.pred_words, lex.symbols)]
        ents = [bool(w) and words.isdisjoint(w) for w in lex.ent_words]
        return preds, ents

    def instantiate(self, pred_combo: Tuple[int, ...], ent_combo: Tuple[int, ...]) -> dict:
        lex = self.lexicon
        utt_tokens = list(self.head)
        entities = []
        spans = []
        for is_pred, k, run in self.steps:
            start = len(utt_tokens)
            if is_pred:
                utt_tokens += lex.pred_words[pred_combo[k]]
            else:
                e = ent_combo[k]
                utt_tokens += lex.ent_words[e]
                entities.append({"span": [start, len(utt_tokens)],
                                 "id": lex.ids[e], "type": lex.types[e]})
            spans.append(range(start, len(utt_tokens)))
            utt_tokens += run

        meaning = self.meaning
        for marker, is_pred, k in self.markers:
            meaning = meaning.replace(marker, lex.symbols[pred_combo[k]] if is_pred
                                      else lex.ids[ent_combo[k]])

        gold = {lex.symbols[pred_combo[k]]: list(spans[step]) for k, step in self.pred_gold}
        for symbol, step, word, ref in self.aligned:
            if step is not None:
                gold[symbol] = list(spans[step])
            elif word is None:
                raise ref
            elif word in utt_tokens:
                gold[symbol] = [utt_tokens.index(word)]
            else:
                raise SyntheticConfigError(
                    f"aligned word {ref!r} absent from {' '.join(utt_tokens)!r}")

        used = [i for indices in gold.values() for i in indices]
        if len(set(used)) != len(used):
            raise SyntheticConfigError(
                f"gold alignment not injective in template {self.text!r}")

        record = {"utterance": " ".join(utt_tokens), "meaning": meaning,
                  "formalism": self.formalism, "gold_alignment": gold}
        if entities:
            record["entities"] = entities
        return record


class _Lexicon:
    """The lexicon entries' fields, each entry's words lowercased and split once."""

    def __init__(self, predicates: List[dict], entities: List[dict]):
        self.pred_words = [p["word"].lower().split() for p in predicates]
        self.symbols = [p["symbol"] for p in predicates]
        self.ent_words = [e["word"].lower().split() for e in entities]
        self.ids = [e["id"] for e in entities]
        self.types = [e["type"] for e in entities]


def _entries(config: dict, key: str, fields: Sequence[str],
             maps: Sequence[str] = ()) -> List[dict]:
    """The list under `key`: objects with string `fields` and optional
    string-valued objects `maps`."""
    entries = config.get(key)
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise SyntheticConfigError(
            f"grammar '{key}' must be a JSON list, not {type(entries).__name__}")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SyntheticConfigError(
                f"{key}[{k}] must be a JSON object, not {type(entry).__name__}")
        for name in fields:
            if not isinstance(entry.get(name), str):
                raise SyntheticConfigError(f"{key}[{k}] needs a string '{name}'")
        for name in maps:
            value = entry.get(name)
            if value is not None and not (isinstance(value, dict) and all(
                    isinstance(v, str) for v in value.values())):
                raise SyntheticConfigError(
                    f"{key}[{k}] '{name}' must be an object of strings")
    return entries


def gen_synthetic(config: Optional[dict] = None, seed: int = 0) -> List[CorpusExample]:
    """Expand a grammar config into a deterministic corpus."""
    config = config if config is not None else DEFAULT_GRAMMARS["lambda"]
    if not isinstance(config, dict):
        raise SyntheticConfigError(
            f"grammar must be a JSON object, not {type(config).__name__}")
    formalism = config.get("formalism", "lambda")
    if formalism not in FORMALISMS:
        raise SyntheticConfigError(f"unknown formalism {formalism!r}")
    entities = _entries(config, "entities", ("word", "id", "type"))
    predicates = _entries(config, "predicates", ("word", "symbol"))
    templates = _entries(config, "templates", ("utterance", "meaning"),
                         maps=("aligned", "types"))
    if not templates:
        raise SyntheticConfigError("grammar has no templates")
    cap = config.get("max_examples")
    if cap is not None and not (type(cap) is int and cap >= 0):
        raise SyntheticConfigError(
            f"max_examples must be an integer >= 0, got {cap!r:.60}")

    for k, entity in enumerate(entities):
        if entity["type"][-1:].isdigit():
            raise SyntheticConfigError(
                f"entities[{k}] type {entity['type']!r:.40} ends in a digit, so its "
                f"numbered markers could equal another type's")

    # Enumerate.  A combination that could fail is instantiated on the spot,
    # so the first error comes in enumeration order whatever the cap keeps;
    # the rest wait for the cut.
    lexicon = _Lexicon(predicates, entities)
    combos: List[tuple] = []
    records: List[Optional[dict]] = []
    for template in templates:
        t = _Template(template, formalism, lexicon)
        for slot in _slots_in(template["meaning"]):
            if slot not in t.slots:
                raise SyntheticConfigError(
                    f"meaning slot <{slot}> missing from utterance {t.text!r}")
        if t.p_slots and not predicates:
            raise SyntheticConfigError("empty predicate lexicon")
        if t.e_slots and not entities:
            raise SyntheticConfigError("empty entity lexicon")

        types = template.get("types") or {}
        pools = []
        for slot in t.e_slots:
            pool = [k for k, e in enumerate(entities)
                    if slot not in types or e["type"] == types[slot]]
            if not pool:
                raise SyntheticConfigError(f"no entities of type {types.get(slot)!r}")
            pools.append(pool)

        # A combination of plain entries (see _Template.plain) with distinct
        # predicate symbols gives the gold alignment the shape the template
        # alone sets, so the first such combination fails if any does, and
        # with the same message.  Every other combination is checked.
        pred_plain, ent_plain = t.plain()
        unchecked = True                      # no plain combination instantiated yet
        # permutations/product of zero slots yield one empty combo each
        ent_combos = [(ec, all(ent_plain[k] for k in ec))
                      for ec in itertools.product(*pools)
                      if len({lexicon.ids[k] for k in ec}) == len(ec)]  # distinct entities
        for pc in itertools.permutations(range(len(predicates)), len(t.p_slots)):
            pc_plain = (all(pred_plain[k] for k in pc)
                        and len({lexicon.symbols[k] for k in pc}) == len(pc))
            for ec, ec_plain in ent_combos:
                plain = pc_plain and ec_plain
                if unchecked or not plain:
                    records.append(t.instantiate(pc, ec))
                    unchecked = unchecked and not plain
                else:
                    records.append(None)
                combos.append((t, pc, ec))

    # Cut, then instantiate what the cut keeps.
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(combos))
    if cap is not None:
        order = order[:cap]
    order = order.tolist()
    for i in sorted(order):
        if records[i] is None:
            t, pc, ec = combos[i]
            records[i] = t.instantiate(pc, ec)
    return [example_from_record(records[i], example_id=k)
            for k, i in enumerate(order)]


def default_grammar(formalism: str) -> dict:
    import copy
    if formalism not in DEFAULT_GRAMMARS:
        raise SyntheticConfigError(f"no default grammar for {formalism!r}")
    return copy.deepcopy(DEFAULT_GRAMMARS[formalism])


_CITIES = ["boston", "denver", "chicago", "dallas", "atlanta", "seattle",
           "portland", "miami", "houston", "phoenix", "detroit", "orlando"]

_STATES = ["texas", "ohio", "georgia", "florida", "montana", "nevada",
           "oregon", "alabama", "colorado", "maine"]

DEFAULT_GRAMMARS: Dict[str, dict] = {
    "lambda": {
        "formalism": "lambda",
        "entities": [{"word": c, "id": f"{c}:ci", "type": "ci"} for c in _CITIES],
        "predicates": [
            {"word": "morning", "symbol": "morning"},
            {"word": "evening", "symbol": "evening"},
            {"word": "nonstop", "symbol": "nonstop"},
            {"word": "cheapest", "symbol": "cheapest"},
            {"word": "latest", "symbol": "latest"},
            {"word": "earliest", "symbol": "earliest"},
        ],
        "templates": [
            {"utterance": "list <P1> flights from <E1> to <E2>",
             "meaning": "( lambda $0 e ( and ( flight $0 ) ( <P1> $0 ) "
                        "( from $0 <E1> ) ( to $0 <E2> ) ) )",
             "aligned": {"flight": "flights", "from": "<E1>", "to": "<E2>"}},
            {"utterance": "show me <P1> flights departing <E1>",
             "meaning": "( lambda $0 e ( and ( flight $0 ) ( <P1> $0 ) "
                        "( from $0 <E1> ) ) )",
             "aligned": {"flight": "flights", "from": "<E1>"}},
            {"utterance": "what <P1> flights arrive in <E1>",
             "meaning": "( lambda $0 e ( and ( flight $0 ) ( <P1> $0 ) "
                        "( to $0 <E1> ) ) )",
             "aligned": {"flight": "flights", "to": "<E1>"}},
            {"utterance": "are there <P1> flights from <E1>",
             "meaning": "( lambda $0 e ( and ( flight $0 ) ( <P1> $0 ) "
                        "( from $0 <E1> ) ) )",
             "aligned": {"flight": "flights", "from": "<E1>"}},
            {"utterance": "find <P1> flights to <E1>",
             "meaning": "( lambda $0 e ( and ( flight $0 ) ( <P1> $0 ) "
                        "( to $0 <E1> ) ) )",
             "aligned": {"flight": "flights", "to": "<E1>"}},
            {"utterance": "i need a <P1> flight from <E1> to <E2>",
             "meaning": "( lambda $0 e ( and ( flight $0 ) ( <P1> $0 ) "
                        "( from $0 <E1> ) ( to $0 <E2> ) ) )",
             "aligned": {"flight": "flight", "from": "<E1>", "to": "<E2>"}},
        ],
        "max_examples": 400,
    },
    "sql": {
        "formalism": "sql",
        "entities": [{"word": s, "id": s, "type": "st"} for s in _STATES],
        "predicates": [
            {"word": "area", "symbol": "area"},
            {"word": "population", "symbol": "population"},
            {"word": "density", "symbol": "density"},
            {"word": "capital", "symbol": "capital"},
            {"word": "elevation", "symbol": "elevation"},
        ],
        "templates": [
            {"utterance": "what is the <P1> of <E1>",
             "meaning": 'select <P1> from state where state_name = "<E1>"',
             "aligned": {"state_name": "<E1>"}},
            {"utterance": "show the <P1> for <E1>",
             "meaning": 'select <P1> from state where state_name = "<E1>"',
             "aligned": {"state_name": "<E1>"}},
            {"utterance": "order the states by <P1>",
             "meaning": "select state_name from state order by <P1>",
             "aligned": {"state_name": "states"}},
            {"utterance": "which state has the largest <P1>",
             "meaning": "select state_name from state order by <P1> desc limit 1",
             "aligned": {"state_name": "state"}},
        ],
        "max_examples": 300,
    },
}
