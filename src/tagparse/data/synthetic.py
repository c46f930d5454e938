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
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Sequence

import numpy as np

from .corpus import FORMALISMS, CorpusExample
from .loader import example_from_record

__all__ = ["SyntheticConfigError", "gen_synthetic", "DEFAULT_GRAMMARS",
           "default_grammar"]


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


def _instantiate(template: dict, formalism: str, pred_fill: Dict[str, dict],
                 ent_fill: Dict[str, dict]) -> dict:
    utt_tokens: List[str] = []
    entities = []
    slot_span: Dict[str, range] = {}
    for token in template["utterance"].split():
        m = _SLOT.match(token)
        if not m:
            utt_tokens.append(token.lower())
            continue
        slot = token.strip("<>")
        if m.group(1) == "P":
            words = pred_fill[slot]["word"].lower().split()
        else:
            words = ent_fill[slot]["word"].lower().split()
        start = len(utt_tokens)
        utt_tokens.extend(words)
        slot_span[slot] = range(start, len(utt_tokens))
        if m.group(1) == "E":
            ent = ent_fill[slot]
            entities.append({"span": [start, len(utt_tokens)],
                             "id": ent["id"], "type": ent["type"]})

    meaning = template["meaning"]
    for slot, pred in pred_fill.items():
        meaning = meaning.replace(f"<{slot}>", pred["symbol"])
    for slot, ent in ent_fill.items():
        meaning = meaning.replace(f"<{slot}>", ent["id"])

    gold: Dict[str, List[int]] = {}
    for slot, pred in pred_fill.items():
        gold[pred["symbol"]] = list(slot_span[slot])
    for symbol, ref in (template.get("aligned") or {}).items():
        m = _SLOT.match(ref)
        if m:
            if ref.strip("<>") not in slot_span:
                raise SyntheticConfigError(
                    f"aligned ref {ref} not a slot of template {template['utterance']!r}")
            gold[symbol] = list(slot_span[ref.strip("<>")])
        else:
            word = ref.lower()
            if word not in utt_tokens:
                raise SyntheticConfigError(
                    f"aligned word {ref!r} absent from {' '.join(utt_tokens)!r}")
            gold[symbol] = [utt_tokens.index(word)]

    used: set = set()
    for symbol, indices in gold.items():
        if used & set(indices):
            raise SyntheticConfigError(
                f"gold alignment not injective in template {template['utterance']!r}")
        used.update(indices)

    record = {"utterance": " ".join(utt_tokens), "meaning": meaning,
              "formalism": formalism, "gold_alignment": gold}
    if entities:
        record["entities"] = entities
    return record


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

    records: List[dict] = []
    for template in templates:
        slots = _slots_in(template["utterance"])
        p_slots = [s for s in slots if s.startswith("P")]
        e_slots = [s for s in slots if s.startswith("E")]
        for slot in _slots_in(template["meaning"]):
            if slot not in slots:
                raise SyntheticConfigError(
                    f"meaning slot <{slot}> missing from utterance "
                    f"{template['utterance']!r}")
        if p_slots and not predicates:
            raise SyntheticConfigError("empty predicate lexicon")
        if e_slots and not entities:
            raise SyntheticConfigError("empty entity lexicon")

        types = template.get("types") or {}
        e_choices = []
        for slot in e_slots:
            pool = [e for e in entities
                    if slot not in types or e["type"] == types[slot]]
            if not pool:
                raise SyntheticConfigError(f"no entities of type {types.get(slot)!r}")
            e_choices.append(pool)

        # permutations/product of zero slots yield one empty combo each.
        for pred_combo in itertools.permutations(predicates, len(p_slots)):
            for ent_combo in itertools.product(*e_choices):
                if len({e["id"] for e in ent_combo}) != len(ent_combo):
                    continue  # distinct entities per example
                records.append(_instantiate(
                    template, formalism,
                    dict(zip(p_slots, pred_combo)),
                    dict(zip(e_slots, ent_combo))))

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    if cap is not None:
        order = order[:cap]
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
