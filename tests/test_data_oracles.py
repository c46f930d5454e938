"""The one-reading data layer against the old readers and scans in `oracles`.

Symbol extraction and entity linking now share one reading of each form,
and one entity-reference rule serves template ids, anonymization,
de-anonymization and linking.  Property tests draw well-formed lambda and
SQL forms with random entity spans and require the same symbols, fixed
alignments, template ids, anonymized examples, restored tokens and
normalized tokens as the old functions.  Extraction is also compared on
arbitrary token soup, errors included.  The generators leave out the two
forms whose linking changed on purpose; the last two tests pin those.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagparse.data import (MeaningParseError, MeaningRepresentation, SymbolSet,
                           anonymize_entities, deanonymize_tokens,
                           example_from_record, extract_symbols)
from tagparse.data.symbols import LAMBDA_OPERATORS
from tagparse.evaluation import normalize_tokens

from tests import oracles

ENTITY_IDS = ["boston:ci", "denver:ci", "monday:da", "texas", "new_york", "ohio"]
TYPES = ["ci", "da", "st"]
PREDICATES = ["from", "to", "day", "flight", "f", "loc"]
COLUMNS = ["area", "state_name", "population", "name", "size"]
WORDS = ["show", "me", "flights", "to", "from", "what", "is", "the", "of", "on"]


def quoted(draw, ent_id):
    return draw(st.sampled_from([ent_id, f'"{ent_id}"', f"'{ent_id}'"]))


@st.composite
def lambda_group(draw, depth=0):
    """`( head child ... )`: the head is an atom, never a nested group."""
    head = draw(st.sampled_from(PREDICATES + sorted(LAMBDA_OPERATORS) + ["$0", "$1"]
                                + ENTITY_IDS))
    tokens = ["(", head]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["var", "entity", "entity", "atom", "group"]))
        if kind == "group" and depth < 3:
            tokens += draw(lambda_group(depth + 1))
        elif kind == "var":
            tokens.append(draw(st.sampled_from(["$0", "$1", "e"])))
        elif kind == "atom":
            tokens.append(draw(st.sampled_from(PREDICATES + ["and", "count"])))
        else:
            tokens.append(quoted(draw, draw(st.sampled_from(ENTITY_IDS))))
    return tokens + [")"]


@st.composite
def sql_form(draw):
    """A flat SELECT with filters, `group by` / `order by` and literals."""
    def column():
        col = draw(st.sampled_from(COLUMNS))
        if draw(st.booleans()):
            return [draw(st.sampled_from(["count", "max", "avg"])), "(", col, ")"]
        return [col]

    def value():
        kind = draw(st.sampled_from(["entity", "entity", "number", "column"]))
        if kind == "entity":
            return quoted(draw, draw(st.sampled_from(ENTITY_IDS[3:])))
        if kind == "number":
            return draw(st.sampled_from(["40", "3.5"]))
        return draw(st.sampled_from(COLUMNS))

    def conditions():
        out = []
        for k in range(draw(st.integers(1, 3))):
            if k:
                out.append(draw(st.sampled_from(["and", "or"])))
            out += [draw(st.sampled_from(COLUMNS)),
                    draw(st.sampled_from(["=", "<", ">", "<=", ">=", "!=", "<>", "like"])),
                    value()]
        return out

    tokens = ["select", *column()]
    for _ in range(draw(st.integers(0, 2))):
        tokens += [",", *column()]
    tokens += ["from", draw(st.sampled_from(["state", "city"]))]
    if draw(st.booleans()):
        tokens += ["where", *conditions()]
    if draw(st.booleans()):
        tokens += ["group", "by", draw(st.sampled_from(COLUMNS))]
        if draw(st.booleans()):
            tokens += ["having", *conditions()]
    if draw(st.booleans()):
        tokens += ["order", "by", draw(st.sampled_from(COLUMNS))]
        tokens += draw(st.sampled_from([[], ["desc"], ["asc", "limit", "1"]]))
    return tokens


@st.composite
def records(draw):
    """A corpus record with a drawn form and random non-overlapping spans,
    listed in random order.  Span ids mostly name entities of the form, and
    they may repeat, with the same or another type."""
    formalism = draw(st.sampled_from(["lambda", "sql"]))
    tokens = draw(lambda_group()) if formalism == "lambda" else draw(sql_form())
    named = [e for e in ENTITY_IDS if any(t.strip("'\"") == e for t in tokens)]
    words = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=10))
    cuts = sorted(draw(st.sets(st.integers(0, len(words)), min_size=2, max_size=8)))
    spans = [{"span": [lo, hi], "id": draw(st.sampled_from(named * 3 + ENTITY_IDS)),
              "type": draw(st.sampled_from(TYPES))}
             for lo, hi in zip(cuts[::2], cuts[1::2]) if draw(st.integers(0, 3))]
    return {"utterance": " ".join(words), "meaning": " ".join(tokens),
            "formalism": formalism,
            "entities": draw(st.permutations(spans))}


def old_example(record, example_id):
    """The old loader: extract, then link in a second reading."""
    ex = example_from_record(record, example_id)
    base = replace(ex, symbol_set=SymbolSet(tuple(oracles.extract_symbols(ex.meaning)),
                                            padded_length=ex.utterance.n),
                   template_id=oracles.template_id_for(ex.meaning, ex.utterance.entity_spans))
    return replace(base, symbol_set=oracles.entity_link(base))


@settings(max_examples=400)
@given(records())
def test_loading_and_anonymizing_match_the_old_functions(record):
    new, old = example_from_record(record, 7), old_example(record, 7)
    assert new.symbol_set.symbols == old.symbol_set.symbols
    assert dict(new.symbol_set.fixed_alignments) == dict(old.symbol_set.fixed_alignments)
    assert new.template_id == old.template_id
    assert new == old
    anon, old_anon = anonymize_entities(new), oracles.anonymize_entities(old)
    assert anon == old_anon
    assert list((anon.entity_map or {}).items()) == list((old_anon.entity_map or {}).items())
    markers = anon.entity_map or {}
    for tokens in (anon.meaning.tokens,
                   [f'"{t}"' if t in markers else t for t in anon.meaning.tokens],
                   [f"'{t}'" if t in markers else t for t in anon.meaning.tokens]):
        assert deanonymize_tokens(tokens, anon.entity_map) == \
            oracles.deanonymize_tokens(tokens, anon.entity_map)
    for meaning in (new.meaning, anon.meaning):
        assert normalize_tokens(meaning) == oracles.normalize_tokens(meaning)


LAMBDA_SOUP = ["(", ")", "(", ")", "lambda", "$0", "and", "from", "to", "boston:ci",
               '"boston:ci"', "denver:ci", "count", "e"]
SQL_SOUP = ["select", "from", "where", "having", "group", "order", "by", "GROUP", "By",
            "area", "name", "count", "(", ")", "=", "<", "like", "and", '"texas"', "'ohio'",
            "texas", "40", "state"]


def extracted(extract, meaning):
    try:
        return extract(meaning)
    except MeaningParseError as exc:
        return f"error: {exc}"


@given(st.lists(st.sampled_from(LAMBDA_SOUP), min_size=1))
def test_lambda_extraction_matches_the_old_extractor_on_any_tokens(tokens):
    meaning = MeaningRepresentation(tuple(tokens), "lambda")
    assert extracted(extract_symbols, meaning) == extracted(oracles.extract_symbols, meaning)


@given(st.lists(st.sampled_from(SQL_SOUP), min_size=1))
def test_sql_extraction_matches_the_old_extractor_on_any_tokens(tokens):
    meaning = MeaningRepresentation(tuple(tokens), "sql")
    assert extracted(extract_symbols, meaning) == extracted(oracles.extract_symbols, meaning)


def without_changed_forms(tokens, formalism):
    """Give every group a head, and every `group`/`order` its `by`."""
    out = []
    for token in tokens:
        if formalism == "lambda" and token == "(" and out[-1:] == ["("]:
            out.append("from")
        if formalism == "sql" and out and out[-1].lower() in ("group", "order") \
                and token.lower() != "by":
            out.append("by")
        out.append(token)
    if formalism == "sql" and out[-1].lower() in ("group", "order"):
        out.append("by")
    return out


def loaded(load, record):
    try:
        return load(record, 0)
    except MeaningParseError as exc:
        return f"error: {exc}"


@settings(max_examples=400)
@given(st.data())
def test_linking_matches_the_old_linker_on_any_tokens(data):
    formalism = data.draw(st.sampled_from(["lambda", "sql"]))
    sql = formalism == "sql"
    soup = SQL_SOUP if sql else LAMBDA_SOUP
    entities = ["texas", "ohio"] if sql else ["boston:ci", "denver:ci"]
    # soup tokens mixed with comparisons (SQL) or entity arguments (lambda)
    named = st.sampled_from(entities).flatmap(lambda e: st.sampled_from([e, f'"{e}"', f"'{e}'"]))
    chunk = st.one_of(st.sampled_from(soup).map(lambda t: [t]),
                      st.tuples(st.sampled_from(["area", "name", "from", "to"]),
                                st.sampled_from(["=", "<", "like"] if sql else ["$0", "e"]),
                                named).map(list))
    tokens = sum(data.draw(st.lists(chunk, min_size=1)), [])
    tokens = without_changed_forms(["select"] * sql + tokens, formalism)
    spans = [{"span": [k, k + 1], "id": data.draw(st.sampled_from(entities)), "type": "ci"}
             for k in range(data.draw(st.integers(0, 3)))]
    record = {"utterance": "a b c", "meaning": " ".join(tokens), "formalism": formalism,
              "entities": spans}
    assert loaded(example_from_record, record) == loaded(old_example, record)


def test_a_group_opening_with_a_nested_group_has_no_head_to_link():
    # the old linker took the outer group's first top-level atom, `p`, as its head
    record = {"utterance": "p flights to boston", "formalism": "lambda",
              "meaning": "( and ( p $0 ) ( ( f $0 ) p boston:ci ) )",
              "entities": [{"span": [3, 4], "id": "boston:ci", "type": "ci"}]}
    new = example_from_record(record, 0)
    assert new.symbol_set.symbols == ("p", "f")
    assert new.symbol_set.fixed_alignments == {}
    assert old_example(record, 0).symbol_set.fixed_alignments == {"p": (3,)}


@pytest.mark.parametrize("keyword", ["group", "order"])
def test_a_bare_group_or_order_keeps_the_filter_clause_for_linking(keyword):
    # the old linker cleared its clause on any `group`/`order`; the extractor
    # (and now both) only leaves the filter on `group by` / `order by`
    record = {"utterance": "area of texas in ohio", "formalism": "sql",
              "meaning": f'select area from state where name = "texas" {keyword} size = "ohio"',
              "entities": [{"span": [2, 3], "id": "texas", "type": "st"},
                           {"span": [4, 5], "id": "ohio", "type": "st"}]}
    new = example_from_record(record, 0)
    assert new.symbol_set.symbols == ("area", "name", "size")
    assert new.symbol_set.fixed_alignments == {"name": (2,), "size": (4,)}
    assert old_example(record, 0).symbol_set.fixed_alignments == {"name": (2,)}
