"""Corpus loading, tokenization, and entity anonymization."""

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagparse.data import (CorpusError, anonymize_entities, deanonymize_example,
                           deanonymize_tokens, example_from_record, load_corpus,
                           save_corpus, template_id_for, tokenize_meaning)
from tagparse.data.corpus import EntitySpan, _number_markers

from tests.test_synthetic import synthetic_corpora

LAMBDA_ROW = {
    "utterance": "columbus to chicago one way on thursday",
    "meaning": "( lambda $0 e ( and ( oneway $0 ) ( from $0 columbus:ci ) "
               "( to $0 chicago:ci ) ( day $0 thursday:da ) ) )",
    "formalism": "lambda",
    "entities": [
        {"span": [0, 1], "id": "columbus:ci", "type": "ci"},
        {"span": [2, 3], "id": "chicago:ci", "type": "ci"},
        {"span": [6, 7], "id": "thursday:da", "type": "da"},
    ],
}

SQL_ROW = {
    "utterance": "what is the area of washington",
    "meaning": 'select area from state where state_name = "washington"',
    "formalism": "sql",
    "entities": [{"span": [5, 6], "id": "washington", "type": "st"}],
}


def write_jsonl(path, records):
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")
    return path


def test_large_file_loads_every_line(tmp_path):
    path = write_jsonl(tmp_path / "geo.jsonl", [SQL_ROW] * 880)
    corpus = load_corpus(path)
    assert len(corpus) == 880
    assert corpus[879].example_id == 879


def test_empty_file_empty_corpus(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    assert load_corpus(tmp_path / "empty.jsonl") == []


def test_missing_meaning_names_line(tmp_path):
    path = write_jsonl(tmp_path / "bad.jsonl", [SQL_ROW, {"utterance": "hi", "formalism": "sql"}])
    with pytest.raises(CorpusError, match="line 2.*meaning"):
        load_corpus(path)


MISTYPED_LINES = {
    "utterance a number": ({**SQL_ROW, "utterance": 5},
                           "field 'utterance' must be a JSON string, not int"),
    "meaning a number": ({**SQL_ROW, "meaning": 5},
                         "field 'meaning' must be a JSON string, not int"),
    "entities a number": ({**SQL_ROW, "entities": 3},
                          "field 'entities' must be a JSON list, not int"),
    "entity span of strings": ({**SQL_ROW, "entities": [{"span": ["5", "6"], "id": "w",
                                                         "type": "st"}]},
                               "malformed entity annotation"),
    "gold alignment a list": ({**SQL_ROW, "gold_alignment": [1]},
                              "field 'gold_alignment' must be a JSON object, not list"),
    "gold indices a number": ({**SQL_ROW, "gold_alignment": {"x": 5}},
                              "gold alignment of 'x' must be a list of word indices "
                              "below 6, got 5"),
    "gold index past the utterance": ({**SQL_ROW, "utterance": "area washington",
                                       "entities": [], "gold_alignment": {"x": [9]}},
                                      "gold alignment of 'x' must be a list of word "
                                      "indices below 2, got [9]"),
    "a list": ([1], "a corpus line must be a JSON object, not list"),
}


@pytest.mark.parametrize("case", list(MISTYPED_LINES))
def test_mistyped_field_names_line(case, tmp_path):
    record, message = MISTYPED_LINES[case]
    path = write_jsonl(tmp_path / "bad.jsonl", [SQL_ROW, record])
    with pytest.raises(CorpusError) as caught:
        load_corpus(path)
    assert str(caught.value).startswith(f"line 2: {message}")


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(SQL_ROW) + "\n{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_unknown_formalism_rejected(tmp_path):
    path = write_jsonl(tmp_path / "bad.jsonl", [{**SQL_ROW, "formalism": "prolog"}])
    with pytest.raises(CorpusError, match="prolog"):
        load_corpus(path)


# every token class of each formalism; a lambda token is any run of
# characters other than whitespace and parentheses
LAMBDA_TOKENS = st.sampled_from(["(", ")"]) | st.from_regex(r"[^\s()]+", fullmatch=True)
SQL_TOKENS = st.one_of(
    st.from_regex(r'"[^"]*"', fullmatch=True), st.from_regex(r"'[^']*'", fullmatch=True),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*", fullmatch=True),
    st.from_regex(r"\d+(\.\d+)?", fullmatch=True),
    st.sampled_from(["<=", ">=", "!=", "<>", *"(),;*=<>+-/%"]))


@given(tokens=st.lists(LAMBDA_TOKENS, min_size=1, max_size=20), corpus=synthetic_corpora())
def test_lambda_tokenization_round_trip(tokens, corpus):
    worked = tokenize_meaning(LAMBDA_ROW["meaning"], "lambda")
    assert worked.count("(") == worked.count(")")
    for sequence in [tuple(tokens), worked, *(ex.meaning.tokens for ex in corpus)]:
        assert tokenize_meaning(" ".join(sequence), "lambda") == sequence
    for ex in corpus:
        text = ex.meaning.text()
        assert tokenize_meaning(text, ex.meaning.formalism) == ex.meaning.tokens
        if ex.meaning.formalism == "lambda":
            tight = text.replace("( ", "(").replace(" )", ")")
            assert tokenize_meaning(tight, "lambda") == ex.meaning.tokens


@given(st.lists(SQL_TOKENS, min_size=1, max_size=20))
def test_sql_tokenization_keeps_quoted_literals_whole(tokens):
    worked = tokenize_meaning(SQL_ROW["meaning"], "sql")
    assert '"washington"' in worked
    for sequence in (tuple(tokens), worked):
        assert tokenize_meaning(" ".join(sequence), "sql") == sequence


def test_sql_tokenization_splits_punctuation():
    tokens = tokenize_meaning("select max(population),name from city;", "sql")
    assert tokens == ("select", "max", "(", "population", ")", ",", "name",
                      "from", "city", ";")


def test_overlapping_spans_rejected():
    record = {**SQL_ROW, "entities": [
        {"span": [0, 2], "id": "a", "type": "t"},
        {"span": [1, 3], "id": "b", "type": "t"},
    ]}
    with pytest.raises(CorpusError, match="overlap"):
        example_from_record(record, 0)


def test_span_out_of_bounds_rejected():
    record = {**SQL_ROW, "entities": [{"span": [5, 9], "id": "a", "type": "t"}]}
    with pytest.raises(CorpusError, match="out of bounds"):
        example_from_record(record, 0)


def test_anonymize_two_cities_numbered_markers():
    ex = example_from_record(LAMBDA_ROW, 0)
    anon = anonymize_entities(ex)
    assert anon.utterance.tokens == ("ci0", "to", "ci1", "one", "way", "on", "da0")
    assert "ci0" in anon.meaning.tokens and "ci1" in anon.meaning.tokens
    assert "columbus:ci" not in anon.meaning.tokens
    assert not anon.flagged


def test_anonymize_no_entities_identity():
    record = {"utterance": "list flights", "formalism": "lambda",
              "meaning": "( lambda $0 e ( flight $0 ) )"}
    ex = example_from_record(record, 0)
    assert anonymize_entities(ex) is ex


def test_anonymize_same_entity_twice_same_marker():
    record = {
        "utterance": "from boston to boston",
        "meaning": "( lambda $0 e ( and ( from $0 boston:ci ) ( to $0 boston:ci ) ) )",
        "formalism": "lambda",
        "entities": [{"span": [1, 2], "id": "boston:ci", "type": "ci"},
                     {"span": [3, 4], "id": "boston:ci", "type": "ci"}],
    }
    anon = anonymize_entities(example_from_record(record, 0))
    assert anon.utterance.tokens == ("from", "ci0", "to", "ci0")
    assert anon.meaning.tokens.count("ci0") == 2


def marker_collision_record(odd_type="c1"):
    """Eleven type-'c' entities and one of `odd_type`: with type 'c1', that
    entity's first marker and type 'c''s eleventh are both 'c10'."""
    entities = [{"span": [k, k + 1], "id": f"w{k}", "type": "c"} for k in range(11)]
    entities.append({"span": [11, 12], "id": "w11", "type": odd_type})
    return {"utterance": " ".join(f"w{k}" for k in range(12)), "formalism": "sql",
            "meaning": "select x from t where " + " and ".join(f'y = "w{k}"' for k in range(12)),
            "entities": entities}


def test_entity_type_ending_in_a_digit_is_rejected():
    record = marker_collision_record()
    markers = _number_markers(EntitySpan(*e["span"], e["id"], e["type"])
                              for e in record["entities"])
    assert markers["w10"] == markers["w11"] == "c10"
    with pytest.raises(CorpusError) as caught:
        example_from_record(record, 0)
    assert str(caught.value) == ("entity type 'c1' ends in a digit, so its numbered "
                                 "markers could equal another type's")
    anon = anonymize_entities(example_from_record(marker_collision_record("cx"), 0))
    assert deanonymize_example(anon).meaning == example_from_record(
        marker_collision_record("cx"), 0).meaning


def test_anonymize_collapses_multiword_spans():
    record = {
        "utterance": "flights to new york city today",
        "meaning": "( lambda $0 e ( to $0 new_york:ci ) )",
        "formalism": "lambda",
        "entities": [{"span": [2, 5], "id": "new_york:ci", "type": "ci"}],
    }
    ex = example_from_record(record, 0)
    anon = anonymize_entities(ex)
    assert anon.utterance.tokens == ("flights", "to", "ci0", "today")
    span = anon.utterance.entity_spans[0]
    assert (span.start, span.end, span.entity_id) == (2, 3, "ci0")
    # index-bearing fields follow the collapse: the linked "to" span
    # shrinks from the three span words to the single marker position
    assert ex.symbol_set.fixed_alignments == {"to": (2, 3, 4)}
    assert anon.symbol_set.fixed_alignments == {"to": (2,)}
    assert anon.symbol_set.padded_length == 4
    back = deanonymize_example(anon)
    assert back.symbol_set == ex.symbol_set


def test_anonymize_remaps_gold_alignments():
    record = {
        "utterance": "flights to new york city today",
        "meaning": "( lambda $0 e ( and ( flight $0 ) ( to $0 new_york:ci ) ) )",
        "formalism": "lambda",
        "entities": [{"span": [2, 5], "id": "new_york:ci", "type": "ci"}],
        "gold_alignment": {"flight": [0], "to": [2, 3, 4]},
    }
    ex = example_from_record(record, 0)
    anon = anonymize_entities(ex)
    assert anon.gold_alignment == {"flight": (0,), "to": (2,)}
    assert deanonymize_example(anon).gold_alignment == ex.gold_alignment


def worked_rows():
    return [example_from_record(LAMBDA_ROW, 0), example_from_record(SQL_ROW, 1)]


def assert_indices_within(alignments, n):
    for indices in (alignments or {}).values():
        assert all(0 <= i < n for i in indices)


@given(synthetic_corpora())
def test_anonymize_then_deanonymize_is_identity(corpus):
    for ex in worked_rows() + corpus:
        anon = anonymize_entities(ex)
        # every index-bearing field of the anonymized example fits its utterance
        n = anon.utterance.n
        assert anon.symbol_set.padded_length == n
        assert all(0 <= s.start < s.end <= n for s in anon.utterance.entity_spans)
        assert_indices_within(anon.symbol_set.fixed_alignments, n)
        assert_indices_within(anon.gold_alignment, n)
        back = deanonymize_example(anon)
        assert back.utterance == ex.utterance
        assert back.meaning == ex.meaning
        assert back.symbol_set == ex.symbol_set
        assert back.gold_alignment == ex.gold_alignment


def test_sql_anonymization_preserves_quoting():
    anon = anonymize_entities(example_from_record(SQL_ROW, 0))
    assert '"st0"' in anon.meaning.tokens
    restored = deanonymize_tokens(anon.meaning.tokens, anon.entity_map)
    assert '"washington"' in restored


def test_meaning_entity_without_span_flags_example():
    record = {**LAMBDA_ROW, "entities": LAMBDA_ROW["entities"][:2]}  # drop thursday
    anon = anonymize_entities(example_from_record(record, 0))
    assert anon.flagged
    assert "thursday:da" in anon.meaning.tokens  # left verbatim


def test_template_id_is_function_of_meaning():
    ex = example_from_record(LAMBDA_ROW, 0)
    # Same meaning with different utterance word order gives the same id.
    flipped = {
        **LAMBDA_ROW,
        "utterance": "thursday one way columbus to chicago",
        "entities": [
            {"span": [0, 1], "id": "thursday:da", "type": "da"},
            {"span": [3, 4], "id": "columbus:ci", "type": "ci"},
            {"span": [5, 6], "id": "chicago:ci", "type": "ci"},
        ],
    }
    assert example_from_record(flipped, 1).template_id == ex.template_id
    assert "ci0" in ex.template_id and "da0" in ex.template_id


@given(synthetic_corpora())
def test_save_load_round_trip(tmp_path_factory, corpus):
    # Mixed formalisms per line survive the trip.
    original = worked_rows() + [replace(ex, example_id=ex.example_id + 2) for ex in corpus]
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    save_corpus(path, original)
    loaded = load_corpus(path)
    assert len(loaded) == len(original)
    for a, b in zip(original, loaded):
        assert a.example_id == b.example_id
        assert a.utterance == b.utterance
        assert a.meaning == b.meaning
        assert a.symbol_set == b.symbol_set
        assert a.template_id == b.template_id
        assert a.gold_alignment == b.gold_alignment
