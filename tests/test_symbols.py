"""Symbol extraction and entity-linking rules."""

import pytest

from tagparse.data import (MeaningParseError, MeaningRepresentation,
                           example_from_record, extract_symbols,
                           gen_synthetic, tokenize_meaning)
from tests.test_corpus import LAMBDA_ROW, SQL_ROW


def meaning(text, formalism):
    return MeaningRepresentation(tokenize_meaning(text, formalism), formalism)


def test_lambda_worked_example():
    got = extract_symbols(meaning(LAMBDA_ROW["meaning"], "lambda"))
    assert got == ["oneway", "from", "to", "day"]


def test_sql_worked_example():
    got = extract_symbols(meaning(SQL_ROW["meaning"], "sql"))
    assert got == ["area", "state_name"]


def test_repeated_predicate_appears_once():
    m = meaning("( and ( from $0 a:ci ) ( from $1 b:ci ) )", "lambda")
    assert extract_symbols(m) == ["from"]


def test_lambda_operators_and_variables_excluded():
    m = meaning("( lambda $0 e ( exists $1 ( and ( count $1 ) ( loc $0 $1 ) ) ) )",
                "lambda")
    assert extract_symbols(m) == ["loc"]


def test_unbalanced_parentheses_raise():
    with pytest.raises(MeaningParseError, match="unbalanced"):
        extract_symbols(meaning("( lambda $0 e ( flight $0 )", "lambda"))
    with pytest.raises(MeaningParseError, match="unbalanced"):
        extract_symbols(meaning("( flight $0 ) )", "lambda"))


def test_sql_aggregates_tables_and_literals_excluded():
    m = meaning('select count ( population ) from city where name = "boston" '
                "and size > 40 order by density", "sql")
    assert extract_symbols(m) == ["population", "name", "size", "density"]


def test_sql_group_by_columns_collected():
    m = meaning("select state_name from city group by state_name", "sql")
    assert extract_symbols(m) == ["state_name"]


def test_sql_must_start_with_select():
    with pytest.raises(MeaningParseError, match="select"):
        extract_symbols(meaning("delete from city", "sql"))


def test_extraction_invariants_on_synthetic_corpus():
    for formalism in ("lambda", "sql"):
        from tagparse.data import default_grammar
        for ex in gen_synthetic(default_grammar(formalism), seed=1)[:80]:
            symbols = extract_symbols(ex.meaning)
            assert len(symbols) == len(set(symbols))
            for s in symbols:
                assert s in ex.meaning.tokens


def test_lambda_entity_links():
    ex = example_from_record(LAMBDA_ROW, 0)
    fixed = ex.symbol_set.fixed_alignments
    assert fixed["day"] == (6,)
    assert fixed["from"] == (0,)
    assert fixed["to"] == (2,)
    assert "oneway" not in fixed  # no entity argument


def test_sql_entity_link():
    ex = example_from_record(SQL_ROW, 0)
    fixed = ex.symbol_set.fixed_alignments
    assert fixed["state_name"] == (5,)
    assert "area" not in fixed


def test_lambda_two_entity_arguments_not_linked():
    record = {
        "utterance": "flights between boston and denver",
        "meaning": "( lambda $0 e ( connect $0 boston:ci denver:ci ) )",
        "formalism": "lambda",
        "entities": [{"span": [2, 3], "id": "boston:ci", "type": "ci"},
                     {"span": [4, 5], "id": "denver:ci", "type": "ci"}],
    }
    fixed = example_from_record(record, 0).symbol_set.fixed_alignments
    assert "connect" not in fixed  # rule 1 needs a sole entity argument


def test_multiword_span_links_all_indices():
    record = {
        "utterance": "flights to new york city",
        "meaning": "( lambda $0 e ( to $0 new_york:ci ) )",
        "formalism": "lambda",
        "entities": [{"span": [2, 5], "id": "new_york:ci", "type": "ci"}],
    }
    fixed = example_from_record(record, 0).symbol_set.fixed_alignments
    assert fixed["to"] == (2, 3, 4)


def test_fixed_alignments_inside_bounds_over_synthetic_corpus():
    from tagparse.data import default_grammar
    for formalism in ("lambda", "sql"):
        for ex in gen_synthetic(default_grammar(formalism), seed=3)[:80]:
            for sym, indices in ex.symbol_set.fixed_alignments.items():
                assert sym in ex.symbol_set.symbols
                for i in indices:
                    assert 0 <= i < ex.utterance.n


def test_no_spans_leaves_symbol_set_unchanged():
    record = {"utterance": "list flights", "formalism": "lambda",
              "meaning": "( lambda $0 e ( flight $0 ) )"}
    ex = example_from_record(record, 0)
    assert ex.symbol_set.fixed_alignments == {}
