"""Synthetic corpus generation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagparse.data import (SyntheticConfigError, default_grammar,
                           extract_symbols, gen_synthetic)

from tests.oracles import eager_gen_synthetic


def cartesian_grammar(n_preds=5, n_ents=10, n_templates=4):
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


@st.composite
def synthetic_corpora(draw, max_size=12):
    """Up to `max_size` examples of a default grammar, or of a small cartesian
    grammar whose entity names run one to three words, under a drawn seed."""
    kind = draw(st.sampled_from(["lambda", "sql", "cartesian"]))
    if kind == "cartesian":
        grammar = cartesian_grammar(*(draw(st.integers(1, k)) for k in (4, 4, 3)))
        for entity in grammar["entities"]:
            entity["word"] += " heights" * draw(st.integers(0, 2))
    else:
        grammar = default_grammar(kind)
    grammar["max_examples"] = draw(st.integers(1, max_size))
    return gen_synthetic(grammar, seed=draw(st.integers(0, 2 ** 32 - 1)))


def test_cartesian_count():
    corpus = gen_synthetic(cartesian_grammar(), seed=0)
    assert len(corpus) == 5 * 10 * 4
    texts = {(ex.utterance.text(), ex.meaning.text()) for ex in corpus}
    assert len(texts) == 200  # all distinct


def test_extracted_symbols_match_template():
    for ex in gen_synthetic(cartesian_grammar(2, 3, 2), seed=0):
        frame = ex.utterance.tokens[0]          # frame{t}
        t = frame.removeprefix("frame")
        symbols = extract_symbols(ex.meaning)
        assert symbols[0] == f"shape{t}"
        assert symbols[-1] == "to"
        assert set(symbols) == set(ex.gold_alignment.keys())


def test_gold_alignments_injective():
    for ex in gen_synthetic(seed=0):
        used = []
        for indices in ex.gold_alignment.values():
            used.extend(indices)
        assert len(used) == len(set(used))


def test_gold_alignment_words_in_bounds():
    for ex in gen_synthetic(default_grammar("sql"), seed=2):
        for sym, indices in ex.gold_alignment.items():
            assert sym in ex.symbol_set.symbols
            for i in indices:
                assert 0 <= i < ex.utterance.n


def test_deterministic_given_config_and_seed():
    a = gen_synthetic(cartesian_grammar(), seed=7)
    b = gen_synthetic(cartesian_grammar(), seed=7)
    assert [(ex.utterance.tokens, ex.meaning.tokens) for ex in a] == \
           [(ex.utterance.tokens, ex.meaning.tokens) for ex in b]
    c = gen_synthetic(cartesian_grammar(), seed=8)
    assert [ex.utterance.tokens for ex in a] != [ex.utterance.tokens for ex in c]


def test_empty_lexicon_rejected():
    grammar = cartesian_grammar()
    grammar["predicates"] = []
    with pytest.raises(SyntheticConfigError, match="predicate"):
        gen_synthetic(grammar, seed=0)
    grammar = cartesian_grammar()
    grammar["entities"] = []
    with pytest.raises(SyntheticConfigError, match="entity"):
        gen_synthetic(grammar, seed=0)
    with pytest.raises(SyntheticConfigError, match="template"):
        gen_synthetic({"formalism": "lambda", "templates": []}, seed=0)


def test_distinct_entities_within_example():
    corpus = gen_synthetic(seed=0)
    for ex in corpus:
        ids = [s.entity_id for s in ex.utterance.entity_spans]
        assert len(ids) == len(set(ids))


def test_default_grammars_produce_linked_corpora():
    lam = gen_synthetic(default_grammar("lambda"), seed=0)
    assert len(lam) == 400  # max_examples cap
    linked = sum(1 for ex in lam if ex.symbol_set.fixed_alignments)
    assert linked == len(lam)  # every template has an entity-evoked symbol
    sql = gen_synthetic(default_grammar("sql"), seed=0)
    assert all(ex.meaning.formalism == "sql" for ex in sql)
    assert any(ex.symbol_set.fixed_alignments for ex in sql)


def test_entity_links_agree_with_gold_on_synthetic_data():
    # Rule-derived fixed alignments must be a sub-map of the construction
    # gold alignments, otherwise EM supervision would fight the gold truth.
    for ex in gen_synthetic(seed=4)[:100]:
        for sym, indices in ex.symbol_set.fixed_alignments.items():
            assert ex.gold_alignment.get(sym) == indices


def _edited(edit):
    grammar = cartesian_grammar(2, 2, 1)
    edit(grammar)
    return grammar


MALFORMED_GRAMMARS = {
    "a list": ([1], "grammar must be a JSON object, not list"),
    "unknown formalism": (_edited(lambda g: g.update(formalism="prolog")),
                          "unknown formalism 'prolog'"),
    "templates an object": (_edited(lambda g: g.update(templates={})),
                            "grammar 'templates' must be a JSON list, not dict"),
    "template without meaning": (_edited(lambda g: g["templates"][0].pop("meaning")),
                                 "templates[0] needs a string 'meaning'"),
    "template a string": (_edited(lambda g: g["templates"].append("x")),
                          "templates[1] must be a JSON object, not str"),
    "aligned to a number": (_edited(lambda g: g["templates"][0].update(aligned={"to": 1})),
                            "templates[0] 'aligned' must be an object of strings"),
    "predicate without symbol": (_edited(lambda g: g["predicates"][1].pop("symbol")),
                                 "predicates[1] needs a string 'symbol'"),
    "entity id a number": (_edited(lambda g: g["entities"][0].update(id=5)),
                           "entities[0] needs a string 'id'"),
    "max_examples a float": (_edited(lambda g: g.update(max_examples=2.5)),
                             "max_examples must be an integer >= 0, got 2.5"),
}


@pytest.mark.parametrize("case", list(MALFORMED_GRAMMARS))
def test_malformed_grammar_rejected(case):
    grammar, message = MALFORMED_GRAMMARS[case]
    with pytest.raises(SyntheticConfigError) as caught:
        gen_synthetic(grammar, seed=0)
    assert str(caught.value) == message


# Small pools, so that fills, fixed tokens, aligned words and symbols collide.
WORDS = ["flights", "to", "from", "Boston", "new york", "to boston", "", "  "]
SYMBOLS = ["p", "q", "to", "flight"]
REFS = ["<P3>", "flights", "To", "boston", "new", "x"]


@st.composite
def grammars(draw):
    """A small lambda grammar whose lexicon may have multiword, empty and
    repeated words and repeated symbols and ids, whose templates may repeat
    slots, align several symbols to one slot or word, filter entity types
    and name a meaning slot the utterance lacks, under any kind of cap."""
    sizes = st.sampled_from([0, 1, 2, 2, 3, 3, 3])
    predicates = [{"word": draw(st.sampled_from(WORDS)), "symbol": draw(st.sampled_from(SYMBOLS))}
                  for _ in range(draw(sizes))]
    entities = [{"word": draw(st.sampled_from(WORDS)), "id": f"{draw(st.sampled_from('xyz'))}:ci",
                 "type": draw(st.sampled_from(["ci", "st"]))}
                for _ in range(draw(sizes))]
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.lists(st.sampled_from(["list", "flights", "to", "from", "Boston",
                                                "<P1>", "<P2>", "<E1>", "<E2>"]),
                               min_size=1, max_size=6))
        slots = [t for t in dict.fromkeys(tokens) if t.startswith("<")]
        if draw(st.integers(0, 19)) == 19:
            slots.append("<E3>")                  # a meaning slot the utterance lacks
        groups = " ".join(f"( {'to $0' if s.startswith('<E') else ''} {s} $0 )" for s in slots)
        fixed = st.sampled_from(tokens)
        refs = st.one_of(st.sampled_from(slots or REFS), fixed, fixed, st.sampled_from(REFS))
        template = {"utterance": " ".join(tokens),
                    "meaning": f"( lambda $0 e ( and ( flight $0 ) {groups} ) )",
                    "aligned": draw(st.dictionaries(st.sampled_from(SYMBOLS), refs, max_size=3))}
        if draw(st.booleans()):
            template["types"] = {"E1": draw(st.sampled_from(["ci", "st"]))}
        templates.append(template)
    grammar = {"formalism": "lambda", "predicates": predicates, "entities": entities,
               "templates": templates}
    cap = draw(st.sampled_from([None, 0, 1, 3, 10, 1000]))
    if cap is not None:
        grammar["max_examples"] = cap
    return grammar


def outcome(generate, grammar, seed):
    try:
        return generate(grammar, seed=seed)
    except ValueError as exc:           # every data-layer error is one
        return type(exc), str(exc)


def one_template(utterance, meaning, aligned, predicates, entities=()):
    return {"formalism": "lambda", "predicates": list(predicates), "entities": list(entities),
            "templates": [{"utterance": utterance, "meaning": meaning, "aligned": aligned}],
            "max_examples": 1}


def flights(*groups):
    return f"( lambda $0 e ( and ( flight $0 ) {' '.join(groups)} ) )"


CITIES = [{"word": w, "id": f"{w or 'nowhere'}:ci", "type": "ci"} for w in ("", "boston", "denver")]
# Grammars where only some combinations fail, past the first one: the cap
# drops the failing ones at some seeds, and the generator must still raise.
FILL_DEPENDENT_FAULTS = {
    # the predicate whose symbol is the aligned symbol overwrites its own
    # entry; the other aligns two symbols to one word
    "predicate symbol is an aligned symbol": one_template(
        "list <P1> flights", flights("( <P1> $0 )"), {"morning": "<P1>"},
        [{"word": "morning", "symbol": "morning"}, {"word": "late", "symbol": "evening"}]),
    "aligned word only in some fills": one_template(
        "list <P1> flights", flights("( <P1> $0 )"), {"flight": "Nonstop"},
        [{"word": "nonstop", "symbol": "nonstop"}, {"word": "late", "symbol": "evening"}]),
    "filled word is an aligned word": one_template(
        "from <E1> to boston", flights("( from $0 <E1> )"), {"from": "<E1>", "to": "boston"},
        [], CITIES[1:][::-1]),
    "an empty fill spans no word": one_template(
        "flights from <E1>", flights("( from $0 <E1> )"), {"from": "<E1>", "to": "<E1>"},
        [], CITIES),
    "two predicates share a symbol": one_template(
        "<P1> <P2> flights", flights("( <P1> $0 )", "( <P2> $0 )"), {"flight": "<P1>"},
        [{"word": "a", "symbol": "x"}, {"word": "b", "symbol": "x"},
         {"word": "c", "symbol": "y"}]),
}


@pytest.mark.parametrize("case", list(FILL_DEPENDENT_FAULTS))
@pytest.mark.parametrize("cap", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_fault_in_a_combination_the_cap_drops_still_raises(case, cap, seed):
    grammar = {**FILL_DEPENDENT_FAULTS[case], "max_examples": cap}
    expected = outcome(eager_gen_synthetic, grammar, seed)
    assert expected[0] is SyntheticConfigError
    assert outcome(gen_synthetic, grammar, seed) == expected


TRAP = FILL_DEPENDENT_FAULTS["predicate symbol is an aligned symbol"]


@settings(max_examples=300)
@given(grammar=grammars())
@example(grammar={**cartesian_grammar(2, 3, 2), "max_examples": 4})
# a fill-dependent fault in one template comes before the next template's
# meaning slot that its utterance lacks
@example(grammar={**TRAP, "templates": [
    *TRAP["templates"], {"utterance": "<P1> flights", "meaning": flights("( <P2> $0 )")}]})
def test_generator_matches_the_eager_generator(grammar):
    # the same corpus, or the same first error, at every seed
    for seed in (0, 1, 2):
        assert outcome(gen_synthetic, grammar, seed) == outcome(eager_gen_synthetic, grammar, seed)


def test_entity_type_ending_in_a_digit_is_rejected_before_enumeration():
    # a type 'c1' entity's first marker would be type 'c' entity 10's: c10
    grammar = cartesian_grammar(2, 2, 1)
    grammar["entities"].append({"word": "paris", "id": "paris:c1", "type": "c1"})
    grammar["max_examples"] = 0
    with pytest.raises(SyntheticConfigError) as caught:
        gen_synthetic(grammar, seed=0)
    assert str(caught.value) == ("entities[2] type 'c1' ends in a digit, so its numbered "
                                 "markers could equal another type's")
