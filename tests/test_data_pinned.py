"""The data layer's derived output, pinned by one digest.

Every derived field of every corpus the suite leans on is hashed: the
loaded example (symbols, fixed alignments, template id, gold alignment),
its anonymized and de-anonymized forms, `deanonymize_tokens` on the
anonymized meaning (markers bare and re-quoted), and `normalize_tokens`.
Fixed alignments are hashed as sorted items, so only their contents
count.  A refactor of corpus loading, symbol extraction, entity linking
or anonymization must leave the digest unchanged.
"""

import hashlib
import json

from tagparse.data import (anonymize_entities, deanonymize_example,
                           deanonymize_tokens, default_grammar,
                           example_from_record, gen_synthetic)
from tagparse.evaluation import normalize_tokens

from tests.test_corpus import LAMBDA_ROW, SQL_ROW
from tests.test_pipeline import FLIGHT_ROWS, GEO_ROWS
from tests.test_synthetic import cartesian_grammar

PINNED = "bc2437a3af109fee417e9d3770804171cb252975fa010cc46532b6e9602969c4"


def corpora():
    yield gen_synthetic(cartesian_grammar(5, 6, 4), seed=0)
    for seed in (0, 1, 2):
        for formalism in ("lambda", "sql"):
            yield gen_synthetic(default_grammar(formalism), seed=seed)
    rows = [LAMBDA_ROW, SQL_ROW, *FLIGHT_ROWS, *GEO_ROWS]
    yield [example_from_record(row, k) for k, row in enumerate(rows)]


def fields(ex):
    sset = ex.symbol_set
    return [ex.example_id, ex.utterance.tokens,
            [(s.start, s.end, s.entity_id, s.entity_type) for s in ex.utterance.entity_spans],
            ex.meaning.formalism, ex.meaning.tokens, sset.symbols, sset.padded_length,
            sorted(sset.fixed_alignments.items()), ex.template_id,
            None if ex.gold_alignment is None else sorted(ex.gold_alignment.items()),
            ex.entity_map, ex.flagged]


def digest():
    h = hashlib.sha256()
    for corpus in corpora():
        for ex in corpus:
            anon = anonymize_entities(ex)
            markers = anon.entity_map or {}
            requoted = [f'"{t}"' if t in markers else t for t in anon.meaning.tokens]
            parts = [fields(ex), fields(anon), fields(deanonymize_example(anon)),
                     [deanonymize_tokens(anon.meaning.tokens, anon.entity_map),
                      deanonymize_tokens(requoted, anon.entity_map)],
                     [normalize_tokens(ex.meaning), normalize_tokens(anon.meaning)]]
            h.update(json.dumps(parts, sort_keys=True).encode())
    return h.hexdigest()


def test_derived_data_matches_the_pinned_digest():
    assert digest() == PINNED
