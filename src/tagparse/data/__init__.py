"""Corpus ingestion, symbols, entity handling, splits, synthetic data."""

from .corpus import (CorpusError, CorpusExample, EntitySpan, FORMALISMS,
                     MeaningRepresentation, SymbolSet, Utterance,
                     anonymize_entities, deanonymize_example,
                     deanonymize_tokens, template_id_for,
                     tokenize_meaning, tokenize_utterance)
from .loader import corpus_to_records, example_from_record, load_corpus, save_corpus
from .splits import SECTION_NAMES, SplitError, SplitSpec, make_split
from .symbols import (LAMBDA_OPERATORS, MeaningParseError, SQL_AGGREGATES,
                      SQL_KEYWORDS, entity_link, extract_symbols)
from .synthetic import (DEFAULT_GRAMMARS, SyntheticConfigError,
                        default_grammar, gen_synthetic)

__all__ = [
    "CorpusError", "CorpusExample", "EntitySpan", "FORMALISMS",
    "MeaningRepresentation", "SymbolSet", "Utterance",
    "anonymize_entities", "deanonymize_example", "deanonymize_tokens",
    "template_id_for", "tokenize_meaning", "tokenize_utterance",
    "corpus_to_records", "example_from_record", "load_corpus", "save_corpus",
    "SECTION_NAMES", "SplitError", "SplitSpec", "make_split",
    "LAMBDA_OPERATORS", "MeaningParseError", "SQL_AGGREGATES", "SQL_KEYWORDS",
    "entity_link", "extract_symbols",
    "DEFAULT_GRAMMARS", "SyntheticConfigError", "default_grammar", "gen_synthetic",
]
