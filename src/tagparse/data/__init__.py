"""Corpus ingestion, symbols, entity handling, splits, synthetic data."""

from .corpus import (CorpusError, CorpusExample, EntitySpan, FORMALISMS,
                     MeaningRepresentation, SymbolSet, Utterance,
                     anonymize_entities, deanonymize_example,
                     deanonymize_tokens, template_id_for,
                     tokenize_meaning, tokenize_utterance)
from .loader import example_from_record, load_corpus, save_corpus
from .splits import SplitError, SplitSpec, make_split
from .symbols import MeaningParseError, extract_symbols
from .synthetic import SyntheticConfigError, default_grammar, gen_synthetic

__all__ = [
    "CorpusError", "CorpusExample", "EntitySpan", "FORMALISMS",
    "MeaningRepresentation", "SymbolSet", "Utterance",
    "anonymize_entities", "deanonymize_example", "deanonymize_tokens",
    "template_id_for", "tokenize_meaning", "tokenize_utterance",
    "example_from_record", "load_corpus", "save_corpus",
    "SplitError", "SplitSpec", "make_split",
    "MeaningParseError", "extract_symbols",
    "SyntheticConfigError", "default_grammar", "gen_synthetic",
]
