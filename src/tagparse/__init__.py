"""Two-stage semantic parsing toolkit.

Stage one tags each utterance word with the meaning-representation symbol
it evokes (or a null tag), trained with soft-then-hard EM over latent
word/symbol alignments.  Stage two is an attention-based encoder-decoder
whose encoder reads tag embeddings concatenated to word embeddings and
emits the full meaning representation.  Everything runs on a small
reverse-mode autodiff core over float64 numpy arrays.
"""

__version__ = "0.1.0"

from .data import (CorpusError, CorpusExample, EntitySpan, MeaningParseError,
                   MeaningRepresentation, SymbolSet, SyntheticConfigError,
                   Utterance, anonymize_entities, deanonymize_tokens,
                   default_grammar, extract_symbols, gen_synthetic,
                   load_corpus, save_corpus, tokenize_meaning,
                   tokenize_utterance)
from .data.splits import SplitError, SplitSpec, make_split
from .em import (AlignmentPosterior, EmConfig, EmError, compute_posteriors,
                 em_loss, gold_tag_ids, harden_posteriors, tag_accuracy,
                 train_tagger)
from .evaluation import (ERROR_CLASSES, EvalError, EvalReport,
                         aggregate_reports, classify_error, evaluate,
                         exact_match, normalize_tokens, report_table)
from .experiment import (ExperimentError, code_version, predict_records,
                         resolve_config, run_experiment)
from .parser import (DecodeConfig, DecodeResult, ParseResult, ParserConfig,
                     ParserError, ParserParams, decode, init_parser,
                     load_parser, parse, save_parser, train_parser)
from .tagger import (TaggerConfig, TaggerParams, TagVocabulary, init_tagger,
                     load_tagger, predict_tags, save_tagger, tag_distribution)

__all__ = [
    "__version__",
    # data
    "CorpusError", "CorpusExample", "EntitySpan", "MeaningParseError",
    "MeaningRepresentation", "SymbolSet", "SyntheticConfigError", "Utterance",
    "anonymize_entities", "deanonymize_tokens", "default_grammar",
    "extract_symbols", "gen_synthetic", "load_corpus", "save_corpus",
    "tokenize_meaning", "tokenize_utterance",
    "SplitError", "SplitSpec", "make_split",
    # tagger and EM training
    "TaggerConfig", "TaggerParams", "TagVocabulary", "init_tagger",
    "load_tagger", "predict_tags", "save_tagger", "tag_distribution",
    "AlignmentPosterior", "EmConfig", "EmError", "compute_posteriors",
    "em_loss", "gold_tag_ids", "harden_posteriors", "tag_accuracy",
    "train_tagger",
    # parser
    "DecodeConfig", "DecodeResult", "ParseResult", "ParserConfig",
    "ParserError", "ParserParams", "decode", "init_parser",
    "load_parser", "parse", "save_parser", "train_parser",
    # evaluation and experiments
    "ERROR_CLASSES", "EvalError", "EvalReport", "aggregate_reports",
    "classify_error", "evaluate", "exact_match", "normalize_tokens",
    "report_table",
    "ExperimentError", "code_version", "predict_records", "resolve_config",
    "run_experiment",
]
