"""Per-word semantic tagger: p(z|x) factorized over words.

Words are embedded, contextualized by a bidirectional LSTM, and each
position i gets a softmax over the tag vocabulary from both the hidden
state h_i and the word embedding w_i:

    p(z_i = t | x) = softmax(W h_i + U w_i + b)_t

Rows are conditionally independent given x, so the sequence argmax is
the per-row argmax.  The tag vocabulary holds every symbol observed in
training plus a null tag (id 0) for words that evoke no symbol and an
unknown-symbol id (id 1) for test-time symbols never seen in training.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import (CheckpointError, config_from_fields, load_checkpoint,
                         meta_vocab, save_checkpoint, stored)
from .nn import UNK, BiLstmEncoder, Vocab, drawn

__all__ = ["NULL_TAG", "UNK_TAG", "TagVocabulary", "TaggerConfig",
           "TaggerParams", "init_tagger", "tag_distribution",
           "predict_tags", "save_tagger", "load_tagger"]

NULL_TAG = "<null>"
UNK_TAG = "<unk-symbol>"


class TagVocabulary:
    """Tag id space: null is 0, unknown-symbol is 1, then known symbols."""

    def __init__(self, symbols: Iterable[str]):
        self.id2sym: List[str] = [NULL_TAG, UNK_TAG]
        self.sym2id: Dict[str, int] = {NULL_TAG: 0, UNK_TAG: 1}
        for sym in symbols:
            if sym in (NULL_TAG, UNK_TAG):
                raise ValueError(f"reserved tag name {sym!r} used as a symbol")
            if sym not in self.sym2id:
                self.sym2id[sym] = len(self.id2sym)
                self.id2sym.append(sym)

    null_id = 0
    unk_id = 1

    @classmethod
    def from_corpus(cls, corpus) -> "TagVocabulary":
        seen: List[str] = []
        for ex in corpus:
            seen.extend(ex.symbol_set.symbols)
        return cls(seen)

    def __len__(self):
        return len(self.id2sym)

    def __contains__(self, sym):
        return sym in self.sym2id

    def id_of(self, symbol: str) -> int:
        return self.sym2id.get(symbol, self.unk_id)

    def symbol_of(self, tag_id: int) -> str:
        return self.id2sym[int(tag_id)]


@dataclass(frozen=True)
class TaggerConfig:
    embedding_size: int = 200
    hidden_size: int = 200
    num_layers: int = 1

    def __post_init__(self):
        for name in ("embedding_size", "hidden_size", "num_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class TaggerParams:
    word_vocab: Vocab
    tag_vocab: TagVocabulary
    config: TaggerConfig
    embedding: Tensor
    encoder: BiLstmEncoder
    w_out: Tensor                        # (|tags|, 2H), over h_i
    u_out: Tensor                        # (|tags|, E), over w_i
    b_out: Tensor                        # (|tags|,)

    def parameters(self) -> List[Tensor]:
        return [self.embedding, *self.encoder.parameters(),
                self.w_out, self.u_out, self.b_out]


def init_tagger(word_vocab: Vocab, tag_vocab: TagVocabulary,
                config: TaggerConfig = TaggerConfig(), seed: int = 0) -> TaggerParams:
    return _build(word_vocab, tag_vocab, config, drawn(np.random.default_rng(seed)))


def _build(word_vocab: Vocab, tag_vocab: TagVocabulary, config: TaggerConfig,
           make) -> TaggerParams:
    e, h, t = config.embedding_size, config.hidden_size, len(tag_vocab)
    return TaggerParams(
        word_vocab=word_vocab,
        tag_vocab=tag_vocab,
        config=config,
        embedding=make("tagger.emb", (len(word_vocab), e)),
        encoder=BiLstmEncoder("tagger.enc", e, h, config.num_layers, make),
        w_out=make("tagger.w_out", (t, 2 * h)),
        u_out=make("tagger.u_out", (t, e)),
        b_out=make("tagger.b_out", (t,)),
    )


def _tokens(utterance) -> Sequence[str]:
    return utterance.tokens if hasattr(utterance, "tokens") else tuple(utterance)


def tag_distribution(params: TaggerParams, utterances) -> Tensor:
    """Row-stochastic (N, |tags|) matrix of p(z_i = tag | x) for utterances
    whose rows it stacks in order."""
    ids = [params.word_vocab.encode(_tokens(u)) for u in utterances]
    x = ad.embedding(params.embedding, np.concatenate(ids))
    h = params.encoder.encode(x, [len(i) for i in ids])
    return ad.softmax(ad.add(ad.linear(h, params.w_out, params.b_out),
                             ad.linear(x, params.u_out)))


def predict_tags(params: TaggerParams, utterances) -> List[np.ndarray]:
    """Per-word argmax tag ids, one array per utterance; ties break toward the lowest id."""
    if not utterances:
        return []
    with ad.no_grad():
        probs = tag_distribution(params, utterances).data
    ends = np.cumsum([len(_tokens(u)) for u in utterances])
    return np.split(np.argmax(probs, axis=1), ends[:-1])


def save_tagger(path, params: TaggerParams) -> None:
    meta = {
        "word_vocab": params.word_vocab.id2tok,
        "tag_vocab": params.tag_vocab.id2sym,
        "config": asdict(params.config),
    }
    save_checkpoint(path, params.parameters(), kind="tagger", meta=meta)


def load_tagger(path) -> TaggerParams:
    values, meta = load_checkpoint(path, "tagger", ("word_vocab", "tag_vocab", "config"))
    word_vocab = Vocab(meta_vocab(meta, "word_vocab", [UNK])[1:])
    tag_vocab = TagVocabulary(meta_vocab(meta, "tag_vocab", [NULL_TAG, UNK_TAG])[2:])
    config = config_from_fields(TaggerConfig, meta["config"], "checkpoint config",
                                CheckpointError)
    with stored(values) as make:
        return _build(word_vocab, tag_vocab, config, make)
