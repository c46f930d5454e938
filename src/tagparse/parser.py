"""Tag-augmented encoder-decoder that maps utterances to meaning tokens.

The encoder consumes u_t = [tag embedding; word embedding] per word (the
baseline variant drops the tag block and is otherwise identical).  Tag
embeddings are rows of the decoder's output-symbol embedding table, so
the tagger's symbols and the decoder's tokens share one vector space.
The decoder is an LSTM with bilinear attention over encoder states and
input feeding: each step consumes the previous output embedding
concatenated with the previous attentional state.

Training is teacher-forced cross-entropy on (x, predicted tags, y)
triples; the tags come from a trained tagger, never from gold
alignments.  Each minibatch runs as one padded pass of the fused
`autodiff.attention_decoder` node: B rows advance together through
every step, each attending over its own utterance's encoder states
through an additive mask, and padded steps carry zero loss.  Decoding
is beam search over output tokens, with the live hypotheses as the rows
of one decoder step; only the encoder pass that starts it builds tensors,
and every step is plain array code.  Both run a step the same way: the
cell through `LstmCell.step`, then the attention and input feed through
`autodiff._attend`.  Beam size 1 is greedy decoding.  If no
hypothesis finishes within the length budget the best partial sequence
is returned with a truncation flag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import (CheckpointError, config_from_fields, load_checkpoint,
                         meta_vocab, save_checkpoint, stored)
from .data import FORMALISMS, deanonymize_tokens
from .nn import UNK, BiLstmEncoder, LstmCell, Vocab, drawn
from .optim import Adam
from .tagger import (NULL_TAG, UNK_TAG, TaggerParams, TagVocabulary, _tokens,
                     predict_tags)

__all__ = ["BOS", "EOS", "ParserError", "ParserConfig", "DecodeConfig",
           "ParserParams", "DecodeResult", "ParseResult", "init_parser",
           "embed_inputs", "train_parser", "decode", "parse", "save_parser",
           "load_parser"]

BOS = "<s>"
EOS = "</s>"


class ParserError(RuntimeError):
    pass


@dataclass(frozen=True)
class ParserConfig:
    word_embedding_size: int = 200
    tag_embedding_size: int = 200
    hidden_size: int = 250
    use_tags: bool = True
    epochs: int = 20
    batch_size: int = 20
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("word_embedding_size", "tag_embedding_size",
                     "hidden_size", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.learning_rate < np.inf:       # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class DecodeConfig:
    max_length: int = 150
    beam_size: int = 5

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")


@dataclass
class ParserParams:
    word_vocab: Vocab
    out_vocab: Vocab                     # meaning tokens plus specials
    tag_vocab: TagVocabulary
    config: ParserConfig
    formalism: str
    word_emb: Tensor                     # (|words|, We)
    sym_emb: Tensor                      # (|out|, Te): tag AND decoder-input table
    encoder: BiLstmEncoder
    decoder: LstmCell
    w_bridge: Tensor                     # (H, 2H) encoder summary -> h0
    b_bridge: Tensor
    w_att: Tensor                        # (H, 2H) bilinear attention
    w_comb: Tensor                       # (H, 3H) [h; context] -> attentional state
    b_comb: Tensor
    w_out: Tensor                        # (|out|, H)
    b_out: Tensor

    def parameters(self) -> List[Tensor]:
        return [self.word_emb, self.sym_emb, *self.encoder.parameters(),
                *self.decoder.parameters(), self.w_bridge, self.b_bridge,
                self.w_att, self.w_comb, self.b_comb, self.w_out, self.b_out]


def init_parser(word_vocab: Vocab, out_vocab: Vocab, tag_vocab: TagVocabulary,
                config: ParserConfig, formalism: str) -> ParserParams:
    return _build(word_vocab, out_vocab, tag_vocab, config, formalism,
                  drawn(np.random.default_rng(config.seed)))


def _build(word_vocab: Vocab, out_vocab: Vocab, tag_vocab: TagVocabulary,
           config: ParserConfig, formalism: str, make) -> ParserParams:
    we, te, h = (config.word_embedding_size, config.tag_embedding_size,
                 config.hidden_size)
    enc_input = we + (te if config.use_tags else 0)
    return ParserParams(
        word_vocab=word_vocab, out_vocab=out_vocab, tag_vocab=tag_vocab,
        config=config, formalism=formalism,
        word_emb=make("parser.word_emb", (len(word_vocab), we)),
        sym_emb=make("parser.sym_emb", (len(out_vocab), te)),
        encoder=BiLstmEncoder("parser.enc", enc_input, h, make),
        decoder=LstmCell("parser.dec", te + h, h, make),
        w_bridge=make("parser.w_bridge", (h, 2 * h)),
        b_bridge=make("parser.b_bridge", (h,)),
        w_att=make("parser.w_att", (h, 2 * h)),
        w_comb=make("parser.w_comb", (h, 3 * h)),
        b_comb=make("parser.b_comb", (h,)),
        w_out=make("parser.w_out", (len(out_vocab), h)),
        b_out=make("parser.b_out", (len(out_vocab),)),
    )


def _tag_out_ids(params: ParserParams, tags) -> np.ndarray:
    """Map tag ids onto shared-table row ids."""
    return params.out_vocab.encode([params.tag_vocab.symbol_of(t) for t in tags])


def embed_inputs(params: ParserParams, utterance, tags=None) -> Tensor:
    """Encoder inputs u_t; tag block first, then the word embedding."""
    tokens = _tokens(utterance)
    words = ad.embedding(params.word_emb, params.word_vocab.encode(tokens))
    if not params.config.use_tags:
        return words
    if tags is None or len(tags) != len(tokens):
        got = "none" if tags is None else str(len(tags))
        raise ParserError(f"{len(tokens)} words need {len(tokens)} tags, got {got}")
    tag_block = ad.embedding(params.sym_emb, _tag_out_ids(params, tags))
    return ad.concat([tag_block, words], axis=1)


def _start(params: ParserParams, utterances, tag_lists):
    """Encode a batch of B utterances and build the decoder's first hidden state.

    Returns the encoder states of every utterance stacked row-wise (N, 2H),
    their attention keys (N, H), the (B, N) additive attention mask (0 on a
    row's own utterance, -inf elsewhere; one zero row when B is 1) and the
    (B, H) first hidden state; the cell state and the first input feed are zero.
    """
    inputs = [embed_inputs(params, u, t) for u, t in zip(utterances, tag_lists)]
    lengths = np.array([x.data.shape[0] for x in inputs])
    ends = np.cumsum(lengths)
    enc = params.encoder.encode(ad.concat(inputs, axis=0), lengths)
    h = params.config.hidden_size
    # h0 reads the forward state of the last word and the backward state of the first
    summary = ad.concat([ad.cols(ad.embedding(enc, ends - 1), 0, h),
                         ad.cols(ad.embedding(enc, ends - lengths), h, 2 * h)], axis=1)
    h0 = ad.tanh(ad.linear(summary, params.w_bridge, params.b_bridge))
    owner = np.repeat(np.arange(len(inputs)), lengths)
    mask = np.where(owner[None, :] == np.arange(len(inputs))[:, None], 0.0, -np.inf)
    keys = ad.linear(enc, params.w_att)  # h @ keys.T is the bilinear h @ w_att @ enc.T
    return enc, keys, mask, h0


def _batch_loss(params: ParserParams, utterances, tag_lists, targets) -> Tensor:
    """Mean teacher-forced negative log-likelihood of B output sequences.

    The batch runs as one padded `attention_decoder` pass of
    max(len(target)) steps; rows past the end of their target get zero
    weight in the loss.
    """
    batch, steps = len(targets), max(len(t) for t in targets)
    bos, eos = params.out_vocab.tok2id[BOS], params.out_vocab.tok2id[EOS]
    padded = np.full((batch, steps), eos, dtype=np.intp)
    weights = np.zeros((steps, batch, len(params.out_vocab)))
    for b, target in enumerate(targets):
        padded[b, :len(target)] = target
        weights[np.arange(len(target)), b, target] = 1.0 / batch
    enc, keys, mask, h0 = _start(params, utterances, tag_lists)
    # rows are step-major: row t * B + b holds example b at step t, which reads
    # the token before it
    prev = np.concatenate([np.full(batch, bos), padded[:, :-1].T.ravel()])
    feeds = ad.attention_decoder(ad.embedding(params.sym_emb, prev), h0, params.decoder,
                                 keys, enc, params.w_comb, params.b_comb, mask)
    logits = ad.linear(feeds, params.w_out, params.b_out)
    return ad.cross_entropy(ad.softmax(logits), weights.reshape(steps * batch, -1))


def _prepared(corpus, tagger_params, config) -> Tuple[list, str]:
    if not corpus:
        raise ParserError("empty training corpus")
    formalisms = {ex.meaning.formalism for ex in corpus}
    if len(formalisms) > 1:
        raise ParserError(f"mixed formalisms in corpus: {sorted(formalisms)}")
    if config.use_tags and tagger_params is None:
        raise ParserError("tag-augmented parser needs a trained tagger")
    return list(corpus), formalisms.pop()


def train_parser(corpus, tagger_params: Optional[TaggerParams],
                 config: ParserConfig = ParserConfig(), log_file=None) -> ParserParams:
    """Teacher-forced training on (utterance, predicted tags, meaning).

    Tags are predicted once with the frozen tagger; the baseline variant
    (config.use_tags False) ignores the tagger entirely.
    """
    examples, formalism = _prepared(corpus, tagger_params, config)

    words, meaning_tokens = [], []
    for ex in examples:
        words.extend(ex.utterance.tokens)
        meaning_tokens.extend(ex.meaning.tokens)
    word_vocab = Vocab(words)
    out_vocab = Vocab([BOS, EOS, NULL_TAG, UNK_TAG, *meaning_tokens])
    tag_vocab = tagger_params.tag_vocab if tagger_params else TagVocabulary([])
    params = init_parser(word_vocab, out_vocab, tag_vocab, config, formalism)

    eos = out_vocab.tok2id[EOS]
    tags = (predict_tags(tagger_params, [ex.utterance for ex in examples])
            if config.use_tags else [None] * len(examples))
    targets = [np.append(out_vocab.encode(ex.meaning.tokens), eos)
               for ex in examples]

    optimizer = Adam(params.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    log = open(log_file, "w") if log_file is not None else None
    if log:
        log.write("epoch\tloss\tgrad_norm_max\tclipped_steps\n")
    try:
        for epoch in range(config.epochs):
            order = rng.permutation(len(examples))
            epoch_losses, norms = [], []
            for start in range(0, len(examples), config.batch_size):
                batch = order[start:start + config.batch_size]
                loss = _batch_loss(params, [examples[k].utterance for k in batch],
                                   [tags[k] for k in batch],
                                   [targets[k] for k in batch])
                if not np.isfinite(loss.data):
                    raise ParserError(
                        f"loss diverged in epoch {epoch} at batch {start // config.batch_size}")
                norms.append(optimizer.step(ad.backward(loss, params.parameters())))
                epoch_losses.append(float(loss.data))
            if log:
                clipped = sum(norm > optimizer.clip_norm for norm in norms)
                log.write(f"{epoch}\t{float(np.mean(epoch_losses)):.6f}\t"
                          f"{max(norms):.6f}\t{clipped}\n")
    finally:
        if log:
            log.close()
    return params


@dataclass(frozen=True)
class DecodeResult:
    tokens: Tuple[str, ...]              # output tokens, end marker stripped
    token_ids: Tuple[int, ...]
    score: float                         # sum of token log-probs (incl. end)
    truncated: bool
    formalism: str


def decode(params: ParserParams, utterance, tags=None,
           config: DecodeConfig = DecodeConfig()) -> DecodeResult:
    """Beam search for the highest-likelihood output sequence.

    The live hypotheses are the rows of one decoder step per time step.
    All live x |out| extensions are ranked by score together; ties go to
    the earlier hypothesis, then to the lower token id.
    """
    eos, H, dec = params.out_vocab.tok2id[EOS], params.config.hidden_size, params.decoder
    sym_emb, w_comb, b_comb = params.sym_emb.data, params.w_comb.data, params.b_comb.data
    w_out, b_out = params.w_out.data, params.b_out.data
    with ad.no_grad():
        enc, keys, mask, h0 = _start(params, [utterance], [tags])
    enc, keys = enc.data, keys.data
    state, feed = np.concatenate([h0.data, np.zeros((1, H))], axis=1), np.zeros((1, H))
    prev, seqs, scores = [params.out_vocab.tok2id[BOS]], [()], np.zeros(1)
    completed = []                       # (score, token ids without the end marker)
    for _ in range(config.max_length):
        state = dec.step(np.concatenate([sym_emb[prev], feed], axis=1), state)
        _, _, feed = ad._attend(state[:, :H], keys, enc, mask, w_comb, b_comb)
        logp = np.log(np.maximum(ad._softmax(feed @ w_out.T + b_out), 1e-300))
        totals = (scores[:, None] + logp).ravel()
        best = np.argsort(-totals, kind="stable")[:config.beam_size]
        rows, prev = np.divmod(best, logp.shape[1])
        ended = prev == eos
        completed += [(totals[k], seqs[r]) for k, r in zip(best[ended], rows[ended])]
        if ended.all():
            break
        rows, prev, scores = rows[~ended], prev[~ended], totals[best[~ended]]
        seqs = [seqs[r] + (int(t),) for r, t in zip(rows, prev)]
        state, feed = state[rows], feed[rows]
        # token log-probs are <= 0, so no live hypothesis can
        # overtake the best finished one once it falls behind
        if completed and max(c[0] for c in completed) >= scores.max():
            break

    truncated = not completed
    score, ids = (max(completed, key=lambda c: c[0]) if completed
                  else (scores.max(), seqs[int(np.argmax(scores))]))
    return DecodeResult(tokens=tuple(params.out_vocab.decode(ids)), token_ids=ids,
                        score=float(score), truncated=truncated,
                        formalism=params.formalism)


@dataclass(frozen=True)
class ParseResult:
    tokens: Tuple[str, ...]              # de-anonymized meaning tokens
    anonymized_tokens: Tuple[str, ...]
    tags: Tuple[str, ...]
    score: float
    truncated: bool
    formalism: str

    def text(self) -> str:
        return " ".join(self.tokens)


def parse(tagger_params: Optional[TaggerParams], parser_params: ParserParams,
          example, config: DecodeConfig = DecodeConfig()) -> ParseResult:
    """Two-stage pipeline: predict tags, decode, restore entity markers."""
    utterance = example.utterance if hasattr(example, "utterance") else example
    if parser_params.config.use_tags:
        if tagger_params is None:
            raise ParserError("tag-augmented parsing needs a trained tagger")
        if tagger_params.tag_vocab.id2sym != parser_params.tag_vocab.id2sym:
            raise ParserError("the tagger's tag vocabulary differs from the one "
                              "this parser was trained with")
        tag_ids = predict_tags(tagger_params, [utterance])[0]
        tag_names = tuple(tagger_params.tag_vocab.symbol_of(i) for i in tag_ids)
    else:
        tag_ids, tag_names = None, ()
    result = decode(parser_params, utterance, tag_ids, config)
    entity_map = getattr(example, "entity_map", None)
    return ParseResult(tokens=deanonymize_tokens(result.tokens, entity_map),
                       anonymized_tokens=result.tokens, tags=tag_names,
                       score=result.score, truncated=result.truncated,
                       formalism=result.formalism)


def save_parser(path, params: ParserParams) -> None:
    meta = {
        "word_vocab": params.word_vocab.id2tok,
        "out_vocab": params.out_vocab.id2tok,
        "tag_vocab": params.tag_vocab.id2sym,
        "formalism": params.formalism,
        "config": asdict(params.config),
    }
    save_checkpoint(path, params.parameters(), kind="parser", meta=meta)


def load_parser(path) -> ParserParams:
    values, meta = load_checkpoint(path, "parser", ("word_vocab", "out_vocab",
                                                    "tag_vocab", "formalism", "config"))
    vocabs = (Vocab(meta_vocab(meta, "word_vocab", [UNK])[1:]),
              Vocab(meta_vocab(meta, "out_vocab", [UNK], holds=[BOS, EOS])[1:]),
              TagVocabulary(meta_vocab(meta, "tag_vocab", [NULL_TAG, UNK_TAG])[2:]))
    if meta["formalism"] not in FORMALISMS:
        raise CheckpointError(f"checkpoint meta 'formalism' is not one of {list(FORMALISMS)}")
    config = config_from_fields(ParserConfig, meta["config"], "checkpoint config",
                                CheckpointError)
    with stored(values) as make:
        return _build(*vocabs, config, meta["formalism"], make)
