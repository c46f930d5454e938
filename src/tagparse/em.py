"""Latent-alignment EM training for the tagger.

Supervision is (utterance, symbol set) pairs: which symbols appear is
known, which word evokes which symbol is not.  Each symbol s_j is
assumed to align to exactly one word a_j, independently of the other
symbols, and the symbol list is padded with nulls to the utterance
length n.  Under a uniform prior over alignments the exact posterior is

    pi[i, j] = p(z_i = s_j | x) / sum_k p(z_k = s_j | x)

so soft columns are normalized (one posterior per symbol).  Training
alternates an E-step (posteriors from the current tagger, treated as
constants) with a single Adam update on the weighted log-likelihood

    J = sum_i sum_j pi[i, j] * log p(z_i = s_j | x)

per batch.  The first soft_updates steps use the soft posteriors; the
rest discretize them first: symbol entries become 1 when pi > beta,
null entries absorb the leftover row mass, negative leftovers clamp to
zero with the row renormalized, so hard rows sum to one.  Entity-linked
symbols keep their manually fixed columns in both phases: 1/|span| in
the soft phase and the span indicator in the hard phase.

The training log is TSV: step, phase, loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SymbolSet
from .nn import Vocab
from .optim import Adam
from .tagger import (TaggerConfig, TaggerParams, TagVocabulary, init_tagger, predict_tags,
                     tag_distribution)

__all__ = ["EmError", "EmConfig", "AlignmentPosterior", "compute_posteriors",
           "harden_posteriors", "em_loss", "gold_tag_ids", "tag_accuracy", "train_tagger"]


class EmError(RuntimeError):
    pass


@dataclass(frozen=True)
class EmConfig:
    seed: int
    total_updates: int = 20000
    soft_updates: int = 10000
    beta: float = 0.26
    batch_size: int = 20
    learning_rate: float = 1e-3
    log_every: int = 200

    def __post_init__(self):
        if not 0 < self.soft_updates < self.total_updates:
            raise ValueError(
                f"need 0 < soft_updates < total_updates, got "
                f"{self.soft_updates} / {self.total_updates}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:       # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass(frozen=True)
class AlignmentPosterior:
    """Alignment posteriors pi: rows = words, columns = padded symbols.

    Column j < num_symbols is symbol s_j; the rest are null padding.
    Soft mode normalizes columns, hard mode normalizes rows.
    """

    matrix: np.ndarray                   # (n, n)
    num_symbols: int
    mode: str                            # "soft" | "hard"
    tag_ids: np.ndarray                  # (n,) tag-vocabulary id per column
    fixed_columns: frozenset = frozenset()

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _column_tag_ids(symbol_set: SymbolSet, tag_vocab: TagVocabulary) -> np.ndarray:
    ids = [tag_vocab.id_of(s) for s in symbol_set.symbols]
    ids.extend([tag_vocab.null_id] * (symbol_set.padded_length - symbol_set.l))
    return np.array(ids, dtype=np.intp)


def compute_posteriors(probs: np.ndarray, symbol_set: SymbolSet,
                       tag_vocab: TagVocabulary) -> AlignmentPosterior:
    """Exact soft posterior over independent per-symbol alignments, from one
    utterance's (n, |tags|) tag probabilities, with entity-linked columns
    pinned to their spans."""
    n, l = probs.shape[0], symbol_set.l
    if symbol_set.padded_length != n:
        raise EmError(
            f"symbol set padded to {symbol_set.padded_length}, utterance has {n} words")
    if l > n:
        raise EmError(f"more symbols ({l}) than words ({n})")
    tag_ids = _column_tag_ids(symbol_set, tag_vocab)
    likelihood = probs[:, tag_ids]
    if (likelihood.sum(axis=0) == 0.0).any():
        dead = int(np.flatnonzero(likelihood.sum(axis=0) == 0.0)[0])
        raise EmError(f"column {dead} has zero likelihood at every word")
    likelihood = np.maximum(likelihood, ad.PROB_FLOOR)
    matrix = likelihood / likelihood.sum(axis=0, keepdims=True)
    # entity-linked columns are pinned to 1/|span| mass on their span
    fixed = set()
    for symbol, span in symbol_set.fixed_alignments.items():
        if not span:
            continue
        if symbol not in symbol_set.symbols:
            raise EmError(f"fixed alignment for {symbol!r} not in symbol set")
        j = symbol_set.symbols.index(symbol)
        matrix[:, j] = 0.0
        matrix[list(span), j] = 1.0 / len(span)
        fixed.add(j)
    return AlignmentPosterior(matrix=matrix, num_symbols=l, mode="soft", tag_ids=tag_ids,
                              fixed_columns=frozenset(fixed))


def harden_posteriors(posterior: AlignmentPosterior, beta: float) -> AlignmentPosterior:
    """Discretize a soft posterior; null columns absorb leftover row mass."""
    if posterior.mode != "soft":
        raise EmError(f"can only harden a soft posterior, got {posterior.mode!r}")
    if not 0.0 < beta < 1.0:
        raise EmError(f"beta must be in (0, 1), got {beta}")
    n, l = posterior.n, posterior.num_symbols
    if l >= n:
        raise EmError(f"hardening needs null columns (symbols {l}, words {n})")
    pi = posterior.matrix
    hard = np.zeros_like(pi)
    hard[:, :l] = pi[:, :l] > beta
    # Entity-linked columns stay pinned to their span: re-thresholding
    # would drop spans wider than 1/beta words.
    for j in posterior.fixed_columns:
        hard[:, j] = pi[:, j] > 0.0
    leftover = (1.0 - hard[:, :l].sum(axis=1)) / (n - l)
    hard[:, l:] = np.maximum(leftover, 0.0)[:, None]
    hard /= hard.sum(axis=1, keepdims=True)
    return replace(posterior, matrix=hard, mode="hard")


def em_loss(probs: Tensor, posteriors: Sequence[AlignmentPosterior]) -> Tensor:
    """Mean -J over utterances whose tag probabilities `probs` stacks row-wise,
    one (soft or hard) posterior each; gradient flows only through the log-probs."""
    # column j of a posterior weights tag tag_ids[j]
    onehot = np.eye(probs.data.shape[1])
    weights = np.concatenate([p.matrix @ onehot[p.tag_ids] for p in posteriors])
    return ad.cross_entropy(probs, weights / len(posteriors))


def gold_tag_ids(example, tag_vocab: TagVocabulary) -> np.ndarray:
    """Per-word tag ids from a construction-time gold alignment."""
    if example.gold_alignment is None:
        raise EmError(f"example {example.example_id} has no gold alignment")
    ids = np.full(example.utterance.n, tag_vocab.null_id, dtype=np.intp)
    for symbol, indices in example.gold_alignment.items():
        ids[list(indices)] = tag_vocab.id_of(symbol)
    return ids


def tag_accuracy(params: TaggerParams, corpus) -> float:
    """Per-word accuracy of predicted tags against gold alignments."""
    gold = [gold_tag_ids(ex, params.tag_vocab) for ex in corpus]
    pred = predict_tags(params, [ex.utterance for ex in corpus])
    hits = sum(int((p == g).sum()) for p, g in zip(pred, gold))
    total = sum(g.size for g in gold)
    return hits / total if total else float("nan")


def _usable(corpus) -> List:
    kept = []
    for ex in corpus:
        if ex.symbol_set.l >= ex.utterance.n:
            warnings.warn(
                f"example {ex.example_id}: {ex.symbol_set.l} symbols for "
                f"{ex.utterance.n} words leaves no null column; skipped")
            continue
        kept.append(ex)
    return kept


def train_tagger(corpus, config: EmConfig, log_file=None,
                 tagger_config: TaggerConfig = TaggerConfig()) -> TaggerParams:
    """Soft-then-hard EM per the update schedule in `config`; returns the
    parameters after the final update."""
    examples = _usable(corpus)
    if not examples:
        raise EmError("no trainable examples (every symbol set fills its utterance)")

    words = [w for ex in examples for w in ex.utterance.tokens]
    params = init_tagger(Vocab(words), TagVocabulary.from_corpus(examples),
                         tagger_config, seed=config.seed)
    optimizer = Adam(params.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)

    log = open(log_file, "w") if log_file is not None else None
    if log:
        log.write("step\tphase\tloss\tgrad_norm\tclipped\n")
    try:
        for step in range(config.total_updates):
            phase = "soft" if step < config.soft_updates else "hard"
            batch = rng.choice(len(examples),
                               size=min(config.batch_size, len(examples)),
                               replace=False)
            chosen = [examples[k] for k in batch]
            probs = tag_distribution(params, [ex.utterance for ex in chosen])
            blocks = np.split(probs.data, np.cumsum([ex.utterance.n for ex in chosen])[:-1])
            # each E-step reads its own utterance's rows, as constants
            posteriors = [compute_posteriors(rows, ex.symbol_set, params.tag_vocab)
                          for ex, rows in zip(chosen, blocks)]
            if phase == "hard":
                posteriors = [harden_posteriors(p, config.beta) for p in posteriors]
            loss = em_loss(probs, posteriors)
            if not np.isfinite(loss.data):
                raise EmError(f"loss diverged at step {step}")
            norm = optimizer.step(ad.backward(loss, params.parameters()))

            if log and (step % config.log_every == 0 or step == config.total_updates - 1):
                log.write(f"{step}\t{phase}\t{float(loss.data):.6f}\t{norm:.6f}\t"
                          f"{int(norm > optimizer.clip_norm)}\n")
    finally:
        if log:
            log.close()
    return params
