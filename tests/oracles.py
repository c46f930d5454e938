"""Reference paths that the fused, batched recurrent code replaced.

They compute the same functions out of small autodiff ops: the LSTM cell
as a per-gate chain of column slices, sigmoids, tanhs and products run
one (1, 4H) row at a time, one sequence at a time, the encoder with one
concat per word, the tagger one utterance at a time, the parser and EM
losses as the mean of per-example losses, the teacher-forced decoder as
one small-op step at a time, and beam search with one decoder step per
hypothesis.  Tests compare the library against them;
the package never uses them.  The autodiff ops that only tests need,
`sigmoid`, `tsum`, `transpose`, `matmul` and `mul`, live here too.
"""

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from tagparse import autodiff as ad
from tagparse.parser import BOS, EOS, DecodeResult, _start, embed_inputs
from tagparse.tagger import tag_distribution


def sigmoid(a):
    """Elementwise logistic function as an autodiff op."""
    out = ad._sigmoid(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return ad._node(out, (a,), bwd)


def tsum(a):
    """Sum of all entries as a scalar autodiff op."""
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, g),)

    return ad._node(np.asarray(a.data.sum()), (a,), bwd)


def transpose(a):
    """Matrix transpose as an autodiff op."""
    if a.data.ndim != 2:
        raise ad.ShapeError(f"transpose: expected 2-d, got {a.data.shape}")

    def bwd(g):
        return (g.T,)

    return ad._node(a.data.T, (a,), bwd)


def matmul(a, b):
    """Matrix product of 2-d tensors as an autodiff op."""
    a, b = ad._coerce(a), ad._coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ad.ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    x, y = a.data, b.data

    def bwd(g):
        return g @ y.T, x.T @ g

    return ad._node(x @ y, (a, b), bwd)


def mul(a, b):
    """Elementwise product; either side may be an array or a python scalar."""
    a, b = ad._coerce(a), ad._coerce(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ad.ShapeError(f"mul: cannot broadcast {a.data.shape} with {b.data.shape}")
    x, y = a.data, b.data

    def bwd(g):
        return ad._unbroadcast(g * y, x.shape), ad._unbroadcast(g * x, y.shape)

    return ad._node(out, (a, b), bwd)


def affine(x, w, b=None):
    """x @ w.T (+ b) as the three-op chain that `ad.linear` replaced."""
    out = matmul(x, transpose(w))
    return out if b is None else ad.add(out, b)


def gate_step(cell, xproj_t, h, c):
    """One LSTM step as a per-gate chain; h and c are separate (B, H) tensors."""
    H = cell.hidden_size
    gates = ad.add(xproj_t, affine(h, cell.wh))
    i = sigmoid(ad.cols(gates, 0, H))
    f = sigmoid(ad.cols(gates, H, 2 * H))
    o = sigmoid(ad.cols(gates, 2 * H, 3 * H))
    g = ad.tanh(ad.cols(gates, 3 * H, 4 * H))
    c_next = ad.add(mul(f, c), mul(i, g))
    h_next = mul(o, ad.tanh(c_next))
    return h_next, c_next


def gate_run(cell, xs, reverse=False):
    """Per-step (1, H) states over an (n, I) sequence, in input order."""
    n = xs.data.shape[0]
    xproj = affine(xs, cell.wx, cell.b)
    h = ad.tensor(np.zeros((1, cell.hidden_size)))
    c = ad.tensor(np.zeros((1, cell.hidden_size)))
    states = []
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h, c = gate_step(cell, ad.embedding(xproj, [t]), h, c)
        states.append(h)
    if reverse:
        states.reverse()
    return states


def row_blocks(xs, lengths):
    """The row blocks of sequences stacked `lengths` rows each, gathered from xs."""
    ends = np.cumsum(lengths)
    return [ad.embedding(xs, np.arange(end - l, end)) for l, end in zip(lengths, ends)]


def gate_encode(encoder, xs):
    """Stacked bidirectional encoding with one concat per word."""
    current = xs
    for fwd, bwd in encoder.layers:
        per_word = [ad.concat([f, b], axis=1)
                    for f, b in zip(gate_run(fwd, current),
                                    gate_run(bwd, current, reverse=True))]
        current = ad.concat(per_word, axis=0)
    return current


def gate_tag_distribution(params, words):
    """(n, |tags|) tag probabilities of one utterance through the per-word encoder."""
    x = ad.embedding(params.embedding, params.word_vocab.encode(words))
    logits = ad.add(ad.add(affine(gate_encode(params.encoder, x), params.w_out),
                           affine(x, params.u_out)),
                    params.b_out)
    return ad.softmax(logits)


@contextlib.contextmanager
def per_gate_cells(cells):
    """Swap each cell's fused `run` and array-level `step` for the per-gate chain."""

    def patch(cell):
        H = cell.hidden_size

        def step(x, state):
            with ad.no_grad():
                h, c = gate_step(cell, affine(x, cell.wx, cell.b), state[:, :H], state[:, H:])
            return np.concatenate([h.data, c.data], axis=1)

        def run(xs, lengths, reverse=False):
            blocks = row_blocks(xs, lengths)
            return ad.concat([h for block in blocks for h in gate_run(cell, block, reverse)],
                             axis=0)

        cell.step, cell.run = step, run

    cells = list(cells)
    for cell in cells:
        patch(cell)
    try:
        yield
    finally:
        for cell in cells:
            del cell.step, cell.run


def parser_cells(params):
    return [cell for layer in params.encoder.layers for cell in layer] + [params.decoder]


def sequence_loss(params, utterance, tags, target_ids):
    """Teacher-forced NLL of one example, built one 1-row op at a time."""
    enc = gate_encode(params.encoder, embed_inputs(params, utterance, tags))
    n, H = enc.data.shape[0], params.config.hidden_size
    summary = ad.concat([ad.cols(ad.embedding(enc, [n - 1]), 0, H),
                         ad.cols(ad.embedding(enc, [0]), H, 2 * H)], axis=1)
    h = ad.tanh(affine(summary, params.w_bridge, params.b_bridge))
    c = ad.tensor(np.zeros((1, H)))
    feed = ad.tensor(np.zeros((1, H)))
    bos = params.out_vocab.tok2id[BOS]
    rows = []
    for t in range(len(target_ids)):
        prev = bos if t == 0 else int(target_ids[t - 1])
        y = ad.embedding(params.sym_emb, np.array([prev], dtype=np.intp))
        h, c = gate_step(params.decoder,
                         affine(ad.concat([y, feed], axis=1), params.decoder.wx,
                                params.decoder.b),
                         h, c)
        scores = matmul(matmul(h, params.w_att), transpose(enc))
        context = matmul(ad.softmax(scores), enc)
        feed = ad.tanh(affine(ad.concat([h, context], axis=1), params.w_comb,
                              params.b_comb))
        rows.append(affine(feed, params.w_out, params.b_out))
    probs = ad.softmax(ad.concat(rows, axis=0))
    onehot = np.zeros((len(target_ids), len(params.out_vocab)))
    onehot[np.arange(len(target_ids)), target_ids] = 1.0
    return ad.cross_entropy(probs, onehot)


def mean_of(losses):
    """The mean of scalar loss tensors, as a chain of adds."""
    return mul(functools.reduce(ad.add, losses), 1.0 / len(losses))


def mean_loss(params, utterances, tag_lists, targets):
    """Minibatch loss as the mean of per-example losses."""
    return mean_of([sequence_loss(params, u, t, y)
                    for u, t, y in zip(utterances, tag_lists, targets)])


def start(params, utterances, tag_lists):
    """`_start`'s encoder states, keys and mask, then the first [h | c] decoder
    state and input feed as tensors."""
    enc, keys, mask, h0 = _start(params, utterances, tag_lists)
    zeros = np.zeros_like(h0.data)
    return enc, keys, mask, ad.concat([h0, zeros], axis=1), ad.tensor(zeros)


def decoder_step(params, prev_ids, state, feed, enc, keys, mask=None):
    """One decoder step for B rows out of small graph nodes, the cell a
    `gate_step` chain: previous token ids, [h | c] state and feed in, next
    state and feed out.

    Each row attends over the stacked encoder states `enc` through their
    `keys`; the additive `mask` limits it to its own utterance's rows.
    """
    dec, H = params.decoder, params.config.hidden_size
    y = ad.embedding(params.sym_emb, np.asarray(prev_ids, dtype=np.intp))
    h, c = gate_step(dec, affine(ad.concat([y, feed], axis=1), dec.wx, dec.b),
                     ad.cols(state, 0, H), ad.cols(state, H, 2 * H))
    scores = ad.linear(h, keys)
    if mask is not None:
        scores = ad.add(scores, mask)
    context = matmul(ad.softmax(scores), enc)
    feed = ad.tanh(ad.linear(ad.concat([h, context], axis=1), params.w_comb, params.b_comb))
    return ad.concat([h, c], axis=1), feed


def step_loss(params, utterances, tag_lists, targets):
    """Minibatch loss as one padded pass of `decoder_step`s, the output layer
    applied once to every step's stacked feed."""
    batch, steps = len(targets), max(len(t) for t in targets)
    bos, eos = params.out_vocab.tok2id[BOS], params.out_vocab.tok2id[EOS]
    padded = np.full((batch, steps), eos, dtype=np.intp)
    weights = np.zeros((steps, batch, len(params.out_vocab)))
    for b, target in enumerate(targets):
        padded[b, :len(target)] = target
        weights[np.arange(len(target)), b, target] = 1.0 / batch
    enc, keys, mask, state, feed = start(params, utterances, tag_lists)
    feeds = []
    for t in range(steps):
        prev = padded[:, t - 1] if t else np.full(batch, bos)
        state, feed = decoder_step(params, prev, state, feed, enc, keys, mask)
        feeds.append(feed)
    logits = ad.linear(ad.concat(feeds, axis=0), params.w_out, params.b_out)
    return ad.cross_entropy(ad.softmax(logits), weights.reshape(steps * batch, -1))


def em_example_loss(probs, posterior):
    """-J of one utterance, weights accumulated one posterior column at a time."""
    weights = np.zeros_like(probs.data)
    for j in range(posterior.n):
        weights[:, posterior.tag_ids[j]] += posterior.matrix[:, j]
    return ad.cross_entropy(probs, weights)


def em_mean_loss(params, utterances, posteriors):
    """EM minibatch loss as the mean of per-utterance losses, each from its
    own tag distribution."""
    return mean_of([em_example_loss(tag_distribution(params, [u]), post)
                    for u, post in zip(utterances, posteriors)])


def output_probs(params, feed):
    """The decoder's output-token distributions of (B, H) attentional states."""
    return ad.softmax(affine(feed, params.w_out, params.b_out)).data


@dataclass
class Hyp:
    token_ids: tuple
    score: float
    state: ad.Tensor
    feed: ad.Tensor


def beam_decode(params, utterance, tags, config):
    """Beam search with one 1-row decoder step per live hypothesis.

    Each hypothesis proposes its top `beam_size` tokens (ties to the
    lowest id); a stable sort by score then keeps hypothesis order.
    """
    with ad.no_grad():
        enc, keys, _, state, feed = start(params, [utterance], [tags])
        eos = params.out_vocab.tok2id[EOS]
        bos = params.out_vocab.tok2id[BOS]
        alive = [Hyp((), 0.0, state, feed)]
        completed = []
        for _ in range(config.max_length):
            candidates = []
            for hyp in alive:
                prev = hyp.token_ids[-1] if hyp.token_ids else bos
                state, feed = decoder_step(params, [prev], hyp.state, hyp.feed,
                                           enc, keys)
                logp = np.log(np.maximum(output_probs(params, feed)[0], 1e-300))
                for tok in np.argsort(-logp, kind="stable")[:config.beam_size]:
                    candidates.append(Hyp(hyp.token_ids + (int(tok),),
                                          hyp.score + float(logp[tok]),
                                          state, feed))
            candidates.sort(key=lambda cand: -cand.score)
            alive = []
            for cand in candidates[:config.beam_size]:
                (completed if cand.token_ids[-1] == eos else alive).append(cand)
            if not alive:
                break
            if completed and max(c.score for c in completed) >= max(a.score for a in alive):
                break
    truncated = not completed
    best = max(completed or alive, key=lambda hyp: hyp.score)
    ids = best.token_ids if truncated else best.token_ids[:-1]
    return DecodeResult(tokens=tuple(params.out_vocab.decode(ids)), token_ids=ids,
                        score=best.score, truncated=truncated,
                        formalism=params.formalism)
