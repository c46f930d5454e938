"""Reference paths that the fused, batched recurrent code replaced.

They compute the same functions out of small autodiff ops: the LSTM cell
as a per-gate chain of column slices, sigmoids, tanhs and products run
one (1, 4H) row at a time, one sequence and one direction at a time, each
bidirectional encoder layer with one concat per word, the tagger one
utterance at a time, the parser and EM
losses as the mean of per-example losses, the teacher-forced decoder as
one small-op step at a time, beam search with one decoder step per
hypothesis, and Adam with a finite check and a clipping pass of their own
before the update.  The data layer's old functions are here too: the
symbol extractor and the entity linker each with a reader of its own,
and template ids, anonymization, de-anonymization and normalization each
with its own entity-reference scan.  Tests compare the library against them;
the package never uses them.  The autodiff ops that only tests need,
`sigmoid`, `tsum`, `transpose`, `matmul` and `mul`, live here too, as
does the finite-difference gradient check `finite_diff_check`;
`sigmoid` computes the logistic function itself rather than through the
library's one-tanh gate activation.
"""

from __future__ import annotations

import contextlib
import functools
import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from tagparse import autodiff as ad
from tagparse.autodiff import Tensor, backward, no_grad
from tagparse.data.corpus import (CorpusExample, EntitySpan, MeaningRepresentation,
                                  SymbolSet, Utterance, _LAMBDA_ENTITY, _remap_alignments)
from tagparse.data.symbols import (_IDENTIFIER, _SQL_COMPARATORS, LAMBDA_OPERATORS,
                                   SQL_AGGREGATES, SQL_KEYWORDS, MeaningParseError)
from tagparse.optim import OptimizerError
from tagparse.parser import BOS, EOS, DecodeResult, _start, embed_inputs
from tagparse.tagger import tag_distribution


def _sigmoid(x):
    # Branch on sign so exp never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    """Elementwise logistic function as an autodiff op."""
    out = _sigmoid(a.data)

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


def gate_layer(xs, fwd, bwd, lengths):
    """One bidirectional layer over stacked sequences, one concat per word."""
    return ad.concat([ad.concat([f, b], axis=1)
                      for block in row_blocks(xs, lengths)
                      for f, b in zip(gate_run(fwd, block), gate_run(bwd, block, reverse=True))],
                     axis=0)


def gate_encode(encoder, xs):
    """Bidirectional encoding of one sequence with one concat per word."""
    return gate_layer(xs, encoder.fwd, encoder.bwd, [xs.data.shape[0]])


def gate_tag_distribution(params, words):
    """(n, |tags|) tag probabilities of one utterance through the per-word encoder."""
    x = ad.embedding(params.embedding, params.word_vocab.encode(words))
    logits = ad.add(ad.add(affine(gate_encode(params.encoder, x), params.w_out),
                           affine(x, params.u_out)),
                    params.b_out)
    return ad.softmax(logits)


@contextlib.contextmanager
def per_gate_cells(cells):
    """Swap each cell's array-level `step`, and each encoder of these cells,
    for the per-gate chain.

    An encoder is one `ad.bilstm_sequence` call, so the swap replaces that op
    for the encoders whose cells are listed; the context yields a list that
    records the (fwd, bwd) cells of each swapped encoder run.
    """
    cells, fused, layers = list(cells), ad.bilstm_sequence, []

    def patch(cell):
        H = cell.hidden_size

        def step(x, state):
            with ad.no_grad():
                h, c = gate_step(cell, affine(x, cell.wx, cell.b), state[:, :H], state[:, H:])
            return np.concatenate([h.data, c.data], axis=1)

        cell.step = step

    def layer(xs, fwd, bwd, lengths):
        if not any(fwd is cell for cell in cells):
            return fused(xs, fwd, bwd, lengths)
        layers.append((fwd, bwd))
        return gate_layer(xs, fwd, bwd, lengths)

    for cell in cells:
        patch(cell)
    ad.bilstm_sequence = layer
    try:
        yield layers
    finally:
        ad.bilstm_sequence = fused
        for cell in cells:
            del cell.step


def parser_cells(params):
    return [params.encoder.fwd, params.encoder.bwd, params.decoder]


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


def clip_global_norm(grads: Dict[Tensor, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm.

    Returns the pre-clip global norm.
    """
    total_sq = 0.0
    for g in grads.values():
        total_sq += float((g * g).sum())
    norm = float(np.sqrt(total_sq))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in grads:
            grads[p] = grads[p] * scale
    return norm


class TwoPassAdam:
    """Adam as `optim.Adam` computed it before its one-pass step: a finite
    check over every gradient, then `clip_global_norm` (which rebinds the
    map's gradients), then the update."""

    beta1, beta2, eps, clip_norm = 0.9, 0.999, 1e-8, 5.0

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads: Dict[Tensor, np.ndarray]) -> float:
        for p in self.params:
            g = grads.get(p)
            if g is not None and not np.all(np.isfinite(g)):
                raise OptimizerError(
                    f"non-finite gradient for parameter '{p.name}' at step {self.t + 1}")
        norm = clip_global_norm(grads, self.clip_norm)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = grads.get(p)
            if g is None:
                continue
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return norm


def finite_diff_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                      num_coords: int = 50, h: float = 1e-6,
                      rng: np.random.Generator | None = None) -> float:
    """Compare backward gradients against central finite differences.

    Independently of the backward pass, evaluates loss_fn forward-only at
    +/-h perturbations of randomly sampled parameter coordinates and
    returns the maximum relative error observed.  The denominator is
    floored at 1e-3 so that coordinates whose true derivative is below
    finite-difference resolution read as agreement, not noise.
    """
    rng = rng or np.random.default_rng(0)
    analytic = backward(loss_fn(), params)
    worst = 0.0
    sized = [p for p in params if p.data.size > 0]
    for _ in range(num_coords):
        p = sized[rng.integers(len(sized))]
        flat = p.data.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        with no_grad():
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
        fd = (up - down) / (2.0 * h)
        an = float(analytic[p].reshape(-1)[i])
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
        worst = max(worst, err)
    return worst


# The data layer before it read each logical form once: the symbol
# extractor and the entity linker each parsed the form with a reader of
# its own, and each entity-reference site scanned every entity per token.


def _token_matches_entity(token: str, entity_id: str) -> bool:
    """A meaning token refers to an entity directly or as a quoted literal."""
    if token == entity_id:
        return True
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[1:-1] == entity_id
    return False


def _replace_entity_token(token: str, marker: str) -> str:
    """Substitute a marker while preserving the token's quoting."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[0] + marker + token[-1]
    return marker


def template_id_for(meaning: MeaningRepresentation,
                    entities: Sequence[EntitySpan]) -> str:
    """Anonymized meaning string with markers numbered by meaning order."""
    counters: Dict[str, int] = {}
    assigned: Dict[str, str] = {}
    out = []
    by_id = {}
    for span in entities:
        by_id.setdefault(span.entity_id, span.entity_type)
    for token in meaning.tokens:
        hit = None
        for ent_id, ent_type in by_id.items():
            if _token_matches_entity(token, ent_id):
                hit = (ent_id, ent_type)
                break
        if hit is None:
            out.append(token)
            continue
        ent_id, ent_type = hit
        if ent_id not in assigned:
            k = counters.get(ent_type, 0)
            counters[ent_type] = k + 1
            assigned[ent_id] = f"{ent_type}{k}"
        out.append(_replace_entity_token(token, assigned[ent_id]))
    return " ".join(out)


def _looks_like_entity(token: str, formalism: str) -> bool:
    if formalism == "lambda":
        return bool(_LAMBDA_ENTITY.match(token))
    return len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'"


def anonymize_entities(example: CorpusExample) -> CorpusExample:
    """Replace each distinct entity with a typed numbered marker.

    Markers are numbered by first appearance in the utterance and applied
    consistently to utterance and meaning.  The reverse map is retained on
    the returned example.  Entity-like meaning tokens with no matching
    utterance span are left verbatim and flag the example.
    """
    utt = example.utterance
    if not utt.entity_spans:
        new_flagged = any(_looks_like_entity(t, example.meaning.formalism)
                          for t in example.meaning.tokens)
        return example if not new_flagged else replace(example, flagged=True)

    counters: Dict[str, int] = {}
    marker_for: Dict[str, str] = {}
    entity_map: Dict[str, dict] = {}
    new_tokens: List[str] = []
    new_spans: List[EntitySpan] = []
    old_to_new: List[int] = []
    pos = 0
    spans = sorted(utt.entity_spans, key=lambda s: s.start)
    span_iter = iter(spans)
    current = next(span_iter, None)
    i = 0
    while i < utt.n:
        if current is not None and i == current.start:
            ent_id = current.entity_id
            if ent_id not in marker_for:
                k = counters.get(current.entity_type, 0)
                counters[current.entity_type] = k + 1
                marker = f"{current.entity_type}{k}"
                marker_for[ent_id] = marker
                entity_map[marker] = {
                    "utterance": list(utt.tokens[current.start:current.end]),
                    "id": ent_id,
                    "type": current.entity_type,
                }
            marker = marker_for[ent_id]
            new_tokens.append(marker)
            new_spans.append(EntitySpan(pos, pos + 1, marker, current.entity_type))
            old_to_new.extend([pos] * (current.end - i))
            pos += 1
            i = current.end
            current = next(span_iter, None)
        else:
            new_tokens.append(utt.tokens[i])
            old_to_new.append(pos)
            pos += 1
            i += 1

    flagged = example.flagged
    new_meaning_tokens: List[str] = []
    for token in example.meaning.tokens:
        hit = None
        for ent_id, marker in marker_for.items():
            if _token_matches_entity(token, ent_id):
                hit = marker
                break
        if hit is not None:
            entity_map[hit].setdefault("meaning", token)
            new_meaning_tokens.append(_replace_entity_token(token, hit))
        else:
            if _looks_like_entity(token, example.meaning.formalism):
                flagged = True
            new_meaning_tokens.append(token)

    # Collapsed spans shift word positions, so every index-bearing field
    # must be remapped onto the marker positions.
    remapped = _remap_alignments(example, lambda k: (old_to_new[k],),
                                 padded_length=len(new_tokens))
    return replace(
        example,
        utterance=Utterance(tuple(new_tokens), tuple(new_spans)),
        meaning=MeaningRepresentation(tuple(new_meaning_tokens),
                                      example.meaning.formalism),
        entity_map=entity_map,
        flagged=flagged,
        **remapped,
    )


def deanonymize_tokens(tokens: Sequence[str],
                       entity_map: Optional[Dict[str, dict]]) -> Tuple[str, ...]:
    """Invert anonymize_entities on a meaning token sequence."""
    if not entity_map:
        return tuple(tokens)
    out = []
    for token in tokens:
        restored = token
        for marker, info in entity_map.items():
            original = info.get("meaning", info["id"])
            if token == marker:
                restored = original
                break
            if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'" \
                    and token[1:-1] == marker:
                # Prediction re-quoted the marker; restore the original token
                # verbatim (it carries its own quoting).
                restored = original
                break
        out.append(restored)
    return tuple(out)


def _is_sql_literal(token: str) -> bool:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return True
    return bool(re.match(r"^\d+(\.\d+)?$", token))


def extract_symbols(meaning: MeaningRepresentation) -> List[str]:
    """Ordered distinct atomic symbols of a logical form."""
    if meaning.formalism == "lambda":
        return _extract_lambda(meaning.tokens)
    return _extract_sql(meaning.tokens)


def _extract_lambda(tokens: Sequence[str]) -> List[str]:
    depth = 0
    out: List[str] = []
    seen: Set[str] = set()
    prev_open = False
    for token in tokens:
        if token == "(":
            depth += 1
            prev_open = True
            continue
        if token == ")":
            depth -= 1
            if depth < 0:
                raise MeaningParseError("unbalanced parentheses: extra ')'")
            prev_open = False
            continue
        if prev_open and token not in LAMBDA_OPERATORS and not token.startswith("$"):
            if token not in seen:
                seen.add(token)
                out.append(token)
        prev_open = False
    if depth != 0:
        raise MeaningParseError("unbalanced parentheses: missing ')'")
    return out


def _extract_sql(tokens: Sequence[str]) -> List[str]:
    if not tokens or tokens[0].lower() != "select":
        raise MeaningParseError("SQL form must start with select")
    out: List[str] = []
    seen: Set[str] = set()
    # Segments whose identifiers are columns; "from" identifiers are tables.
    state = None
    pending_by = False
    for token in tokens:
        low = token.lower()
        if low in ("group", "order"):
            pending_by = True
            continue
        if pending_by and low == "by":
            state = "columns"
            pending_by = False
            continue
        pending_by = False
        if low == "select":
            state = "select"
            continue
        if low == "from":
            state = "from"
            continue
        if low in ("where", "having"):
            state = "filter"
            continue
        if state in ("select", "filter", "columns") \
                and _IDENTIFIER.match(token) \
                and low not in SQL_KEYWORDS \
                and low not in SQL_AGGREGATES \
                and not _is_sql_literal(token):
            if token not in seen:
                seen.add(token)
                out.append(token)
    return out


def _lambda_groups(tokens: Sequence[str]) -> List[List[str]]:
    """Immediate argument tokens of every (head arg...) group, head first.

    Nested sub-expressions contribute their own group; inside the parent
    they are represented by nothing (only top-level atoms are arguments).
    """
    stack: List[List[str]] = []
    groups: List[List[str]] = []
    for token in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise MeaningParseError("unbalanced parentheses: extra ')'")
            groups.append(stack.pop())
        else:
            if stack:
                stack[-1].append(token)
    if stack:
        raise MeaningParseError("unbalanced parentheses: missing ')'")
    return groups


def entity_link(example: CorpusExample) -> SymbolSet:
    """Return the example's SymbolSet with rule-based fixed alignments."""
    spans = example.utterance.entity_spans
    sset = example.symbol_set
    if not spans:
        return sset
    symbol_order = set(sset.symbols)
    fixed: Dict[str, Set[int]] = {}

    def link(symbol: str, span) -> None:
        fixed.setdefault(symbol, set()).update(range(span.start, span.end))

    if example.meaning.formalism == "lambda":
        for group in _lambda_groups(example.meaning.tokens):
            if not group or group[0] not in symbol_order:
                continue
            head, args = group[0], group[1:]
            matches = []
            for arg in args:
                for span in spans:
                    if _token_matches_entity(arg, span.entity_id):
                        matches.append(span)
                        break
            # Rule 1 wants a sole entity argument.
            if len(matches) == 1:
                link(head, matches[0])
    else:
        tokens = example.meaning.tokens
        state = None
        for i, token in enumerate(tokens):
            low = token.lower()
            if low in ("where", "having"):
                state = "filter"
                continue
            if low in ("group", "order", "select", "from"):
                state = None
                continue
            if state == "filter" and low in _SQL_COMPARATORS and 0 < i < len(tokens) - 1:
                column, value = tokens[i - 1], tokens[i + 1]
                if column in symbol_order:
                    for span in spans:
                        if _token_matches_entity(value, span.entity_id):
                            link(column, span)
                            break

    if not fixed:
        return sset
    merged = dict(sset.fixed_alignments)
    for symbol, indices in fixed.items():
        merged[symbol] = tuple(sorted(set(merged.get(symbol, ())) | indices))
    return replace(sset, fixed_alignments=merged)


def _canonical_token(token: str) -> str:
    # String literals may arrive single- or double-quoted.
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return '"' + token[1:-1] + '"'
    return token


def normalize_tokens(meaning) -> Tuple[str, ...]:
    """Lowercased tokens, whitespace collapsed, literals double-quoted."""
    if isinstance(meaning, MeaningRepresentation):
        meaning = meaning.tokens
    if isinstance(meaning, str):
        meaning = meaning.split()
    return tuple(_canonical_token(t.lower()) for t in meaning if t)
