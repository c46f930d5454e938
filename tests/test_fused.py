"""Fused LSTM ops, the batched tagger, parser and EM losses and batched beam
search against the per-gate, per-example and per-hypothesis oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagparse import autodiff as ad
from tagparse import parser as parser_module
from tagparse.data import SymbolSet
from tagparse.em import compute_posteriors, em_loss, harden_posteriors
from tagparse.nn import BiLstmEncoder, LstmCell, Vocab, drawn
from tagparse.parser import (BOS, EOS, DecodeConfig, ParserConfig, _batch_loss,
                             _start, decode, init_parser)
from tagparse.tagger import (NULL_TAG, UNK_TAG, TaggerConfig, TagVocabulary,
                             init_tagger, predict_tags, tag_distribution)

from tests.oracles import (affine, beam_decode, decoder_step, em_mean_loss,
                           finite_diff_check, gate_layer, gate_step, gate_tag_distribution,
                           mean_loss, mul, output_probs, parser_cells, per_gate_cells,
                           row_blocks, stacked_inputs, start, step_loss, tsum)
from tests.test_parser import UTT, tiny_parser

seeds = st.integers(0, 2 ** 32 - 1)
hidden = st.integers(1, 6)


def rel_err(got, want):
    """Largest absolute difference over the largest magnitude of `want`."""
    scale = np.abs(want).max(initial=0.0)
    diff = np.abs(got - want).max(initial=0.0)
    return diff / scale if scale > 0 else diff


def cell_and_inputs(seed, H, rows, input_size=3):
    rng = np.random.default_rng(seed)
    cell = LstmCell("c", input_size, H, drawn(rng))
    cell.b.data[:] = rng.normal(size=4 * H)      # nonzero biases, all gates live
    return rng, cell, ad.parameter(rng.normal(size=(rows, input_size)), "x")


def layer_and_inputs(seed, H, rows, input_size=3):
    """A bidirectional layer's (fwd, bwd) cells, nonzero biases, and (rows, I) inputs."""
    rng, fwd, x = cell_and_inputs(seed, H, rows, input_size)
    bwd = LstmCell("d", input_size, H, drawn(rng))
    bwd.b.data[:] = rng.normal(size=4 * H)
    return rng, (fwd, bwd), x


def layer_params(x, cells):
    return [x, *(p for cell in cells for p in cell.parameters())]


def weighted_sum(out, weights):
    return tsum(mul(out, weights))


ragged = st.lists(st.integers(1, 7), min_size=1, max_size=5)


@given(seed=seeds, H=hidden, lengths=ragged)
def test_bilstm_sequence_matches_per_gate_chain(seed, H, lengths):
    # one bilstm_sequence node against the per-gate chain, one sequence and
    # one direction at a time
    rng, cells, x = layer_and_inputs(seed, H, sum(lengths))
    weights = rng.normal(size=(sum(lengths), 2 * H))
    fused = ad.bilstm_sequence(x, *cells, lengths)
    oracle = gate_layer(x, *cells, lengths)
    assert fused.data.shape == (sum(lengths), 2 * H)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    params = layer_params(x, cells)
    got = ad.backward(weighted_sum(fused, weights), params)
    want = ad.backward(weighted_sum(oracle, weights), params)
    for p in params:
        assert rel_err(got[p], want[p]) <= 1e-9, p.name


@given(seed=seeds, H=hidden, lengths=ragged)
def test_ragged_bilstm_sequence_matches_separate_runs(seed, H, lengths):
    # stacking sequences of mixed lengths into one node changes no state or gradient
    rng, cells, x = layer_and_inputs(seed, H, sum(lengths))
    weights = rng.normal(size=(sum(lengths), 2 * H))
    stacked = ad.bilstm_sequence(x, *cells, lengths)
    separate = ad.concat([ad.bilstm_sequence(block, *cells, [len(block.data)])
                          for block in row_blocks(x, lengths)], axis=0)
    assert np.abs(stacked.data - separate.data).max() <= 1e-12
    params = layer_params(x, cells)
    got = ad.backward(weighted_sum(stacked, weights), params)
    want = ad.backward(weighted_sum(separate, weights), params)
    for p in params:
        assert rel_err(got[p], want[p]) <= 1e-9, p.name


@given(seed=seeds, H=hidden, lengths=ragged)
def test_ragged_bilstm_sequence_finite_differences(seed, H, lengths):
    rng, cells, x = layer_and_inputs(seed, H, sum(lengths))
    target = rng.uniform(0.1, 1.0, size=(sum(lengths), 2 * H))

    def loss():
        # the mean over rows keeps the loss O(1), within finite-difference resolution
        return mul(ad.cross_entropy(ad.softmax(ad.bilstm_sequence(x, *cells, lengths)),
                                    target), 1.0 / sum(lengths))

    err = finite_diff_check(loss, layer_params(x, cells), num_coords=30,
                            rng=np.random.default_rng(seed))
    assert err <= 1e-5


@pytest.mark.parametrize("lengths", [[2, 1], [3, 3], [3, 0, 1], [0, 4], [-1, 5], [[4]],
                                     np.array([[4]])])
def test_bilstm_sequence_rejects_lengths_that_do_not_split_the_rows(lengths):
    cells = [LstmCell(name, 3, 2, lambda name, shape: ad.tensor(np.zeros(shape)))
             for name in "fb"]
    with pytest.raises(ad.ShapeError, match="lengths .* do not split 4 rows"):
        ad.bilstm_sequence(np.zeros((4, 3)), *cells, lengths)


def test_bilstm_sequence_over_no_rows_is_empty():
    _, cells, _ = layer_and_inputs(0, 2, 0)
    x = ad.parameter(np.zeros((0, 3)), "x")
    out = ad.bilstm_sequence(x, *cells, [])
    assert out.data.shape == (0, 4)
    grads = ad.backward(tsum(out), layer_params(x, cells))
    assert all(not g.any() for g in grads.values())


@given(seed=seeds, H=hidden, B=st.integers(1, 5))
def test_lstm_step_matches_per_gate_chain(seed, H, B):
    rng, cell, x = cell_and_inputs(seed, H, B)
    state = rng.normal(size=(B, 2 * H))
    h, c = gate_step(cell, affine(x, cell.wx, cell.b), state[:, :H], state[:, H:])
    stepped = cell.step(x.data, state)
    assert stepped.shape == (B, 2 * H)
    assert np.abs(stepped - np.concatenate([h.data, c.data], axis=1)).max() <= 1e-12


@given(seed=seeds, H=hidden, n=st.integers(1, 5))
def test_bilstm_sequence_finite_differences(seed, H, n):
    rng, cells, x = layer_and_inputs(seed, H, n)
    target = rng.uniform(0.1, 1.0, size=(n, 2 * H))

    def loss():
        # the mean over rows keeps the loss O(1), within finite-difference resolution
        return mul(ad.cross_entropy(ad.softmax(ad.bilstm_sequence(x, *cells, [n])), target),
                   1.0 / n)

    err = finite_diff_check(loss, layer_params(x, cells), num_coords=30,
                            rng=np.random.default_rng(seed))
    assert err <= 1e-5


@given(seed=seeds, lengths=ragged)
def test_encoder_layer_is_one_node_whatever_the_batch(seed, lengths):
    rng = np.random.default_rng(seed)
    encoder = BiLstmEncoder("e", 3, 2, drawn(rng))
    x = ad.parameter(rng.normal(size=(sum(lengths), 3)), "x")
    nodes = graph_nodes(encoder.encode(x, lengths))
    assert len(nodes) == 1
    assert nodes[0].parents == (x, *encoder.parameters())


def random_batch(params, rng, size, words=UTT):
    """`size` examples of mixed utterance and target lengths, targets ending in EOS."""
    eos = params.out_vocab.tok2id[EOS]
    utterances, tag_lists, targets = [], [], []
    for _ in range(size):
        n = int(rng.integers(1, len(UTT) + 1))
        utterances.append([words[k] for k in rng.integers(len(words), size=n)])
        tag_lists.append(list(rng.integers(len(params.tag_vocab), size=n))
                         if params.config.use_tags else None)
        body = rng.integers(len(params.out_vocab), size=int(rng.integers(0, 8)))
        targets.append(np.append(body, eos).astype(np.intp))
    return utterances, tag_lists, targets


@given(seed=seeds, size=st.integers(1, 5), hidden_size=st.integers(2, 8),
       use_tags=st.booleans())
def test_batched_loss_equals_mean_of_per_example_losses(seed, size, hidden_size,
                                                        use_tags):
    params = tiny_parser(use_tags=use_tags, hidden=hidden_size, seed=seed)
    batch = random_batch(params, np.random.default_rng(seed), size)
    got, want = _batch_loss(params, *batch), mean_loss(params, *batch)
    assert rel_err(got.data, want.data) <= 1e-9
    grads = ad.backward(got, params.parameters())
    oracle = ad.backward(want, params.parameters())
    for p in params.parameters():
        assert rel_err(grads[p], oracle[p]) <= 1e-9, p.name


@given(seed=seeds, size=st.integers(1, 5), hidden_size=st.integers(1, 6),
       use_tags=st.booleans())
def test_batch_inputs_match_per_utterance_oracle(seed, size, hidden_size, use_tags):
    # words repeat and some are unknown; tags range over the whole tag vocabulary
    params = tiny_parser(use_tags=use_tags, hidden=hidden_size, seed=seed)
    batch = random_batch(params, np.random.default_rng(seed), size,
                         words=[*UTT, "unseen", "also-unseen"])
    runs = []
    for inputs in (parser_module._inputs, stacked_inputs):
        with mock.patch.object(parser_module, "_inputs", inputs):
            runs.append((_start(params, *batch[:2]), _batch_loss(params, *batch)))
    (got_start, got), (want_start, want) = runs
    for g, w in zip(got_start, want_start):
        np.testing.assert_array_equal(getattr(g, "data", g), getattr(w, "data", w))
    np.testing.assert_array_equal(got.data, want.data)
    grads = ad.backward(got, params.parameters())
    oracle = ad.backward(want, params.parameters())
    for p in params.parameters():
        assert rel_err(grads[p], oracle[p]) <= 1e-9, p.name


@given(seed=seeds, use_tags=st.booleans())
def test_batch_loss_makes_as_many_tensors_whatever_the_batch_size(seed, use_tags):
    params = tiny_parser(use_tags=use_tags, seed=seed)
    rng = np.random.default_rng(seed)
    counts = []
    for size in (1, 8):
        batch = random_batch(params, rng, size)
        first = next(ad._ids)
        _batch_loss(params, *batch)
        counts.append(next(ad._ids) - first)
    assert counts[0] == counts[1]


def graph_nodes(root):
    """Every op output the recorded graph of `root` reaches, `root` included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop().parents:
            if p.parents and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


@given(seed=seeds, size=st.integers(1, 5))
def test_batch_loss_applies_the_output_layer_once(seed, size):
    params = tiny_parser(seed=seed)
    loss = _batch_loss(params, *random_batch(params, np.random.default_rng(seed), size))
    readers = [n for n in graph_nodes(loss) if any(p is params.w_out for p in n.parents)]
    assert len(readers) == 1


@given(seed=seeds, size=st.integers(1, 5), use_tags=st.booleans())
def test_batch_loss_graph_size_does_not_grow_with_target_length(seed, size, use_tags):
    # every decoder step runs inside one attention_decoder node
    params = tiny_parser(use_tags=use_tags, seed=seed)
    utterances, tag_lists, _ = random_batch(params, np.random.default_rng(seed), size)
    eos = params.out_vocab.tok2id[EOS]
    counts = []
    for steps in (1, 12):
        targets = [np.full(steps, eos, dtype=np.intp)] * size
        counts.append(len(graph_nodes(_batch_loss(params, utterances, tag_lists, targets))))
    assert counts[0] == counts[1]


@given(seed=seeds, size=st.integers(1, 5), hidden_size=st.integers(1, 8),
       use_tags=st.booleans())
def test_attention_decoder_matches_per_step_oracle(seed, size, hidden_size, use_tags):
    # mixed target lengths pad some rows; B > 1 masks each row to its utterance
    params = tiny_parser(use_tags=use_tags, hidden=hidden_size, seed=seed)
    batch = random_batch(params, np.random.default_rng(seed), size)
    got, want = _batch_loss(params, *batch), step_loss(params, *batch)
    assert rel_err(got.data, want.data) <= 1e-9
    grads = ad.backward(got, params.parameters())
    oracle = ad.backward(want, params.parameters())
    for p in params.parameters():
        assert rel_err(grads[p], oracle[p]) <= 1e-9, p.name


def decoder_args(arrays, mask):
    """`attention_decoder`'s positional arguments from its inputs and weights by
    name and its mask, the cell an `LstmCell` over the given `wx`, `wh` and `b`
    as tensors."""
    inputs, hidden = (ad._coerce(arrays[k]).data.shape[1] for k in ("wx", "wh"))
    cell = LstmCell("dec", inputs, hidden,
                    lambda name, shape: ad._coerce(arrays[name.split(".")[1]]))
    return [arrays["inputs"], arrays["h0"], cell,
            *(arrays[k] for k in ("keys", "enc", "w_comb", "b_comb")), mask]


@given(seed=seeds, B=st.integers(1, 3), T=st.integers(1, 4), H=st.integers(1, 4),
       masked=st.booleans())
def test_attention_decoder_finite_differences(seed, B, T, H, masked):
    rng = np.random.default_rng(seed)
    E, C, N = 2, 3, B + 2
    shapes = {"inputs": (T * B, E), "h0": (B, H), "wx": (4 * H, E + H), "wh": (4 * H, H),
              "b": (4 * H,), "keys": (N, H), "enc": (N, C), "w_comb": (H, H + C),
              "b_comb": (H,)}
    arrays = {name: ad.parameter(rng.normal(size=shape), name)
              for name, shape in shapes.items()}
    # unmasked, every row sees every encoder row; masked, row r sees encoder
    # rows r .. N - 1, so every row sees at least two
    mask = np.zeros((B, N))
    if masked:
        mask = np.where(np.arange(N)[None, :] >= np.arange(B)[:, None], 0.0, -np.inf)
    args = decoder_args(arrays, mask)
    target = rng.uniform(0.1, 1.0, size=(T * B, H))

    def loss():
        return mul(ad.cross_entropy(ad.softmax(ad.attention_decoder(*args)),
                                    target), 1.0 / (T * B))

    err = finite_diff_check(loss, list(arrays.values()), num_coords=30,
                            rng=np.random.default_rng(seed))
    assert err <= 1e-5


def test_attention_decoder_rejects_mismatched_shapes():
    H, E, C, N, B = 2, 3, 4, 5, 2
    ok = {"inputs": (3 * B, E), "h0": (B, H), "wx": (4 * H, E + H), "wh": (4 * H, H),
          "b": (4 * H,), "keys": (N, H), "enc": (N, C), "w_comb": (H, H + C),
          "b_comb": (H,)}

    def zeros(shapes, mask=(B, N)):
        return decoder_args({name: np.zeros(shape) for name, shape in shapes.items()},
                            np.zeros(mask))

    assert ad.attention_decoder(*zeros(ok)).data.shape == (3 * B, H)
    for name, shape in [("inputs", (5, E)), ("h0", (B,)), ("enc", (N,)), ("wx", (4 * H, E)),
                        ("keys", (N, H + 1)), ("w_comb", (H, H)), ("b_comb", (H + 1,))]:
        with pytest.raises(ad.ShapeError, match="attention_decoder: "):
            ad.attention_decoder(*zeros({**ok, name: shape}))
    for mask in [(B, N - 1), (1, N), (N,)]:
        with pytest.raises(ad.ShapeError, match="attention_decoder: "):
            ad.attention_decoder(*zeros(ok, mask))


@given(seed=seeds, size=st.integers(1, 4), hidden_size=st.integers(2, 6),
       use_tags=st.booleans())
def test_attention_decoder_steps_the_cell_once_per_target_step(seed, size, hidden_size,
                                                               use_tags):
    # the node's forward pass reaches a swapped decoder cell; its backward
    # recomputes the fused cell's activations, which agree with the swap
    params = tiny_parser(use_tags=use_tags, hidden=hidden_size, seed=seed)
    batch = random_batch(params, np.random.default_rng(seed), size)
    fused = _batch_loss(params, *batch)
    with per_gate_cells([params.decoder]):
        gate_cell_step, calls = params.decoder.step, []

        def counted(x, state):
            calls.append(x.shape[0])
            return gate_cell_step(x, state)

        params.decoder.step = counted
        swapped = _batch_loss(params, *batch)
        swapped_grads = ad.backward(swapped, params.parameters())
    assert calls == [size] * max(len(t) for t in batch[2])
    assert rel_err(swapped.data, fused.data) <= 1e-12
    grads = ad.backward(fused, params.parameters())
    for p in params.parameters():
        assert rel_err(swapped_grads[p], grads[p]) <= 1e-9, p.name


@given(seed=seeds, hidden_size=st.integers(2, 8), use_tags=st.booleans(),
       n=st.integers(1, len(UTT)))
def test_decode_tokens_match_per_gate_oracle(seed, hidden_size, use_tags, n):
    params = tiny_parser(use_tags=use_tags, hidden=hidden_size, seed=seed)
    rng = np.random.default_rng(seed)
    utterance = UTT[:n]
    tags = list(rng.integers(len(params.tag_vocab), size=n)) if use_tags else None
    for beam in (1, 2, 5):
        config = DecodeConfig(beam_size=beam, max_length=8)
        fused = decode(params, utterance, tags, config)
        with per_gate_cells(parser_cells(params)) as layers:
            gate_cell_step, calls = params.decoder.step, []

            def counted(x, state):
                calls.append(1)
                return gate_cell_step(x, state)

            params.decoder.step = counted
            oracle = decode(params, utterance, tags, config)
        # the one encoder pass reaches the swapped encoder, and one step per
        # output token, plus the end marker's, reaches the swapped cell
        assert layers == [(params.encoder.fwd, params.encoder.bwd)]
        assert len(calls) >= len(oracle.token_ids) + (not oracle.truncated)
        assert fused.token_ids == oracle.token_ids
        assert fused.truncated == oracle.truncated
        np.testing.assert_allclose(fused.score, oracle.score, rtol=1e-12)


@given(seed=seeds, hidden_size=st.integers(2, 8), use_tags=st.booleans(),
       n=st.integers(1, len(UTT)), max_length=st.integers(1, 12))
def test_batched_beam_matches_per_hypothesis_oracle(seed, hidden_size, use_tags, n,
                                                     max_length):
    params = tiny_parser(use_tags=use_tags, hidden=hidden_size, seed=seed)
    rng = np.random.default_rng(seed)
    tags = list(rng.integers(len(params.tag_vocab), size=n)) if use_tags else None
    for beam in (1, 2, 5):
        config = DecodeConfig(beam_size=beam, max_length=max_length)
        got = decode(params, UTT[:n], tags, config)
        want = beam_decode(params, UTT[:n], tags, config)
        assert got.token_ids == want.token_ids
        assert got.truncated == want.truncated
        np.testing.assert_allclose(got.score, want.score, rtol=1e-12)


@pytest.mark.parametrize("banded", [False, True])
def test_beam_ties_go_to_earlier_hypothesis_then_lower_token_id(banded):
    # every step ties: all tokens alike, or bands of ids k with equal k % 3
    params = tiny_parser(seed=4)
    params.w_out.data[:] = 0.0
    ids = np.arange(len(params.out_vocab))
    params.b_out.data[:] = -(ids % 3) if banded else 0.0
    tags = [0] * len(UTT)
    assert params.out_vocab.tok2id[EOS] == 2
    for beam in (1, 2, 3, 5, 7):
        config = DecodeConfig(beam_size=beam, max_length=6)
        got = decode(params, UTT, tags, config)
        want = beam_decode(params, UTT, tags, config)
        assert (got.token_ids, got.truncated) == (want.token_ids, want.truncated)
        np.testing.assert_allclose(got.score, want.score, rtol=1e-12)
        # lower ids outrank the end marker (id 2) within its band
        ends = beam >= 3 and not banded
        assert got.token_ids == (() if ends else (0,) * 6)
        assert got.truncated == (not ends)
    if banded:
        return
    # one token ahead of the tied rest: from step 2 on, 13 or more tied
    # candidates trail the best one in a ranking of 28 or more, long enough
    # for numpy's default (unstable) sort to reorder the ties
    params.b_out.data[5] = 1.0
    for beam in (2, 3, 5, 7):
        config = DecodeConfig(beam_size=beam, max_length=6)
        got = decode(params, UTT, tags, config)
        want = beam_decode(params, UTT, tags, config)
        assert (got.token_ids, got.truncated) == (want.token_ids, want.truncated)
        np.testing.assert_allclose(got.score, want.score, rtol=1e-12)
        # the end marker enters the beam only behind lower ids
        ends = beam >= 5
        assert got.token_ids == (() if ends else (5,) * 6)
        assert got.truncated == (not ends)


def exhaustive_best(params, utterance, tags, max_length):
    """(score, token ids) of the best output ending in the end marker within
    `max_length` steps, found by scoring every such output."""
    eos = params.out_vocab.tok2id[EOS]
    complete = []
    with ad.no_grad():
        enc, keys, _, state, feed = start(params, [utterance], [tags])
        frontier = [((), params.out_vocab.tok2id[BOS], 0.0, state, feed)]
        for _ in range(max_length):
            grown = []
            for prefix, prev, score, state, feed in frontier:
                state, feed = decoder_step(params, [prev], state, feed, enc, keys)
                logp = np.log(np.maximum(output_probs(params, feed)[0], 1e-300))
                for tok, lp in enumerate(logp):
                    if tok == eos:
                        complete.append((score + lp, prefix))
                    else:
                        grown.append((prefix + (tok,), tok, score + lp, state, feed))
            frontier = grown
    return max(complete)


@given(seed=seeds, hidden_size=st.integers(1, 6), use_tags=st.booleans(),
       n=st.integers(1, len(UTT)), max_length=st.integers(1, 3))
def test_exact_beam_equals_exhaustive_enumeration(seed, hidden_size, use_tags, n,
                                                  max_length):
    # a beam of |out| ** max_length keeps every output, so the search is exact
    config = ParserConfig(word_embedding_size=3, tag_embedding_size=2,
                          hidden_size=hidden_size, use_tags=use_tags, seed=seed)
    params = init_parser(Vocab(UTT), Vocab([BOS, EOS, NULL_TAG, UNK_TAG, "x"]),
                         TagVocabulary([]), config, "lambda")
    tags = [TagVocabulary.null_id] * n if use_tags else None
    beam = len(params.out_vocab) ** max_length
    got = decode(params, UTT[:n], tags, DecodeConfig(beam_size=beam,
                                                     max_length=max_length))
    score, ids = exhaustive_best(params, UTT[:n], tags, max_length)
    assert got.token_ids == ids
    assert not got.truncated
    np.testing.assert_allclose(got.score, score, rtol=1e-12)


def test_lstm_ops_reject_mismatched_shapes():
    def cells(hidden, inputs=3):
        return [LstmCell(name, inputs, hidden, lambda name, shape: ad.tensor(np.zeros(shape)))
                for name in "fb"]

    assert ad.bilstm_sequence(np.zeros((3, 3)), *cells(2), [3]).data.shape == (3, 4)
    for x, (fwd, bwd) in [(np.zeros((3, 4)), cells(2)), (np.zeros(3), cells(2)),
                          (np.zeros((3, 3)), [cells(2)[0], cells(3)[1]]),
                          (np.zeros((3, 3)), [cells(2)[0], cells(2, inputs=4)[1]])]:
        with pytest.raises(ad.ShapeError, match="bilstm_sequence: input"):
            ad.bilstm_sequence(x, fwd, bwd, [3])


TAGGER_WORDS = "frame0 word1 trips to city2 from".split()
TAGGER_SYMBOLS = ["shape0", "pred1", "to", "city2"]


def em_batch(seed, size, linked):
    """`size` utterances of 2-6 words, each with fewer symbols than words;
    with `linked`, each pins its first symbol to a span of 1-2 words."""
    rng = np.random.default_rng(seed)
    utterances, symbol_sets = [], []
    for _ in range(size):
        n = int(rng.integers(2, 7))
        symbols = list(rng.choice(TAGGER_SYMBOLS, size=int(rng.integers(linked, min(n, 5))),
                                  replace=False))
        fixed = {}
        if linked:
            start = int(rng.integers(n))
            fixed[symbols[0]] = tuple(range(start, min(n, start + 2)))
        utterances.append(list(rng.choice(TAGGER_WORDS, size=n)))
        symbol_sets.append(SymbolSet(tuple(symbols), padded_length=n,
                                     fixed_alignments=fixed))
    return utterances, symbol_sets


@given(seed=seeds, size=st.integers(1, 5), hard=st.booleans(), linked=st.booleans())
def test_batched_em_loss_equals_mean_of_per_example_losses(seed, size, hard, linked):
    params = init_tagger(Vocab(TAGGER_WORDS), TagVocabulary(TAGGER_SYMBOLS),
                         TaggerConfig(embedding_size=4, hidden_size=3), seed=seed)
    utterances, symbol_sets = em_batch(seed, size, linked)
    posteriors = []
    for words, sset in zip(utterances, symbol_sets):
        post = compute_posteriors(tag_distribution(params, [words]).data, sset,
                                  params.tag_vocab)
        posteriors.append(harden_posteriors(post, 0.26) if hard else post)
    assert all(p.fixed_columns for p in posteriors) == linked
    got = em_loss(tag_distribution(params, utterances), posteriors)
    want = em_mean_loss(params, utterances, posteriors)
    assert rel_err(got.data, want.data) <= 1e-9
    grads = ad.backward(got, params.parameters())
    oracle = ad.backward(want, params.parameters())
    for p in params.parameters():
        assert rel_err(grads[p], oracle[p]) <= 1e-9, p.name


@given(seed=seeds, lengths=ragged, hidden_size=hidden)
def test_batched_tagger_matches_per_utterance_oracle(seed, lengths, hidden_size):
    params = init_tagger(Vocab(TAGGER_WORDS), TagVocabulary(TAGGER_SYMBOLS),
                         TaggerConfig(embedding_size=4, hidden_size=hidden_size), seed=seed)
    rng = np.random.default_rng(seed)
    params.b_out.data[:] = rng.normal(size=params.b_out.data.shape)
    # an unseen word takes the unknown row
    utterances = [list(rng.choice(TAGGER_WORDS + ["unseen"], size=n)) for n in lengths]
    probs = tag_distribution(params, utterances)
    blocks = [gate_tag_distribution(params, words) for words in utterances]
    got_blocks = np.split(probs.data, np.cumsum(lengths)[:-1])
    for got, want in zip(got_blocks, blocks):
        assert np.abs(got - want.data).max() <= 1e-12
    weights = rng.normal(size=probs.data.shape)
    grads = ad.backward(weighted_sum(probs, weights), params.parameters())
    oracle = ad.backward(weighted_sum(ad.concat(blocks, axis=0), weights),
                         params.parameters())
    for p in params.parameters():
        assert rel_err(grads[p], oracle[p]) <= 1e-9, p.name
    tags = predict_tags(params, utterances)
    assert len(tags) == len(utterances)
    for got, want in zip(tags, blocks):
        assert np.array_equal(got, np.argmax(want.data, axis=1))
