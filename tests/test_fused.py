"""Fused LSTM ops and the batched parser loss against the per-gate oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagparse import autodiff as ad
from tagparse.nn import LstmCell
from tagparse.parser import (EOS, DecodeConfig, _batch_loss, _sequence_loss,
                             decode)

from tests.oracles import (gate_run, gate_step, mean_loss, parser_cells,
                           per_gate_cells)
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
    cell = LstmCell("c", input_size, H, rng)
    cell.b.data[:] = rng.normal(size=4 * H)      # nonzero biases, all gates live
    return rng, cell, ad.parameter(rng.normal(size=(rows, input_size)), "x")


def weighted_sum(out, weights):
    return ad.tsum(ad.mul(out, weights))


@given(seed=seeds, H=hidden, n=st.integers(1, 7), reverse=st.booleans())
def test_lstm_sequence_matches_per_gate_chain(seed, H, n, reverse):
    rng, cell, x = cell_and_inputs(seed, H, n)
    weights = rng.normal(size=(n, H))
    fused = cell.run(x, reverse)
    oracle = ad.concat(gate_run(cell, x, reverse), axis=0)
    assert fused.data.shape == (n, H)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    params = [x, *cell.parameters()]
    got = ad.backward(weighted_sum(fused, weights), params)
    want = ad.backward(weighted_sum(oracle, weights), params)
    for p in params:
        assert rel_err(got[p], want[p]) <= 1e-9, p.name


@given(seed=seeds, H=hidden, B=st.integers(1, 5))
def test_lstm_step_matches_per_gate_chain(seed, H, B):
    rng, cell, x = cell_and_inputs(seed, H, B)
    state = ad.parameter(rng.normal(size=(B, 2 * H)), "state")
    weights = rng.normal(size=(B, 2 * H))
    xproj = cell.project_inputs(x)
    fused = cell.step(xproj, state)
    h, c = gate_step(cell, xproj, ad.cols(state, 0, H), ad.cols(state, H, 2 * H))
    oracle = ad.concat([h, c], axis=1)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    params = [x, state, *cell.parameters()]
    got = ad.backward(weighted_sum(fused, weights), params)
    want = ad.backward(weighted_sum(oracle, weights), params)
    for p in params:
        assert rel_err(got[p], want[p]) <= 1e-9, p.name


@given(seed=seeds, H=hidden, n=st.integers(1, 5), reverse=st.booleans())
def test_lstm_sequence_finite_differences(seed, H, n, reverse):
    rng, cell, x = cell_and_inputs(seed, H, n)
    target = rng.uniform(0.1, 1.0, size=(n, H))

    def loss():
        return ad.cross_entropy(ad.softmax(cell.run(x, reverse)), target)

    err = ad.finite_diff_check(loss, [x, *cell.parameters()], num_coords=30,
                               rng=np.random.default_rng(seed))
    assert err <= 1e-5


@given(seed=seeds, H=hidden, B=st.integers(1, 4))
def test_lstm_step_finite_differences(seed, H, B):
    rng, cell, x = cell_and_inputs(seed, H, B)
    state = ad.parameter(rng.normal(size=(B, 2 * H)), "state")
    target = rng.uniform(0.1, 1.0, size=(B, 2 * H))

    def loss():
        return ad.cross_entropy(ad.softmax(cell.step(cell.project_inputs(x), state)),
                                target)

    err = ad.finite_diff_check(loss, [x, state, *cell.parameters()], num_coords=30,
                               rng=np.random.default_rng(seed))
    assert err <= 1e-5


def random_batch(params, rng, size):
    """`size` examples of mixed utterance and target lengths, targets ending in EOS."""
    eos = params.out_vocab.tok2id[EOS]
    utterances, tag_lists, targets = [], [], []
    for _ in range(size):
        n = int(rng.integers(1, len(UTT) + 1))
        utterances.append([UTT[k] for k in rng.integers(len(UTT), size=n)])
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


def test_sequence_loss_is_the_one_example_batch():
    params = tiny_parser(seed=7)
    batch = random_batch(params, np.random.default_rng(7), 4)
    per_example = [_sequence_loss(params, u, t, y).data for u, t, y in zip(*batch)]
    np.testing.assert_allclose(_batch_loss(params, *batch).data,
                               np.mean(per_example), rtol=1e-12)


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
        with per_gate_cells(parser_cells(params)):
            oracle = decode(params, utterance, tags, config)
        assert fused.token_ids == oracle.token_ids
        assert fused.truncated == oracle.truncated
        np.testing.assert_allclose(fused.score, oracle.score, rtol=1e-12)


def test_lstm_ops_reject_mismatched_shapes():
    wh = ad.tensor(np.zeros((8, 2)))
    with pytest.raises(ad.ShapeError, match="lstm_sequence: input projection"):
        ad.lstm_sequence(np.zeros((3, 6)), wh)
    with pytest.raises(ad.ShapeError, match="lstm_step: state"):
        ad.lstm_step(np.zeros((2, 8)), np.zeros((3, 4)), wh)
