"""LSTM building blocks: shapes, direction symmetry, gradients."""

import numpy as np

from tagparse import autodiff as ad
from tagparse.nn import BiLstmEncoder, LstmCell, Vocab, drawn

from tests.oracles import finite_diff_check


def test_vocab_roundtrip_and_unknown():
    v = Vocab(["from", "to", "from"])
    assert len(v) == 3  # unk + 2 distinct
    ids = v.encode(["to", "never-seen", "from"])
    assert list(v.decode(ids)) == ["to", "<unk>", "from"]
    assert ids[1] == v.tok2id["<unk>"]


def test_single_token_runs_both_directions():
    rng = np.random.default_rng(42)
    enc = BiLstmEncoder("enc", input_size=3, hidden_size=4, make=drawn(rng))
    out = enc.encode(ad.tensor(rng.normal(size=(1, 3))), [1])
    assert out.data.shape == (1, 8)
    assert np.isfinite(out.data).all()


def test_output_shape_n_by_twice_hidden():
    rng = np.random.default_rng(0)
    enc = BiLstmEncoder("enc", input_size=5, hidden_size=150, make=drawn(rng))
    out = enc.encode(ad.tensor(rng.normal(size=(7, 5))), [7])
    assert out.data.shape == (7, 300)


def test_reversal_swaps_directional_states():
    # With one cell for both directions, the forward states over x equal the
    # backward states over reversed x at mirrored positions, and vice versa.
    rng = np.random.default_rng(1)
    cell = LstmCell("c", input_size=3, hidden_size=4, make=drawn(rng))
    x = rng.normal(size=(5, 3))
    out = ad.bilstm_sequence(ad.tensor(x), cell, cell, [5]).data
    mirrored = ad.bilstm_sequence(ad.tensor(x[::-1].copy()), cell, cell, [5]).data
    np.testing.assert_allclose(out[:, :4], mirrored[::-1, 4:], atol=1e-12)
    np.testing.assert_allclose(out[:, 4:], mirrored[::-1, :4], atol=1e-12)


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    enc = BiLstmEncoder("enc", input_size=3, hidden_size=4, make=drawn(rng))
    x = ad.tensor(rng.normal(size=(4, 3)))
    target = rng.uniform(0.1, 1.0, size=(4, 8))

    def loss():
        return ad.cross_entropy(ad.softmax(enc.encode(x, [4])), target)

    err = finite_diff_check(loss, enc.parameters(), num_coords=50,
                            rng=np.random.default_rng(4))
    assert err <= 1e-5


def test_encoder_holds_one_cell_per_direction():
    enc = BiLstmEncoder("enc", input_size=3, hidden_size=4, make=drawn(np.random.default_rng(2)))
    assert [p.name for p in enc.parameters()] == [
        f"enc.{d}.{w}" for d in ("fwd", "bwd") for w in ("wx", "wh", "b")]
    assert enc.fwd.wx.data.shape == enc.bwd.wx.data.shape == (16, 3)
