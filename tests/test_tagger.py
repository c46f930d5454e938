"""Tagger model: encoding, tag distributions, argmax prediction."""

import numpy as np
import pytest

from tagparse import autodiff as ad
from tagparse.nn import Vocab
from tagparse.tagger import (TagVocabulary, TaggerConfig, init_tagger,
                             load_tagger, predict_tags, save_tagger,
                             tag_distribution)

WORDS = "show me morning flights from boston to denver".split()


def small_params(hidden=6, emb=5, seed=0, symbols=("flight", "from", "to", "morning")):
    return init_tagger(Vocab(WORDS), TagVocabulary(symbols),
                       TaggerConfig(embedding_size=emb, hidden_size=hidden),
                       seed=seed)


def encode(params, words):
    """Contextual states h_i = [h_forward; h_backward] of one utterance, (n, 2H)."""
    x = ad.embedding(params.embedding, params.word_vocab.encode(words))
    return params.encoder.encode(x, [len(words)])


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_tag_vocabulary_layout():
    tv = TagVocabulary(["from", "to", "from"])
    assert tv.null_id == 0 and tv.unk_id == 1
    assert len(tv) == 4                    # null, unk, from, to
    assert tv.id_of("from") == 2 and tv.symbol_of(2) == "from"
    assert tv.id_of("never-seen") == tv.unk_id
    assert "to" in tv and "elsewhere" not in tv
    for sym, i in tv.sym2id.items():       # bijection over known symbols
        assert tv.id2sym[i] == sym


def test_tag_vocabulary_rejects_reserved_names():
    with pytest.raises(ValueError, match="reserved"):
        TagVocabulary(["<null>"])


def test_encode_single_token():
    params = small_params()
    h = encode(params, ["boston"])
    assert h.data.shape == (1, 12)
    assert np.all(np.isfinite(h.data))


def test_encode_shape_seven_words_hidden_150():
    params = init_tagger(Vocab(WORDS), TagVocabulary(["from"]),
                         TaggerConfig(embedding_size=8, hidden_size=150), seed=1)
    h = encode(params, WORDS[:7])
    assert h.data.shape == (7, 300)


def test_distribution_rows_stochastic():
    params = small_params()
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        utt = [WORDS[i] for i in rng.integers(0, len(WORDS), size=n)]
        m = tag_distribution(params, [utt]).data
        assert m.shape == (n, 6)
        assert np.all(m >= 0) and np.all(m <= 1)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)


def test_zero_output_weights_give_uniform_rows():
    params = small_params()
    for p in (params.w_out, params.u_out, params.b_out):
        p.data[:] = 0.0
    m = tag_distribution(params, [WORDS]).data
    np.testing.assert_allclose(m, 1.0 / 6.0, atol=1e-12)
    assert predict_tags(params, [WORDS])[0].tolist() == [0] * len(WORDS)  # tie-break


def test_logits_match_dense_oracle():
    params = small_params(hidden=7, emb=4, seed=5)
    ids = params.word_vocab.encode(WORDS)
    x = params.embedding.data[ids]
    h = encode(params, WORDS).data
    logits = h @ params.w_out.data.T + x @ params.u_out.data.T + params.b_out.data
    np.testing.assert_allclose(tag_distribution(params, [WORDS]).data,
                               np_softmax(logits), atol=1e-12)
    # shifting every logit in a row leaves the argmax unchanged
    shifted = logits + np.arange(1, len(WORDS) + 1)[:, None] * 3.7
    assert np.array_equal(np_softmax(shifted).argmax(axis=1),
                          predict_tags(params, [WORDS])[0])


def test_permuting_tag_ids_permutes_columns():
    params = small_params(seed=9)
    old_of = np.array([3, 0, 5, 1, 4, 2])      # new column -> old column
    permuted = small_params(seed=9)
    permuted.w_out.data = params.w_out.data[old_of].copy()
    permuted.u_out.data = params.u_out.data[old_of].copy()
    permuted.b_out.data = params.b_out.data[old_of].copy()
    np.testing.assert_allclose(tag_distribution(permuted, [WORDS]).data,
                               tag_distribution(params, [WORDS]).data[:, old_of],
                               atol=1e-12)


def test_word_loss_gradient_touches_only_that_row():
    # Conditional independence: a loss on word i's distribution row has
    # exactly zero gradient on every other row of the probability matrix.
    params = small_params()
    probs = tag_distribution(params, [WORDS[:5]])
    weights = np.zeros_like(probs.data)
    weights[2, 3] = 1.0
    loss = ad.cross_entropy(probs, weights)
    g = ad.backward(loss, [probs])[probs]
    assert np.any(g[2] != 0)
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert np.all(g[mask] == 0)


def test_unknown_words_use_unknown_embedding():
    params = small_params()
    a, b = predict_tags(params, [["qqq", "from", "boston"], ["zzz", "from", "boston"]])
    assert np.array_equal(a, b)            # both map to the same unk row


def test_predict_deterministic():
    params = small_params(seed=11)
    a = predict_tags(params, [WORDS])
    b = predict_tags(params, [WORDS])
    assert np.array_equal(a[0], b[0])


def test_predict_tags_gives_one_array_per_utterance():
    params = small_params(seed=12)
    utterances = [WORDS, WORDS[:1], WORDS[3:6]]
    tags = predict_tags(params, utterances)
    assert [t.shape for t in tags] == [(8,), (1,), (3,)]
    assert predict_tags(params, []) == []


def test_checkpoint_round_trip(tmp_path):
    params = small_params(hidden=4, emb=3, seed=13)
    path = tmp_path / "tagger.json"
    save_tagger(path, params)
    loaded = load_tagger(path)
    assert loaded.word_vocab.id2tok == params.word_vocab.id2tok
    assert loaded.tag_vocab.id2sym == params.tag_vocab.id2sym
    np.testing.assert_array_equal(tag_distribution(loaded, [WORDS]).data,
                                  tag_distribution(params, [WORDS]).data)
    again = tmp_path / "again.json"
    save_tagger(again, loaded)
    assert path.read_bytes() == again.read_bytes()
