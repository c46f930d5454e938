"""Alignment posteriors, hardening, EM losses, and tagger training."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagparse import autodiff as ad
from tagparse.data import SymbolSet, gen_synthetic
from tagparse.em import (AlignmentPosterior, EmConfig, EmError, _usable,
                         compute_posteriors, em_loss, gold_tag_ids,
                         harden_posteriors, tag_accuracy, train_tagger)
from tagparse.nn import Vocab
from tagparse.optim import Adam
from tagparse.tagger import (TaggerConfig, TagVocabulary, init_tagger,
                             predict_tags, tag_distribution)

from tests.oracles import finite_diff_check
from tests.test_synthetic import cartesian_grammar


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def random_probs(rng, n, tag_vocab):
    """A random (n, |tags|) row-stochastic tag probability matrix."""
    return np_softmax(rng.normal(size=(n, len(tag_vocab))))


TV = TagVocabulary(["a", "b", "c"])        # ids: null 0, unk 1, a 2, b 3, c 4
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def posterior_inputs(draw, max_words=7, min_symbols=0, nulls=0):
    """(tag probabilities, symbol set) of an utterance of up to `max_words` words
    with up to three of TV's symbols and at least `nulls` null columns."""
    n = draw(st.integers(max(1, min_symbols + nulls), max_words))
    symbols = draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True,
                            min_size=min_symbols, max_size=min(3, n - nulls)))
    probs = random_probs(np.random.default_rng(draw(seeds)), n, TV)
    return probs, symbol_set(symbols, n)


def symbol_set(symbols, n, fixed=None):
    return SymbolSet(tuple(symbols), padded_length=n,
                     fixed_alignments=fixed or {})


def enumerate_posterior(prob_matrix, tag_ids):
    """Marginalize over every joint alignment of all n columns to words."""
    n = prob_matrix.shape[0]
    pi = np.zeros((n, len(tag_ids)))
    total = 0.0
    for joint in itertools.product(range(n), repeat=len(tag_ids)):
        w = 1.0
        for j, i in enumerate(joint):
            w *= prob_matrix[i, tag_ids[j]]
        total += w
        for j, i in enumerate(joint):
            pi[i, j] += w
    return pi / total


def test_posterior_two_word_hand_example():
    m = np.array([[0.1, 0.1, 0.8],
                  [0.4, 0.4, 0.2]])
    tv = TagVocabulary(["s"])
    post = compute_posteriors(m, symbol_set(["s"], 2), tv)
    np.testing.assert_allclose(post.matrix[:, 0], [0.8, 0.2], atol=1e-12)
    np.testing.assert_allclose(post.matrix[:, 1], [0.2, 0.8], atol=1e-12)
    assert post.mode == "soft" and post.num_symbols == 1
    assert post.tag_ids.tolist() == [2, 0]


def test_posterior_uniform_likelihood_gives_uniform_columns():
    row = np_softmax(np.array([0.3, -1.0, 2.0, 0.0, 1.0]))
    m = np.tile(row, (4, 1))
    post = compute_posteriors(m, symbol_set(["a", "c"], 4), TV)
    np.testing.assert_allclose(post.matrix, 0.25, atol=1e-12)


@given(posterior_inputs(max_words=5))    # the oracle sums n ** n alignments
def test_posterior_matches_enumeration_oracle(inputs):
    probs, sset = inputs
    post = compute_posteriors(probs, sset, TV)
    oracle = enumerate_posterior(probs, post.tag_ids)
    np.testing.assert_allclose(post.matrix, oracle, atol=1e-12)


@given(posterior_inputs())
def test_posterior_columns_normalized(inputs):
    post = compute_posteriors(*inputs, TV)
    assert np.all(post.matrix >= 0)
    np.testing.assert_allclose(post.matrix.sum(axis=0), 1.0, atol=1e-9)


def test_posterior_shape_mismatches_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(EmError, match="padded"):
        compute_posteriors(random_probs(rng, 3, TV), symbol_set(["a"], 4), TV)
    with pytest.raises(EmError, match="more symbols"):
        compute_posteriors(random_probs(rng, 2, TV),
                           SymbolSet(("a", "b", "c"), padded_length=2), TV)


def test_posterior_zero_likelihood_column_errors():
    m = np.array([[0.5, 0.5, 0.0],
                  [0.5, 0.5, 0.0]])
    tv = TagVocabulary(["s"])
    with pytest.raises(EmError, match="zero likelihood"):
        compute_posteriors(m, symbol_set(["s"], 2), tv)


def test_fixed_single_index_is_one_hot():
    rng = np.random.default_rng(1)
    sset = symbol_set(["a", "b"], 7, fixed={"b": (5,)})
    post = compute_posteriors(random_probs(rng, 7, TV), sset, TV)
    np.testing.assert_array_equal(post.matrix[:, 1],
                                  [0, 0, 0, 0, 0, 1, 0])
    assert post.fixed_columns == frozenset({1})
    np.testing.assert_allclose(post.matrix.sum(axis=0), 1.0, atol=1e-9)


def test_fixed_two_word_span_splits_mass():
    rng = np.random.default_rng(2)
    sset = symbol_set(["a"], 5, fixed={"a": (1, 2)})
    post = compute_posteriors(random_probs(rng, 5, TV), sset, TV)
    np.testing.assert_allclose(post.matrix[:, 0], [0, 0.5, 0.5, 0, 0], atol=1e-12)


def test_no_links_returns_posterior_unchanged():
    # without a link, or with an empty span, every column is the normalised likelihood
    probs = random_probs(np.random.default_rng(3), 4, TV)
    likelihood = np.maximum(probs[:, [TV.id_of("a"), TV.null_id, TV.null_id, TV.null_id]],
                            ad.PROB_FLOOR)
    for fixed in ({}, {"a": ()}):
        post = compute_posteriors(probs, symbol_set(["a"], 4, fixed=fixed), TV)
        np.testing.assert_array_equal(post.matrix,
                                      likelihood / likelihood.sum(axis=0, keepdims=True))
        assert post.fixed_columns == frozenset()


def test_fixed_symbol_missing_from_set_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(EmError, match="not in symbol set"):
        compute_posteriors(random_probs(rng, 4, TV),
                           symbol_set(["a"], 4, fixed={"zzz": (0,)}), TV)


def soft_posterior(columns, num_symbols, tag_ids, fixed=()):
    return AlignmentPosterior(matrix=np.asarray(columns, dtype=np.float64),
                              num_symbols=num_symbols, mode="soft",
                              tag_ids=np.asarray(tag_ids, dtype=np.intp),
                              fixed_columns=frozenset(fixed))


def test_harden_hand_example():
    soft = soft_posterior([[0.5, 0.25, 0.25],
                           [0.4, 0.30, 0.30],
                           [0.1, 0.45, 0.45]], 1, [2, 0, 0])
    hard = harden_posteriors(soft, beta=0.3)
    assert hard.mode == "hard"
    np.testing.assert_array_equal(hard.matrix[:, 0], [1, 1, 0])
    np.testing.assert_allclose(hard.matrix[:, 1], [0, 0, 0.5], atol=1e-12)
    np.testing.assert_allclose(hard.matrix[:, 2], [0, 0, 0.5], atol=1e-12)
    np.testing.assert_allclose(hard.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_harden_nothing_above_threshold():
    soft = soft_posterior([[0.25, 0.375, 0.375],
                           [0.25, 0.375, 0.375],
                           [0.25, 0.125, 0.125],
                           [0.25, 0.125, 0.125]], 1, [2, 0, 0])
    hard = harden_posteriors(soft, beta=0.26)
    assert np.all(hard.matrix[:, 0] == 0)
    np.testing.assert_allclose(hard.matrix[:, 1:], 0.5, atol=1e-12)
    np.testing.assert_allclose(hard.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_harden_clamps_negative_null_mass_and_renormalizes():
    soft = soft_posterior([[0.6, 0.7, 0.2],
                           [0.3, 0.2, 0.4],
                           [0.1, 0.1, 0.4]], 2, [2, 3, 0])
    hard = harden_posteriors(soft, beta=0.5)
    np.testing.assert_allclose(hard.matrix[0], [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(hard.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_harden_keeps_pinned_span_below_threshold():
    # A four-word fixed span has soft mass 0.25 < beta; the span must
    # survive hardening because linked columns are never re-thresholded.
    soft = soft_posterior([[0.25, 0.15], [0.25, 0.15], [0.25, 0.15],
                           [0.25, 0.15], [0.0, 0.4]], 1, [2, 0],
                          fixed=(0,))
    hard = harden_posteriors(soft, beta=0.3)
    np.testing.assert_array_equal(hard.matrix[:, 0], [1, 1, 1, 1, 0])


@given(posterior_inputs(min_symbols=1, nulls=1), st.floats(0.05, 0.95))
def test_harden_random_properties(inputs, beta):
    soft = compute_posteriors(*inputs, TV)
    hard = harden_posteriors(soft, beta)
    assert np.all(hard.matrix >= 0) and np.all(hard.matrix <= 1)
    np.testing.assert_allclose(hard.matrix.sum(axis=1), 1.0, atol=1e-9)
    thresholded = soft.matrix[:, : soft.num_symbols] > beta
    calm = thresholded.sum(axis=1) <= 1   # rows that needed no renorm
    np.testing.assert_array_equal(hard.matrix[calm, : soft.num_symbols],
                                  thresholded[calm].astype(float))


def test_harden_preconditions():
    soft = soft_posterior([[1.0, 0.0], [0.0, 1.0]], 1, [2, 0])
    with pytest.raises(EmError, match="beta"):
        harden_posteriors(soft, beta=1.0)
    hard = harden_posteriors(soft, beta=0.5)
    with pytest.raises(EmError, match="soft"):
        harden_posteriors(hard, beta=0.5)
    full = soft_posterior([[1.0, 0.0], [0.0, 1.0]], 2, [2, 3])
    with pytest.raises(EmError, match="null columns"):
        harden_posteriors(full, beta=0.5)


def test_soft_loss_one_hot_posterior_is_cross_entropy():
    rng = np.random.default_rng(5)
    m = random_probs(rng, 3, TV)
    post = soft_posterior([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
                          2, [2, 3, 0])
    loss = em_loss(ad.tensor(m), [post])
    expected = -(np.log(m[0, 2]) + np.log(m[1, 3]) + np.log(m[2, 0]))
    np.testing.assert_allclose(float(loss.data), expected, atol=1e-12)


def test_soft_loss_uniform_column_is_mean_nll():
    rng = np.random.default_rng(6)
    probs = random_probs(rng, 4, TV)
    matrix = np.zeros((4, 4))
    matrix[:, 0] = 0.25
    post = soft_posterior(matrix, 1, [4, 0, 0, 0])
    expected = np.mean(-np.log(probs[:, 4]))
    np.testing.assert_allclose(float(em_loss(ad.tensor(probs), [post]).data),
                               expected, atol=1e-12)


def test_loss_invariant_to_symbol_order():
    rng = np.random.default_rng(8)
    probs = random_probs(rng, 5, TV)
    post = compute_posteriors(probs, symbol_set(["a", "b", "c"], 5), TV)
    perm = [2, 0, 1, 3, 4]
    swapped = AlignmentPosterior(matrix=post.matrix[:, perm].copy(),
                                 num_symbols=3, mode="soft",
                                 tag_ids=post.tag_ids[perm])
    dist = ad.tensor(probs)
    np.testing.assert_allclose(float(em_loss(dist, [post]).data),
                               float(em_loss(dist, [swapped]).data),
                               rtol=1e-12)


def em_loss_setup(hard_phase):
    words = "frame0 word1 trips to city2".split()
    params = init_tagger(Vocab(words), TagVocabulary(["shape0", "pred1", "to"]),
                         TaggerConfig(embedding_size=4, hidden_size=5), seed=21)
    sset = symbol_set(["shape0", "pred1", "to"], 5, fixed={"to": (4,)})

    # The E-step posterior is a constant of the M-step objective, so it
    # is frozen at the initial parameters; only log p(z|x) varies.
    post = compute_posteriors(tag_distribution(params, [words]).data, sset,
                              params.tag_vocab)
    if hard_phase:
        post = harden_posteriors(post, 0.26)

    def loss_fn():
        return em_loss(tag_distribution(params, [words]), [post])

    return loss_fn, params


@pytest.mark.parametrize("hard_phase", [False, True])
def test_em_loss_gradients_match_finite_differences(hard_phase):
    loss_fn, params = em_loss_setup(hard_phase)
    err = finite_diff_check(loss_fn, params.parameters(), num_coords=40,
                            rng=np.random.default_rng(0))
    assert err <= 1e-5


def test_one_adam_step_decreases_convex_loss():
    # Reduced to logistic regression: logits are free parameters, the
    # posterior is a fixed one-hot target, so the objective is convex
    # in the parameters and a small Adam step cannot increase it.
    logits = ad.parameter(np.array([[0.3, -0.2, 0.9, 0.0]]), "logits")
    post = soft_posterior([[1.0, 0, 0, 0]], 1, [1, 0, 0, 0])

    def loss():
        return em_loss(ad.softmax(logits), [post])

    before = float(loss().data)
    opt = Adam([logits], lr=1e-3)
    opt.step(ad.backward(loss(), [logits]))
    after = float(loss().data)
    assert after <= before + 1e-8


def synthetic_corpus(n_preds=2, n_ents=3, n_templates=1, seed=0):
    return gen_synthetic(cartesian_grammar(n_preds, n_ents, n_templates), seed=seed)


def small_config(**kw):
    base = dict(seed=0, total_updates=40, soft_updates=20, beta=0.26,
                batch_size=4, learning_rate=0.02, log_every=1)
    base.update(kw)
    return EmConfig(**base)


def test_gold_tags_and_accuracy():
    corpus = synthetic_corpus()
    tv = TagVocabulary.from_corpus(corpus)
    ex = corpus[0]
    gold = gold_tag_ids(ex, tv)
    assert gold.shape == (ex.utterance.n,)
    n_symbols = sum(len(v) for v in ex.gold_alignment.values())
    assert int((gold != tv.null_id).sum()) == n_symbols
    from dataclasses import replace
    with pytest.raises(EmError, match="gold"):
        gold_tag_ids(replace(ex, gold_alignment=None), tv)


def test_tag_accuracy_tags_the_corpus_in_one_call(monkeypatch):
    import tagparse.em as em_module
    corpus = synthetic_corpus()
    words = [w for ex in corpus for w in ex.utterance.tokens]
    params = init_tagger(Vocab(words), TagVocabulary.from_corpus(corpus),
                         TaggerConfig(embedding_size=4, hidden_size=4), seed=0)
    calls = []

    def counting_predict(params, utterances):
        calls.append(len(utterances))
        return predict_tags(params, utterances)

    monkeypatch.setattr(em_module, "predict_tags", counting_predict)
    pred = predict_tags(params, [ex.utterance for ex in corpus])
    gold = [gold_tag_ids(ex, params.tag_vocab) for ex in corpus]
    want = sum(int((p == g).sum()) for p, g in zip(pred, gold)) / sum(g.size for g in gold)
    assert tag_accuracy(params, corpus) == want
    assert calls == [len(corpus)]
    assert np.isnan(tag_accuracy(params, []))


def test_train_loss_decreases(tmp_path):
    log = tmp_path / "train.tsv"
    corpus = synthetic_corpus()
    train_tagger(corpus, small_config(), log_file=log)
    lines = log.read_text().splitlines()
    assert lines[0] == "step\tphase\tloss\tgrad_norm\tclipped"
    rows = [line.split("\t") for line in lines[1:]]
    assert {len(r) for r in rows} == {5}
    # the norm is before clipping, so the flag reads it against Adam's bound
    assert all(r[4] == str(int(float(r[3]) > Adam.clip_norm)) for r in rows)
    assert all(float(r[3]) > 0 for r in rows)
    assert [r[1] for r in rows[:20]] == ["soft"] * 20
    assert [r[1] for r in rows[20:]] == ["hard"] * 20
    losses = [float(r[2]) for r in rows]
    assert min(losses[-5:]) < losses[0]


def test_train_deterministic():
    corpus = synthetic_corpus()
    cfg = small_config(total_updates=10, soft_updates=5)
    a = train_tagger(corpus, cfg)
    b = train_tagger(corpus, cfg)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_single_hard_step_when_soft_is_total_minus_one(tmp_path):
    log = tmp_path / "one_hard.tsv"
    cfg = small_config(total_updates=8, soft_updates=7)
    train_tagger(synthetic_corpus(), cfg, log_file=log)
    phases = [line.split("\t")[1] for line in log.read_text().splitlines()[1:]]
    assert phases.count("hard") == 1 and phases[-1] == "hard"


def test_train_divergence_aborts_with_step_index():
    cfg = small_config(learning_rate=1e200, total_updates=6, soft_updates=3)
    with pytest.raises(EmError, match=r"step \d"):
        with np.errstate(over="ignore", invalid="ignore"):
            train_tagger(synthetic_corpus(), cfg)


def test_train_skips_saturated_symbol_sets():
    corpus = synthetic_corpus()
    crowded = SymbolSet(("s1", "s2", "s3", "s4", "s5"), padded_length=5)
    from dataclasses import replace
    bad = replace(corpus[0], symbol_set=crowded)
    with pytest.warns(UserWarning, match="no null column"):
        params = train_tagger([bad, *corpus], small_config(total_updates=4, soft_updates=2))
    assert "s1" not in params.tag_vocab
    with pytest.warns(UserWarning), pytest.raises(EmError, match="no trainable"):
        train_tagger([bad], small_config(total_updates=4, soft_updates=2))


def test_usable_skips_examples_whose_symbols_fill_the_utterance():
    from dataclasses import replace
    corpus = synthetic_corpus()[:3]
    n = corpus[1].utterance.n
    symbols = tuple(f"s{k}" for k in range(n))
    full = replace(corpus[1], symbol_set=SymbolSet(symbols, padded_length=n))
    one_null = replace(corpus[2], symbol_set=SymbolSet(symbols[:-1], padded_length=n))
    with pytest.warns(UserWarning) as caught:
        kept = _usable([corpus[0], full, one_null])
    assert kept == [corpus[0], one_null]
    assert [str(w.message) for w in caught] == [
        f"example {full.example_id}: {n} symbols for {n} words leaves no null "
        f"column; skipped"]


def test_training_improves_gold_tag_accuracy():
    corpus = synthetic_corpus(2, 4, 2)
    cfg = EmConfig(seed=1, total_updates=150, soft_updates=75, beta=0.26,
                   batch_size=8, learning_rate=0.02, log_every=50)
    params = train_tagger(corpus, cfg,
                          tagger_config=TaggerConfig(embedding_size=12, hidden_size=12))
    assert tag_accuracy(params, corpus) >= 0.8
    pred = predict_tags(params, [corpus[0].utterance])[0]
    assert pred.shape == (corpus[0].utterance.n,)
