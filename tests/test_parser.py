"""Encoder-decoder parser: inputs, training, beam search, pipeline."""

import numpy as np
import pytest

from tagparse import autodiff as ad
from tagparse.data import anonymize_entities, gen_synthetic
from tagparse.em import EmConfig, train_tagger
from tagparse.nn import Vocab
from tagparse.optim import Adam
from tagparse.parser import (BOS, EOS, DecodeConfig, ParserConfig,
                             ParserError, _inputs, decode, init_parser, load_parser,
                             parse, save_parser, train_parser)
from tagparse.tagger import NULL_TAG, TaggerConfig, TagVocabulary, init_tagger

from tests.oracles import decoder_step, output_probs, start
from tests.test_synthetic import cartesian_grammar

UTT = "frame0 word1 trips to city2".split()


def tiny_parser(use_tags=True, word_emb=6, tag_emb=4, hidden=8, seed=0):
    config = ParserConfig(word_embedding_size=word_emb, tag_embedding_size=tag_emb,
                          hidden_size=hidden, use_tags=use_tags, seed=seed)
    out_vocab = Vocab([BOS, EOS, NULL_TAG, "<unk-symbol>",
                       "(", ")", "lambda", "$0", "e", "shape0", "pred1", "to",
                       "city2:ci"])
    return init_parser(Vocab(UTT), out_vocab,
                       TagVocabulary(["shape0", "pred1", "to"]), config, "lambda")


BATCH = [UTT, ["trips", "to", "trips"], ["unseen", "city2"]]   # repeated and unknown words
BATCH_WORDS = [w for u in BATCH for w in u]


def null_tags(batch):
    return [[0] * len(u) for u in batch]


def test_inputs_concatenation_arithmetic():
    params = tiny_parser(word_emb=200, tag_emb=100, hidden=4)
    u, lengths = _inputs(params, BATCH, null_tags(BATCH))
    assert u.data.shape == (10, 300)
    assert lengths.tolist() == [5, 3, 2]


def test_all_null_tags_add_constant_block():
    params = tiny_parser()
    u = _inputs(params, BATCH, null_tags(BATCH))[0].data
    words = ad.embedding(params.word_emb, params.word_vocab.encode(BATCH_WORDS)).data
    np.testing.assert_array_equal(u[:, 4:], words)       # word block untouched
    null_row = params.sym_emb.data[params.out_vocab.tok2id[NULL_TAG]]
    np.testing.assert_array_equal(u[:, :4], np.tile(null_row, (10, 1)))


def test_baseline_inputs_are_word_embeddings_only():
    params = tiny_parser(use_tags=False)
    u, lengths = _inputs(params, BATCH, [None] * len(BATCH))
    words = ad.embedding(params.word_emb, params.word_vocab.encode(BATCH_WORDS))
    np.testing.assert_array_equal(u.data, words.data)
    assert lengths.tolist() == [5, 3, 2]


def test_swapping_equal_tagged_words_swaps_rows():
    params = tiny_parser()
    tags = null_tags(BATCH)
    u = _inputs(params, BATCH, tags)[0].data
    swapped = [BATCH[0], ["to", "trips", "trips"], BATCH[2]]
    v = _inputs(params, swapped, tags)[0].data
    np.testing.assert_array_equal(v[5], u[6])
    np.testing.assert_array_equal(v[6], u[5])
    np.testing.assert_array_equal(np.delete(v, [5, 6], axis=0), np.delete(u, [5, 6], axis=0))
    # reordering the utterances reorders their blocks of rows
    w = _inputs(params, BATCH[::-1], tags[::-1])[0].data
    np.testing.assert_array_equal(w, np.concatenate([u[8:], u[5:8], u[:5]]))


def test_tag_count_mismatch_rejected():
    params = tiny_parser()
    with pytest.raises(ParserError, match="^3 words need 3 tags, got 2$"):
        _inputs(params, BATCH, [[0] * 5, [0, 0], [0, 0]])
    with pytest.raises(ParserError, match="^2 words need 2 tags, got none$"):
        _inputs(params, BATCH, [[0] * 5, [0] * 3, None])


def test_tag_embeddings_shared_with_decoder_table():
    params = tiny_parser()
    row = params.out_vocab.tok2id["to"]
    to_id = params.tag_vocab.id_of("to")
    params.sym_emb.data[row] = np.arange(4, dtype=float)
    u = _inputs(params, BATCH, [[to_id] * 5, [0, to_id, 0], [to_id, 0]])[0].data
    np.testing.assert_array_equal(u[[0, 4, 6, 8], :4], np.tile(np.arange(4.0), (4, 1)))
    null_row = params.sym_emb.data[params.out_vocab.tok2id[NULL_TAG]]
    np.testing.assert_array_equal(u[[5, 7, 9], :4], np.tile(null_row, (3, 1)))
    dec_in = ad.embedding(params.sym_emb, np.array([row])).data[0]
    np.testing.assert_array_equal(dec_in, np.arange(4.0))  # one storage


def test_config_validation():
    with pytest.raises(ValueError, match="beam_size"):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError, match="max_length"):
        DecodeConfig(max_length=0)
    with pytest.raises(ValueError, match="hidden_size"):
        ParserConfig(hidden_size=0)


def test_train_rejects_bad_inputs():
    corpus = gen_synthetic(cartesian_grammar(1, 2, 1), seed=0)
    with pytest.raises(ParserError, match="empty"):
        train_parser([], None, ParserConfig(use_tags=False))
    with pytest.raises(ParserError, match="tagger"):
        train_parser(corpus, None, ParserConfig(use_tags=True))


def greedy_oracle(params, utterance, tags, max_length):
    with ad.no_grad():
        enc, keys, _, state, feed = start(params, [utterance], [tags])
        prev = params.out_vocab.tok2id[BOS]
        eos = params.out_vocab.tok2id[EOS]
        ids, score = [], 0.0
        for _ in range(max_length):
            state, feed = decoder_step(params, [prev], state, feed, enc, keys)
            logp = np.log(output_probs(params, feed)[0])
            prev = int(np.argmax(logp))
            score += float(logp[prev])
            if prev == eos:
                return ids, score, False
            ids.append(prev)
    return ids, score, True


def test_beam_one_equals_greedy_oracle():
    params = tiny_parser(seed=3)
    tags = [0, 2, 0, 0, 4]
    for max_length in (4, 9):
        result = decode(params, UTT, tags,
                        DecodeConfig(beam_size=1, max_length=max_length))
        ids, score, truncated = greedy_oracle(params, UTT, tags, max_length)
        assert list(result.token_ids) == ids
        assert result.truncated == truncated
        np.testing.assert_allclose(result.score, score, rtol=1e-12)


@pytest.fixture(scope="module")
def trained():
    corpus = gen_synthetic(cartesian_grammar(3, 4, 1), seed=0)[:10]
    tagger = train_tagger(corpus, EmConfig(seed=0, total_updates=120, soft_updates=60,
                                           batch_size=6, learning_rate=0.02),
                          tagger_config=TaggerConfig(embedding_size=12, hidden_size=12))
    parser = train_parser(corpus, tagger,
                          ParserConfig(word_embedding_size=12, tag_embedding_size=12,
                                       hidden_size=24, epochs=80, batch_size=5,
                                       learning_rate=0.02, seed=0))
    return corpus, tagger, parser


def test_overfit_reaches_full_training_exact_match(trained):
    corpus, tagger, parser = trained
    cfg = DecodeConfig(beam_size=1, max_length=40)
    results = [parse(tagger, parser, ex, cfg) for ex in corpus]
    assert all(r.tokens == ex.meaning.tokens for r, ex in zip(results, corpus))
    assert not any(r.truncated for r in results)


def test_beam_score_dominates_greedy(trained):
    corpus, tagger, parser = trained
    from tagparse.tagger import predict_tags
    for ex in corpus[:4]:
        tags = predict_tags(tagger, [ex.utterance])[0]
        greedy = decode(parser, ex.utterance, tags,
                        DecodeConfig(beam_size=1, max_length=40))
        beamed = decode(parser, ex.utterance, tags,
                        DecodeConfig(beam_size=4, max_length=40))
        assert beamed.score >= greedy.score - 1e-12


def test_decode_truncation_flag(trained):
    corpus, tagger, parser = trained
    from tagparse.tagger import predict_tags
    tags = predict_tags(tagger, [corpus[0].utterance])[0]
    result = decode(parser, corpus[0].utterance, tags,
                    DecodeConfig(beam_size=2, max_length=3))
    assert result.truncated and len(result.tokens) == 3
    assert EOS not in result.tokens


def test_decode_is_deterministic(trained):
    corpus, tagger, parser = trained
    cfg = DecodeConfig(beam_size=3, max_length=30)
    a = parse(tagger, parser, corpus[1], cfg)
    b = parse(tagger, parser, corpus[1], cfg)
    assert a == b


def test_single_word_all_null_still_decodes(trained):
    _, tagger, parser = trained
    result = parse(tagger, parser, ["trips"], DecodeConfig(beam_size=2, max_length=10))
    assert isinstance(result.tokens, tuple)        # soft constraint: no crash
    assert result.tags == (NULL_TAG,) or len(result.tags) == 1


def test_autoregressive_prefix_stability(trained):
    # output token t depends only on x, z, y_{<t}: forcing the decoder
    # down the greedy path step by step reproduces the greedy sequence
    corpus, tagger, parser = trained
    from tagparse.tagger import predict_tags
    ex = corpus[2]
    tags = predict_tags(tagger, [ex.utterance])[0]
    full = decode(parser, ex.utterance, tags, DecodeConfig(beam_size=1, max_length=40))
    ids, _, _ = greedy_oracle(parser, ex.utterance, tags, 40)
    assert list(full.token_ids) == ids


def test_training_loss_descends(tmp_path):
    corpus = gen_synthetic(cartesian_grammar(2, 3, 1), seed=1)
    log = tmp_path / "parser.tsv"
    train_parser(corpus, None,
                 ParserConfig(word_embedding_size=8, tag_embedding_size=8,
                              hidden_size=12, use_tags=False, epochs=6,
                              batch_size=6, learning_rate=0.02, seed=0),
                 log_file=log)
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch\tloss\tgrad_norm_max\tclipped_steps"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(epoch) for epoch in range(6)]
    assert {len(r) for r in rows} == {4}
    batches = -(-len(corpus) // 6)
    for r in rows:
        # an epoch clips some step exactly when its largest pre-clip norm exceeds the bound
        assert 0 <= int(r[3]) <= batches
        assert (int(r[3]) > 0) == (float(r[2]) > Adam.clip_norm)
    losses = [float(r[1]) for r in rows]
    assert losses[-1] < losses[0]


def test_training_tags_the_corpus_in_one_call(trained, monkeypatch):
    import tagparse.parser as parser_module
    corpus, tagger, _ = trained
    predict, calls = parser_module.predict_tags, []

    def counting_predict(params, utterances):
        calls.append(list(utterances))
        return predict(params, utterances)

    monkeypatch.setattr(parser_module, "predict_tags", counting_predict)
    train_parser(corpus[:6], tagger,
                 ParserConfig(word_embedding_size=8, tag_embedding_size=8, hidden_size=12,
                              epochs=2, batch_size=4, learning_rate=0.02, seed=0))
    assert calls == [[ex.utterance for ex in corpus[:6]]]


def test_training_deterministic_checkpoints(tmp_path):
    corpus = gen_synthetic(cartesian_grammar(2, 2, 1), seed=2)
    cfg = ParserConfig(word_embedding_size=6, tag_embedding_size=6, hidden_size=8,
                       use_tags=False, epochs=3, batch_size=4,
                       learning_rate=0.01, seed=5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_parser(a, train_parser(corpus, None, cfg))
    save_parser(b, train_parser(corpus, None, cfg))
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_round_trip(trained, tmp_path):
    corpus, tagger, parser = trained
    path = tmp_path / "parser.json"
    save_parser(path, parser)
    loaded = load_parser(path)
    cfg = DecodeConfig(beam_size=2, max_length=40)
    assert parse(tagger, loaded, corpus[0], cfg) == parse(tagger, parser, corpus[0], cfg)
    again = tmp_path / "again.json"
    save_parser(again, loaded)
    assert path.read_bytes() == again.read_bytes()


def test_parse_deanonymizes_markers():
    corpus = [anonymize_entities(ex)
              for ex in gen_synthetic(cartesian_grammar(2, 4, 1), seed=3)]
    tagger = train_tagger(corpus, EmConfig(seed=0, total_updates=80, soft_updates=40,
                                           batch_size=6, learning_rate=0.02),
                          tagger_config=TaggerConfig(embedding_size=10, hidden_size=10))
    parser = train_parser(corpus, tagger,
                          ParserConfig(word_embedding_size=10, tag_embedding_size=10,
                                       hidden_size=20, epochs=40, batch_size=8,
                                       learning_rate=0.02, seed=0))
    cfg = DecodeConfig(beam_size=1, max_length=40)
    restored = 0
    for ex in corpus:
        result = parse(tagger, parser, ex, cfg)
        entity = ex.entity_map["ci0"]["meaning"]
        assert "ci0" not in result.tokens            # markers restored
        if entity in result.tokens:
            restored += 1
        assert "ci0" in result.anonymized_tokens or result.truncated
    assert restored == len(corpus)                   # each gets ITS entity back


@pytest.mark.parametrize("symbols", [["shape0", "pred1"], ["shape0", "to", "pred1"],
                                     ["shape0", "pred1", "to", "from"]])
def test_parse_refuses_a_tagger_with_another_tag_vocabulary(symbols):
    # the parser embeds tag ids through its own copy of the tagger's vocabulary,
    # so another tagger's ids would name other symbols, or none
    tagger = init_tagger(Vocab(UTT), TagVocabulary(symbols), TaggerConfig(4, 4))
    with pytest.raises(ParserError, match="tag vocabulary differs"):
        parse(tagger, tiny_parser(), UTT, DecodeConfig(beam_size=1, max_length=5))


def test_parse_takes_a_tagger_with_the_same_tag_vocabulary():
    tagger = init_tagger(Vocab(UTT), TagVocabulary(["shape0", "pred1", "to"]),
                         TaggerConfig(4, 4))
    result = parse(tagger, tiny_parser(), UTT, DecodeConfig(beam_size=1, max_length=5))
    assert len(result.tags) == len(UTT)


def test_baseline_variant_full_pipeline():
    corpus = gen_synthetic(cartesian_grammar(2, 2, 1), seed=4)
    parser = train_parser(corpus, None,
                          ParserConfig(word_embedding_size=8, tag_embedding_size=8,
                                       hidden_size=12, use_tags=False, epochs=5,
                                       batch_size=4, learning_rate=0.02, seed=0))
    result = parse(None, parser, corpus[0], DecodeConfig(beam_size=2, max_length=30))
    assert result.tags == ()
    assert isinstance(result.tokens, tuple)
