"""Encoder-decoder parser: inputs, training, beam search, pipeline."""

import numpy as np
import pytest

from tagparse import autodiff as ad
from tagparse.data import anonymize_entities, gen_synthetic
from tagparse.em import EmConfig, train_tagger
from tagparse.nn import Vocab
from tagparse.optim import Adam
from tagparse.parser import (BOS, EOS, DecodeConfig, ParserConfig,
                             ParserError, decode, embed_inputs, init_parser, load_parser,
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


def test_embed_inputs_concatenation_arithmetic():
    params = tiny_parser(word_emb=200, tag_emb=100, hidden=4)
    u = embed_inputs(params, UTT, [0] * len(UTT))
    assert u.data.shape == (5, 300)


def test_all_null_tags_add_constant_block():
    params = tiny_parser()
    u = embed_inputs(params, UTT, [0] * len(UTT)).data
    words = ad.embedding(params.word_emb,
                         params.word_vocab.encode(UTT)).data
    np.testing.assert_array_equal(u[:, 4:], words)       # word block untouched
    null_row = params.sym_emb.data[params.out_vocab.tok2id[NULL_TAG]]
    np.testing.assert_array_equal(u[:, :4], np.tile(null_row, (5, 1)))


def test_baseline_inputs_are_word_embeddings_only():
    params = tiny_parser(use_tags=False)
    u = embed_inputs(params, UTT)
    words = ad.embedding(params.word_emb, params.word_vocab.encode(UTT))
    np.testing.assert_array_equal(u.data, words.data)


def test_swapping_equal_tagged_words_swaps_rows():
    params = tiny_parser()
    tags = [0, 0, 0, 0, 0]
    u = embed_inputs(params, UTT, tags).data
    swapped = embed_inputs(params, [UTT[1], UTT[0], *UTT[2:]], tags).data
    np.testing.assert_array_equal(swapped[0], u[1])
    np.testing.assert_array_equal(swapped[1], u[0])
    np.testing.assert_array_equal(swapped[2:], u[2:])


def test_tag_count_mismatch_rejected():
    params = tiny_parser()
    with pytest.raises(ParserError, match="5 tags, got 3"):
        embed_inputs(params, UTT, [0, 0, 0])
    with pytest.raises(ParserError, match="got none"):
        embed_inputs(params, UTT, None)


def test_tag_embeddings_shared_with_decoder_table():
    params = tiny_parser()
    row = params.out_vocab.tok2id["to"]
    tag_ids = [params.tag_vocab.id_of("to")] * len(UTT)
    params.sym_emb.data[row] = np.arange(4, dtype=float)
    u = embed_inputs(params, UTT, tag_ids).data
    np.testing.assert_array_equal(u[0, :4], np.arange(4.0))
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
