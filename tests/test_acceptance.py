"""Release acceptance checks, one per shipped guarantee.

Each test exercises one externally stated property of the toolkit at its
stated tolerance and time budget and prints a single [PASS]/[FAIL] line:
exact posterior inference, normalization invariants, the hand-derived
hardening example, gradient correctness, alignment recovery, the tagged
parser's edge on query splits, worked-row symbol extraction, the error
taxonomy partition, and bit-identical experiment reruns.

The two training checks (recovery, query-split direction) use small
corpora and model sizes calibrated to finish well inside their budgets;
structural choices (half-soft EM schedule, beta, tied tag embeddings)
are the library defaults.
"""

import itertools
import time

import numpy as np

from tagparse import autodiff as ad
from tagparse.data import (anonymize_entities, example_from_record,
                           extract_symbols, gen_synthetic)
from tagparse.em import (EmConfig, compute_posteriors, harden_posteriors,
                         tag_accuracy, train_tagger)
from tagparse.evaluation import ERROR_CLASSES, evaluate
from tagparse.experiment import run_experiment
from tagparse.nn import Vocab
from tagparse.parser import EOS, _batch_loss
from tagparse.tagger import TaggerConfig, TagVocabulary, init_tagger, tag_distribution

from tests.oracles import finite_diff_check
from tests.test_corpus import LAMBDA_ROW, SQL_ROW
from tests.test_em import em_loss_setup, random_probs, symbol_set
from tests.test_evaluation import CORRUPTIONS, corrupt, six_example_setup
from tests.test_experiment import tiny_config, tree_hashes
from tests.test_parser import UTT, tiny_parser
from tests.test_synthetic import cartesian_grammar


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def enumerate_posterior_joint(prob_matrix, tag_ids):
    """Posterior by explicit summation over all n^n joint alignments.

    Independent oracle for the column-normalization shortcut; vectorized
    over the joint table so 200 instances fit the time budget.
    """
    n = prob_matrix.shape[0]
    joints = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.intp)
    likelihood = prob_matrix[:, tag_ids]
    weights = likelihood[joints, np.arange(n)].prod(axis=1)
    pi = np.stack([np.bincount(joints[:, j], weights=weights, minlength=n)
                   for j in range(n)], axis=1)
    return pi / weights.sum()


def test_posteriors_match_joint_enumeration():
    rng = np.random.default_rng(11)
    vocab = TagVocabulary([f"s{j}" for j in range(6)])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        l = int(rng.integers(1, n + 1))
        symbols = [f"s{j}" for j in rng.choice(6, size=l, replace=False)]
        probs = random_probs(rng, n, vocab)
        post = compute_posteriors(probs, symbol_set(symbols, n), vocab)
        oracle = enumerate_posterior_joint(probs, post.tag_ids)
        worst = max(worst, float(np.abs(post.matrix - oracle).max()))
    elapsed = time.perf_counter() - start
    check("posterior enumeration oracle", worst <= 1e-12 and elapsed < 10.0,
          f"200 instances (n<=6, l<=n), max abs error {worst:.2e}, {elapsed:.1f}s")


def test_normalization_invariants_hold():
    rng = np.random.default_rng(23)
    vocab = TagVocabulary([f"s{j}" for j in range(6)])
    start = time.perf_counter()
    worst_col = worst_row = 0.0
    peaked = pinned = 0
    for i in range(1000):
        n = int(rng.integers(2, 8))
        l = int(rng.integers(1, min(4, n)))
        symbols = [f"s{j}" for j in rng.choice(6, size=l, replace=False)]
        if i % 3 == 0:
            # One word soaks up every symbol column: that row crosses the
            # threshold in all l columns, every other row in none.
            logits = rng.normal(size=(n, len(vocab)))
            ids = [vocab.id_of(s) for s in symbols]
            logits[:, ids] = -8.0
            logits[int(rng.integers(n)), ids] = 8.0
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            peaked += 1
        else:
            probs = random_probs(rng, n, vocab)
        fixed = {symbols[0]: (int(rng.integers(n)),)} if i % 7 == 0 else None
        pinned += fixed is not None
        soft = compute_posteriors(probs, symbol_set(symbols, n, fixed=fixed), vocab)
        hard = harden_posteriors(soft, 0.26)
        worst_col = max(worst_col, float(np.abs(soft.matrix.sum(axis=0) - 1).max()))
        worst_row = max(worst_row, float(np.abs(hard.matrix.sum(axis=1) - 1).max()))
    elapsed = time.perf_counter() - start
    ok = worst_col <= 1e-9 and worst_row <= 1e-9 and elapsed < 5.0
    check("normalization invariants", ok,
          f"1000 instances ({peaked} saturated-row, {pinned} pinned), "
          f"soft col dev {worst_col:.2e}, hard row dev {worst_row:.2e}, {elapsed:.1f}s")


def test_hardening_hand_example_is_exact():
    m = np.zeros((3, 3))
    m[:, 2] = [0.5, 0.4, 0.1]        # symbol tag column
    m[:, :2] = 1.0 / 3.0             # null and unk get any positive mass
    tv = TagVocabulary(["s"])
    soft = compute_posteriors(m, symbol_set(["s"], 3), tv)
    hard = harden_posteriors(soft, 0.26).matrix
    expected = np.array([[1.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 0.5, 0.5]])
    ok = np.array_equal(hard, expected)
    check("hardening hand example", ok,
          f"column [0.5,0.4,0.1] at beta=0.26 -> {hard[:, 0].tolist()}, "
          f"rows sum to {hard.sum(axis=1).tolist()}")


def tagger_softmax_setup():
    words = "frame0 word1 trips to city2".split()
    params = init_tagger(Vocab(words), TagVocabulary(["shape0", "pred1", "to"]),
                         TaggerConfig(embedding_size=4, hidden_size=5), seed=3)
    onehot = np.eye(5)[np.random.default_rng(5).integers(0, 5, size=len(words))]

    def loss_fn():
        return ad.cross_entropy(tag_distribution(params, [words]), onehot)

    return loss_fn, params


def parser_step_setup():
    params = tiny_parser()
    tokens = ["(", "lambda", "$0", "e", "(", "shape0", "$0", ")", ")", EOS]
    target = np.array([params.out_vocab.tok2id[t] for t in tokens], dtype=np.intp)
    tags = [2, 3, 0, 4, 0]

    def loss_fn():
        return _batch_loss(params, [UTT], [tags], [target])

    return loss_fn, params


def test_gradients_match_finite_differences():
    setups = {"soft-EM loss": em_loss_setup(False),
              "hard-EM loss": em_loss_setup(True),
              "tagger softmax": tagger_softmax_setup(),
              "parser step": parser_step_setup()}
    start = time.perf_counter()
    errs = {}
    for k, (name, (loss_fn, params)) in enumerate(setups.items()):
        errs[name] = finite_diff_check(loss_fn, params.parameters(),
                                       num_coords=50, h=1e-6,
                                       rng=np.random.default_rng(k))
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    ok = worst <= 1e-5 and elapsed < 60.0
    check("gradient checks", ok,
          "50 coords each, rel err " +
          ", ".join(f"{n} {e:.1e}" for n, e in errs.items()) + f", {elapsed:.1f}s")


def test_tagger_recovers_gold_alignments():
    start = time.perf_counter()
    corpus = [anonymize_entities(ex)
              for ex in gen_synthetic(cartesian_grammar(5, 10, 4), seed=0)]
    config = EmConfig(seed=0, total_updates=600, soft_updates=300,
                      batch_size=10, learning_rate=0.02, log_every=10 ** 9)
    params = train_tagger(corpus, config,
                          tagger_config=TaggerConfig(embedding_size=24,
                                                     hidden_size=24))
    acc = tag_accuracy(params, corpus)
    elapsed = time.perf_counter() - start
    ok = acc >= 0.95 and elapsed <= 300.0
    check("alignment recovery", ok,
          f"tag accuracy {acc:.4f} on {len(corpus)} examples "
          f"(5 preds, 10 ents, 4 frames), {elapsed:.0f}s")


def test_tagged_parser_beats_baseline_on_query_split(tmp_path):
    config = {
        "seeds": [0, 1, 2, 3, 4],
        "data": {"grammar": cartesian_grammar(5, 6, 4), "seed": 0},
        "split": {"mode": "query", "ratios": [0.7, 0.3]},
        "em": {"total_updates": 400, "soft_updates": 200,
               "batch_size": 8, "learning_rate": 0.02},
        "tagger": {"embedding_size": 16, "hidden_size": 16},
        "parser": {"word_embedding_size": 16, "tag_embedding_size": 16,
                   "hidden_size": 32, "epochs": 60, "batch_size": 8,
                   "learning_rate": 0.02},
        "decode": {"max_length": 40, "beam_size": 2},
        "workers": 2,
    }
    start = time.perf_counter()
    rows = run_experiment(config, tmp_path / "exp")
    elapsed = time.perf_counter() - start
    means = {model: next(r for r in rows[model] if r["seed"] == "mean")["accuracy"]
             for model in rows}
    ok = means["tagged"] >= means["baseline"] and elapsed <= 1800.0
    check("query-split direction", ok,
          f"tagged mean {means['tagged']:.4f} vs baseline mean "
          f"{means['baseline']:.4f} over 5 seeds, {elapsed:.0f}s")


def test_worked_rows_extract_exact_symbol_sets():
    got_lambda = extract_symbols(example_from_record(LAMBDA_ROW, 0).meaning)
    got_sql = extract_symbols(example_from_record(SQL_ROW, 1).meaning)
    ok = (set(got_lambda) == {"oneway", "from", "to", "day"}
          and set(got_sql) == {"area", "state_name"})
    check("worked-row symbol extraction", ok,
          f"lambda -> {sorted(got_lambda)}, sql -> {sorted(got_sql)}")


def test_error_taxonomy_partitions_to_one():
    corpus, predictions = six_example_setup()
    reports = [evaluate(predictions, corpus)]
    big = gen_synthetic(cartesian_grammar(3, 5, 4), seed=5)[:60]
    rng = np.random.default_rng(17)
    kinds = rng.choice(len(CORRUPTIONS), size=len(big))
    reports.append(evaluate(
        [{"id": ex.example_id, "prediction": corrupt(ex.meaning.text(), CORRUPTIONS[k])}
         for ex, k in zip(big, kinds)], big))
    worst = max(abs(r.accuracy + sum(r.error_rates[c] for c in ERROR_CLASSES) - 1.0)
                for r in reports)
    check("taxonomy partition", worst <= 1e-12,
          f"accuracy + three rates deviates from 1 by {worst:.2e} "
          f"on {reports[0].total} labeled and {reports[1].total} corrupted predictions")


def test_experiment_reruns_are_bit_identical(tmp_path):
    config = tiny_config(seeds=[0])
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    first, second = tree_hashes(tmp_path / "a"), tree_hashes(tmp_path / "b")
    ok = first == second and len(first) > 0
    check("experiment determinism", ok,
          f"{len(first)} artifact files bit-identical across reruns")
