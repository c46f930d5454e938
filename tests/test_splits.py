"""Question- and query-based split construction."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagparse.data import SplitError, SplitSpec, example_from_record, make_split

from tests.test_synthetic import synthetic_corpora


def tiny_corpus(n_templates, per_template):
    records = []
    for t in range(n_templates):
        for k in range(per_template):
            records.append({
                "utterance": f"word{k} filler",
                "meaning": f"( pred{t} $0 )",
                "formalism": "lambda",
            })
    return [example_from_record(r, i) for i, r in enumerate(records)]


def test_two_templates_each_wholly_on_one_side():
    corpus = tiny_corpus(2, 10)
    split = make_split(corpus, "query", [0.5, 0.5], seed=0)
    by_id = {ex.example_id: ex.template_id for ex in corpus}
    train_templates = {by_id[i] for i in split.ids("train")}
    test_templates = {by_id[i] for i in split.ids("test")}
    assert len(train_templates) == len(test_templates) == 1
    assert train_templates != test_templates


def test_query_split_template_sets_disjoint_over_random_corpora():
    rng = np.random.default_rng(42)
    for _ in range(25):
        corpus = tiny_corpus(int(rng.integers(3, 12)), int(rng.integers(1, 6)))
        seed = int(rng.integers(0, 10_000))
        split = make_split(corpus, "query", [0.6, 0.2, 0.2], seed=seed)
        by_id = {ex.example_id: ex.template_id for ex in corpus}
        train = {by_id[i] for i in split.ids("train")}
        test = {by_id[i] for i in split.ids("test")}
        assert not (train & test)


@given(corpus=synthetic_corpora(max_size=40), mode=st.sampled_from(["question", "query"]),
       weights=st.lists(st.integers(1, 10), min_size=2, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_partitions_cover_corpus_without_overlap(corpus, mode, weights, seed):
    ratios = [w / sum(weights) for w in weights]
    templates = {ex.template_id for ex in corpus}
    if mode == "query" and len(templates) < len(ratios):
        with pytest.raises(SplitError, match="templates"):
            make_split(corpus, mode, ratios, seed)
        return
    split = make_split(corpus, mode, ratios, seed)
    assert len(split.sections) == len(ratios)
    ids = sorted(i for name in split.sections for i in split.ids(name))
    assert ids == sorted(ex.example_id for ex in corpus)
    if mode == "query":
        section_of = {i: name for name in split.sections for i in split.ids(name)}
        owners = {}
        for ex in corpus:
            owners.setdefault(ex.template_id, set()).add(section_of[ex.example_id])
        assert all(len(sections) == 1 for sections in owners.values())


# arbitrary floats, and lists whose last ratio makes the sum 1 whatever the others are
any_ratios = st.one_of(
    st.lists(st.floats(), min_size=2, max_size=3),
    st.lists(st.floats(-2, 2), min_size=1, max_size=2).map(lambda head: [*head, 1 - sum(head)]))


@given(corpus=synthetic_corpora(max_size=40), mode=st.sampled_from(["question", "query"]),
       ratios=any_ratios, seed=st.integers(0, 2 ** 32 - 1))
def test_any_float_ratios_give_an_error_or_a_partition(corpus, mode, ratios, seed):
    try:
        split = make_split(corpus, mode, ratios, seed)
    except SplitError:
        return
    assert all(0 < r < np.inf for r in ratios)
    ids = [i for name in split.sections for i in split.ids(name)]
    assert sorted(ids) == sorted(ex.example_id for ex in corpus)


@pytest.mark.parametrize("mode", ["question", "query"])
@pytest.mark.parametrize("ratios, bad", [([0.8, -0.3, 0.5], "-0.3"), ([0.0, 1.0], "0.0"),
                                         ([0.5, 0.0, 0.5], "0.0"), ([np.inf, -np.inf], "inf"),
                                         ([np.nan, 0.5], "nan"), ([0.5, np.nan], "nan")])
def test_ratio_that_is_not_finite_and_positive_rejected(mode, ratios, bad):
    # [0.8, -0.3, 0.5] sums to 1, and would put test examples in train
    with pytest.raises(SplitError, match=f"^each ratio must be finite and > 0, got {bad}$"):
        make_split(tiny_corpus(5, 5), mode, ratios, seed=0)


def test_question_split_can_share_templates():
    # One template only: any 50/50 question split puts it on both sides.
    corpus = tiny_corpus(1, 20)
    split = make_split(corpus, "question", [0.5, 0.5], seed=0)
    assert len(split.ids("train")) == len(split.ids("test")) == 10


def test_ratios_must_sum_to_one():
    with pytest.raises(SplitError, match="sum"):
        make_split(tiny_corpus(2, 2), "question", [0.5, 0.4], seed=0)


def test_fewer_templates_than_partitions_rejected():
    with pytest.raises(SplitError, match="templates"):
        make_split(tiny_corpus(2, 5), "query", [0.7, 0.15, 0.15], seed=0)


def test_unknown_mode_rejected():
    with pytest.raises(SplitError, match="mode"):
        make_split(tiny_corpus(2, 2), "template", [0.5, 0.5], seed=0)


def test_split_spec_round_trip(tmp_path):
    corpus = tiny_corpus(4, 3)
    split = make_split(corpus, "query", [0.5, 0.5], seed=9)
    split.save(tmp_path / "split.json")
    loaded = SplitSpec.load(tmp_path / "split.json")
    assert loaded == split
    assert loaded.select(corpus, "train")[0].example_id == split.ids("train")[0]


def test_same_seed_same_split():
    corpus = tiny_corpus(6, 4)
    a = make_split(corpus, "query", [0.7, 0.3], seed=3)
    b = make_split(corpus, "query", [0.7, 0.3], seed=3)
    assert a == b


@pytest.mark.parametrize("doc, message", [
    ([], "is a JSON list, not an object"),
    ({}, "missing 3 required positional arguments: 'mode', 'seed', and 'sections'"),
    ({"mode": "query", "seed": 0}, "missing 1 required positional argument: 'sections'"),
    ({"mode": "query", "seed": 0, "sections": {}, "ratios": [1]},
     "has unknown field 'ratios'"),
    ({"mode": "template", "seed": 0, "sections": {}}, "unknown split mode 'template'"),
    ({"mode": "query", "seed": "0", "sections": {}},
     "field 'seed' must be a JSON integer, not str"),
    ({"mode": "query", "seed": True, "sections": {}},
     "field 'seed' must be a JSON integer, not bool"),
    ({"mode": "query", "seed": 0, "sections": [1]},
     "field 'sections' must be a JSON object, not list"),
    ({"mode": "query", "seed": 0, "sections": {"test": "abc"}},
     "section 'test' is not a list of integer ids"),
    ({"mode": "query", "seed": 0, "sections": {"test": [1, 2.0]}},
     "section 'test' is not a list of integer ids"),
    ({"mode": "query", "seed": 0, "sections": {"test": [1, False]}},
     "section 'test' is not a list of integer ids"),
])
def test_malformed_split_file_rejected(doc, message, tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SplitError) as err:
        SplitSpec.load(path)
    assert str(err.value).startswith(f"split {path}")
    assert str(err.value).endswith(message)


def test_select_names_an_id_the_corpus_lacks():
    split = SplitSpec("question", 0, {"test": [0, 99999]})
    with pytest.raises(SplitError, match="section 'test' names example id 99999"):
        split.select(tiny_corpus(1, 2), "test")
