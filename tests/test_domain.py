"""Domain classifiers and the two-stage bilingual selection funnel."""

import math
import random
import sys

import pytest

from mtkit.corpus import ParallelExample
from mtkit.domain import (
    DomainClassifier,
    SelectionConfig,
    bilingual_select,
    domain_train,
    load_classifier,
    save_classifier,
)
from mtkit.errors import EmptyClassError

from conftest import MED_EN, MED_RU, NEWS_EN, NEWS_RU, make_domain_line


@pytest.fixture(scope="module")
def clf_en(domain_fixture):
    med_en, news_en, _, _ = domain_fixture
    return domain_train(med_en, news_en, seed=0, lang="en")


@pytest.fixture(scope="module")
def clf_ru(domain_fixture):
    _, _, med_ru, news_ru = domain_fixture
    return domain_train(med_ru, news_ru, seed=0, lang="ru")


# ---------------------------------------------------------------------------
# training


def test_holdout_accuracy(clf_en, clf_ru):
    assert clf_en.holdout_accuracy is not None and clf_en.holdout_accuracy >= 0.9
    assert clf_ru.holdout_accuracy is not None and clf_ru.holdout_accuracy >= 0.9


def test_centroid_sanity(clf_en):
    positive = " ".join(MED_EN[:8])
    negative = " ".join(NEWS_EN[:8])
    assert clf_en.score(positive) > 0.5 > clf_en.score(negative)


def test_train_deterministic(domain_fixture):
    med_en, news_en, _, _ = domain_fixture
    a = domain_train(med_en[:300], news_en[:300], seed=4)
    b = domain_train(list(med_en[:300]), list(news_en[:300]), seed=4)
    assert a.weights == b.weights and a.bias == b.bias


def test_train_subsamples_larger_class(domain_fixture):
    med_en, news_en, _, _ = domain_fixture
    clf = domain_train(med_en[:400], news_en[:100], seed=1)
    assert clf.holdout_accuracy is not None  # trained fine on 100 vs 100


def test_train_empty_class():
    with pytest.raises(EmptyClassError):
        domain_train([], ["news text"])
    with pytest.raises(EmptyClassError):
        domain_train(["med text"], [])


def test_custom_tokenizer_used():
    # a tokenizer that splits on '|' makes these one-token classes
    clf = domain_train(
        ["med stuff|x"] * 20, ["plain news|y"] * 20,
        seed=2, tokenizer=lambda t: t.split("|"),
    )
    assert clf.score("med stuff|anything") > 0.5


# ---------------------------------------------------------------------------
# scoring


def test_score_in_unit_interval(clf_en):
    rng = random.Random(30)
    for _ in range(100):
        line = make_domain_line(rng, MED_EN if rng.random() < 0.5 else NEWS_EN,
                                ["the", "a", "of"], n_markers=rng.randint(0, 5))
        assert 0.0 <= clf_en.score(line) <= 1.0


def test_score_deterministic(clf_en):
    line = " ".join(MED_EN[:5])
    assert clf_en.score(line) == clf_en.score(line)


def test_doubling_preserves_sign(clf_en):
    rng = random.Random(31)
    for _ in range(60):
        markers = MED_EN if rng.random() < 0.5 else NEWS_EN
        line = make_domain_line(rng, markers, ["the", "a"], n_markers=3, n_filler=2)
        once = clf_en.score(line) - 0.5
        twice = clf_en.score(line + " " + line) - 0.5
        if once != 0.0:
            assert (once > 0) == (twice > 0)


def test_score_long_out_of_domain_line_does_not_overflow():
    # 1000 tokens at weight -0.8 give z = -800, where exp(-z) overflows
    clf = DomainClassifier("en", {"vote": -0.8}, 0.0)
    assert clf.score(" ".join(["vote"] * 1000)) == 0.0
    # up to exp's overflow point the score is the plain logistic, bit for
    # bit, and just past it the score goes on continuously
    edge = math.log(sys.float_info.max)
    last = DomainClassifier("en", {}, -edge).score("x")
    past = DomainClassifier("en", {}, math.nextafter(-edge, -math.inf)).score("x")
    assert last == 1.0 / (1.0 + math.exp(edge))
    assert 0.0 < past <= last
    assert past == pytest.approx(last, rel=1e-9)


def test_unknown_tokens_score_at_bias(clf_en):
    expected = 1.0 / (1.0 + math.exp(-clf_en.bias))
    assert clf_en.score("zzzunseen qqqtoken") == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# selection config


def test_selection_config_validation():
    SelectionConfig()  # defaults fine
    with pytest.raises(ValueError):
        SelectionConfig(stage1_threshold=0.95, final_threshold=0.9)
    with pytest.raises(ValueError):
        SelectionConfig(stage1_threshold=-0.1)
    with pytest.raises(ValueError):
        SelectionConfig(final_threshold=1.5)


# ---------------------------------------------------------------------------
# bilingual_select with stub scorers (exact score control)


class _StubClf:
    """Maps text to a fixed score; counts calls to expose stage gating."""

    def __init__(self, scores):
        self.scores = scores
        self.calls = 0

    def score(self, text):
        self.calls += 1
        return self.scores[text]


def _mk_pairs(score_table):
    return [ParallelExample(f"en{i}", f"ru{i}", sequence_no=i) for i in range(len(score_table))]


def test_select_boundary_average_inclusive():
    en = _StubClf({"en0": 0.95})
    ru = _StubClf({"ru0": 0.85})
    selected, counts = bilingual_select(
        [ParallelExample("en0", "ru0")], en, ru, SelectionConfig()
    )
    assert len(selected) == 1
    assert selected[0][1:] == (0.95, 0.85)
    assert counts == {"input": 1, "stage1_kept": 1, "stage2_scored": 1, "final_kept": 1}


def test_select_stage1_rejects_without_scoring_russian():
    en = _StubClf({"en0": 0.4})
    ru = _StubClf({})  # would raise KeyError if ever consulted
    selected, counts = bilingual_select(
        [ParallelExample("en0", "ru0")], en, ru, SelectionConfig()
    )
    assert selected == []
    assert ru.calls == 0
    assert counts == {"input": 1, "stage1_kept": 0, "stage2_scored": 0, "final_kept": 0}


def test_select_stage1_strictly_greater():
    en = _StubClf({"en0": 0.5})
    ru = _StubClf({})
    selected, counts = bilingual_select(
        [ParallelExample("en0", "ru0")], en, ru, SelectionConfig()
    )
    assert selected == [] and counts["stage1_kept"] == 0


def test_select_extremes():
    en = _StubClf({"en0": 1.0, "en1": 0.0})
    ru = _StubClf({"ru0": 1.0, "ru1": 1.0})
    selected, counts = bilingual_select(_mk_pairs(range(2)), en, ru, SelectionConfig())
    assert [p.source for p, _, _ in selected] == ["en0"]
    assert counts["final_kept"] == 1


def test_select_stage2_count_invariant():
    rng = random.Random(32)
    en_scores = {f"en{i}": rng.random() for i in range(200)}
    ru_scores = {f"ru{i}": rng.random() for i in range(200)}
    en, ru = _StubClf(en_scores), _StubClf(ru_scores)
    _, counts = bilingual_select(_mk_pairs(range(200)), en, ru, SelectionConfig())
    assert counts["stage2_scored"] == counts["stage1_kept"] == ru.calls
    assert counts["input"] == 200 and en.calls == 200


def test_select_monotone_in_final_threshold():
    rng = random.Random(33)
    en_scores = {f"en{i}": rng.random() for i in range(300)}
    ru_scores = {f"ru{i}": rng.random() for i in range(300)}
    pairs = _mk_pairs(range(300))
    previous = None
    for thr in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        sel, _ = bilingual_select(
            pairs, _StubClf(en_scores), _StubClf(ru_scores),
            SelectionConfig(final_threshold=thr),
        )
        chosen = {p.sequence_no for p, _, _ in sel}
        if previous is not None:
            assert chosen <= previous
        previous = chosen


def test_select_order_preserved():
    rng = random.Random(34)
    en_scores = {f"en{i}": rng.random() for i in range(100)}
    ru_scores = {f"ru{i}": rng.random() for i in range(100)}
    sel, _ = bilingual_select(
        _mk_pairs(range(100)), _StubClf(en_scores), _StubClf(ru_scores),
        SelectionConfig(final_threshold=0.5),
    )
    nums = [p.sequence_no for p, _, _ in sel]
    assert nums == sorted(nums)


def test_select_english_side_target():
    en = _StubClf({"the patient": 0.99})
    ru = _StubClf({"пациент": 0.95})
    pair = ParallelExample("пациент", "the patient")
    sel, _ = bilingual_select([pair], en, ru, SelectionConfig(), english_side="target")
    assert len(sel) == 1
    with pytest.raises(ValueError):
        bilingual_select([pair], en, ru, SelectionConfig(), english_side="middle")


# ---------------------------------------------------------------------------
# end-to-end funnel on the trained fixture classifiers


def test_select_trained_funnel(domain_fixture, clf_en, clf_ru):
    med_en, news_en, med_ru, news_ru = domain_fixture
    pairs = [
        ParallelExample(med_en[i], med_ru[i], sequence_no=i) for i in range(200)
    ] + [
        ParallelExample(news_en[i], news_ru[i], sequence_no=200 + i) for i in range(200)
    ]
    selected, counts = bilingual_select(pairs, clf_en, clf_ru, SelectionConfig())
    assert counts["input"] == 400
    assert counts["stage2_scored"] == counts["stage1_kept"]
    assert counts["final_kept"] == len(selected)
    kept_ids = {p.sequence_no for p, _, _ in selected}
    med_kept = sum(1 for i in kept_ids if i < 200)
    news_kept = len(kept_ids) - med_kept
    assert med_kept >= 150  # most in-domain pairs survive
    assert news_kept <= 10  # almost no news pairs sneak through
    for _, s_en, s_ru in selected:
        assert s_en > 0.5 and (s_en + s_ru) / 2 >= 0.90 - 1e-9


# ---------------------------------------------------------------------------
# persistence


def test_classifier_save_load_roundtrip(tmp_path, clf_en):
    path = tmp_path / "clf.txt"
    save_classifier(clf_en, path)
    loaded = load_classifier(path)
    assert loaded.lang == clf_en.lang
    assert loaded.bias == clf_en.bias
    assert loaded.weights == clf_en.weights
    rng = random.Random(35)
    for _ in range(30):
        line = make_domain_line(rng, MED_EN, NEWS_EN)
        assert loaded.score(line) == clf_en.score(line)


def test_classifier_load_bad_header(tmp_path):
    from mtkit.errors import ModelFormatError

    path = tmp_path / "clf.txt"
    path.write_text("wrong v2\nextra\n")
    with pytest.raises(ModelFormatError):
        load_classifier(path)
