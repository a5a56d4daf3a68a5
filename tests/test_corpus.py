"""Language id, the filter cascade, target reversal, mixing, and TSV io."""

import random

import numpy as np
import pytest

from mtkit.corpus import (
    FilterConfig,
    FilterReport,
    ParallelExample,
    Provenance,
    RULE_ORDER,
    filter_corpus,
    filter_pair,
    format_tsv_line,
    langid_classify,
    langid_train,
    load_langid,
    mix_sample,
    parse_tsv_line,
    read_parallel_tsv,
    reverse_target,
    save_langid,
)
from mtkit.errors import EmptyCorpusListError, EmptyTextError, SingleClassCorpusError

from conftest import make_sentence

# ---------------------------------------------------------------------------
# language id


def test_langid_heldout_accuracy(langid_model, langid_corpus):
    _, heldout = langid_corpus
    hits = sum(langid_classify(langid_model, t)[0] == lang for t, lang in heldout)
    assert hits / len(heldout) >= 0.95


def test_langid_train_fit(langid_model, langid_corpus):
    train, _ = langid_corpus
    hits = sum(langid_classify(langid_model, t)[0] == lang for t, lang in train)
    assert hits / len(train) >= 0.99


def test_langid_disjoint_alphabets_perfect():
    rng = random.Random(88)
    train = [(make_sentence(rng, "en"), "en") for _ in range(150)]
    train += [(make_sentence(rng, "ru"), "ru") for _ in range(150)]
    heldout = [(make_sentence(rng, "en"), "en") for _ in range(60)]
    heldout += [(make_sentence(rng, "ru"), "ru") for _ in range(60)]
    model = langid_train(train, seed=0)
    assert all(langid_classify(model, t)[0] == lang for t, lang in heldout)


def test_langid_single_class_rejected():
    rng = random.Random(89)
    with pytest.raises(SingleClassCorpusError):
        langid_train([(make_sentence(rng, "en"), "en") for _ in range(200)])


def test_langid_russian_probe(langid_model):
    lang, prob = langid_classify(langid_model, "привет мир")
    assert lang == "ru"
    assert prob >= 0.9


def test_langid_probabilities_normalized(langid_model):
    rng = random.Random(90)
    for lang in ("en", "de", "ru"):
        for _ in range(10):
            probs = langid_model.predict_proba(make_sentence(rng, lang))
            assert abs(float(probs.sum()) - 1.0) <= 1e-6
            assert np.all(probs >= 0)


def test_langid_deterministic(langid_model):
    text = "the water day people"
    assert langid_classify(langid_model, text) == langid_classify(langid_model, text)


def test_langid_empty_text(langid_model):
    with pytest.raises(EmptyTextError):
        langid_classify(langid_model, "   ")


def test_langid_train_deterministic(langid_corpus):
    train, _ = langid_corpus
    small = train[:150] + train[1000:1150] + train[2000:2150]
    a = langid_train(small, seed=3)
    b = langid_train(list(small), seed=3)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_langid_save_load_roundtrip(tmp_path, langid_model, langid_corpus):
    path = tmp_path / "langid.txt"
    save_langid(langid_model, path)
    loaded = load_langid(path)
    assert loaded.langs == langid_model.langs
    _, heldout = langid_corpus
    for text, _ in heldout[:120]:
        assert langid_classify(loaded, text) == langid_classify(langid_model, text)


# ---------------------------------------------------------------------------
# filter_pair


def _pair(src_len, tgt_len, score=None):
    return ParallelExample("a " * src_len, "b " * tgt_len, external_score=score)


def test_filter_too_long_at_251():
    cfg = FilterConfig()
    assert filter_pair(_pair(251, 250), cfg) == "too_long"
    assert filter_pair(_pair(250, 250), cfg) is None


def test_filter_ratio_10_vs_14():
    cfg = FilterConfig()
    assert filter_pair(_pair(10, 14), cfg) == "ratio"
    assert filter_pair(_pair(14, 10), cfg) == "ratio"  # symmetric
    assert filter_pair(_pair(10, 13), cfg) is None  # 1.3 not > 1.3


def test_filter_score_boundary():
    cfg = FilterConfig()
    assert filter_pair(_pair(8, 8, score=0.59), cfg) == "score"
    assert filter_pair(_pair(8, 8, score=0.60), cfg) is None


def test_filter_missing_score_skips_rule():
    assert filter_pair(_pair(8, 8, score=None), FilterConfig()) is None


def test_filter_too_short():
    cfg = FilterConfig(min_len_tokens=2)
    assert filter_pair(_pair(1, 5), cfg) == "too_short"
    assert filter_pair(ParallelExample("", "b"), FilterConfig()) == "too_short"


def test_filter_first_failure_attribution(langid_model):
    # violates langid_src, too_long, ratio, and score at once: first rule wins
    bad = ParallelExample("привет " * 300, "b " * 100, external_score=0.1)
    cfg = FilterConfig(required_langs=("en", "de"))
    assert filter_pair(bad, cfg, langid_model) == "langid_src"
    # without a langid model the cascade starts at the length rules
    assert filter_pair(bad, cfg) == "too_long"


def test_filter_langid_tgt(langid_model):
    pair = ParallelExample("the water day people", "привет мир как дела")
    cfg = FilterConfig(required_langs=("en", "de"))
    assert filter_pair(pair, cfg, langid_model) == "langid_tgt"


def test_filter_langid_rejects_blank_side(langid_model):
    cfg = FilterConfig(required_langs=("en", "ru"))
    blank_src = ParallelExample(" ", "привет мир как дела")
    blank_tgt = ParallelExample("the water day people", "\t ")
    assert filter_pair(blank_src, cfg, langid_model) == "langid_src"
    assert filter_pair(blank_tgt, cfg, langid_model) == "langid_tgt"
    # without a langid model the same pairs are too short
    assert filter_pair(blank_src, cfg) == "too_short"
    assert filter_pair(blank_tgt, cfg) == "too_short"


# ---------------------------------------------------------------------------
# filter_corpus


def test_filter_corpus_empty():
    kept, report = filter_corpus([], FilterConfig())
    assert kept == []
    assert report == FilterReport()
    assert report.total == 0 and report.kept == 0


def test_filter_corpus_planted_report(planted_filter_fixture, langid_model):
    pairs, expected = planted_filter_fixture
    cfg = FilterConfig(required_langs=("en", "de"))
    kept, report = filter_corpus(pairs, cfg, langid_model)
    assert report == expected
    assert len(kept) == expected.kept


def test_filter_corpus_deterministic(planted_filter_fixture, langid_model):
    pairs, _ = planted_filter_fixture
    cfg = FilterConfig(required_langs=("en", "de"))
    kept1, report1 = filter_corpus(pairs, cfg, langid_model)
    kept2, report2 = filter_corpus(pairs, cfg, langid_model)
    assert kept1 == kept2 and report1 == report2


def test_filter_corpus_order_preserved(planted_filter_fixture, langid_model):
    pairs, _ = planted_filter_fixture
    kept, _ = filter_corpus(pairs, FilterConfig(required_langs=("en", "de")), langid_model)
    seq = [p.sequence_no for p in kept]
    assert seq == sorted(seq)


def test_filter_report_reconciles(planted_filter_fixture, langid_model):
    pairs, _ = planted_filter_fixture
    _, report = filter_corpus(pairs, FilterConfig(required_langs=("en", "de")), langid_model)
    assert report.kept + sum(report.rejected.values()) == report.total


def test_filter_report_merge(planted_filter_fixture, langid_model):
    pairs, _ = planted_filter_fixture
    cfg = FilterConfig(required_langs=("en", "de"))
    _, whole = filter_corpus(pairs, cfg, langid_model)
    _, first = filter_corpus(pairs[:400], cfg, langid_model)
    _, second = filter_corpus(pairs[400:], cfg, langid_model)
    assert first.merge(second) == whole


def test_filter_report_lines():
    report = FilterReport(total=3, kept=2)
    report.rejected["ratio"] += 1
    lines = report.to_lines()
    assert lines[0] == "total\t3"
    assert lines[1] == "kept\t2"
    assert "rejected.ratio\t1" in lines
    assert lines[-1] == "malformed\t0"
    assert [l.split("\t")[0] for l in lines[2:-1]] == [f"rejected.{r}" for r in RULE_ORDER]


# ---------------------------------------------------------------------------
# reverse_target


def test_reverse_target_basic():
    p = ParallelExample("x y", "a b c")
    assert reverse_target(p).target == "c b a"
    assert reverse_target(p).source == "x y"


def test_reverse_target_involution():
    rng = random.Random(91)
    for _ in range(100):
        p = ParallelExample(
            make_sentence(rng, "en"),
            " ".join(rng.choice("abcdef") for _ in range(rng.randint(1, 12))),
            external_score=rng.choice([None, 0.7]),
            sequence_no=rng.randint(0, 99),
        )
        assert reverse_target(reverse_target(p)) == p


def test_reverse_target_single_token():
    p = ParallelExample("x", "solo")
    assert reverse_target(p).target == "solo"


def test_reverse_target_length_preserving():
    p = ParallelExample("x", "a b c d")
    assert len(reverse_target(p).target.split()) == 4


def test_reverse_target_provenance_tag():
    # the tag is kept, so the involution holds; mix tags R2L data itself
    for provenance in Provenance:
        p = ParallelExample("x", "a b", provenance=provenance)
        assert reverse_target(p).provenance is provenance


# ---------------------------------------------------------------------------
# mix_sample


def _corpus(n, provenance):
    return [
        ParallelExample(f"s{i}", f"t{i}", provenance=provenance, sequence_no=i)
        for i in range(n)
    ]


def test_mix_two_to_one_proportion():
    a = _corpus(500, Provenance.BITEXT)
    b = _corpus(500, Provenance.BACKTRANSLATED)
    out = mix_sample([(a, 2.0), (b, 1.0)], n=30_000, seed=7)
    share = sum(p.provenance is Provenance.BITEXT for p in out) / len(out)
    assert abs(share - 2 / 3) <= 0.01


def test_mix_six_three_one_chi_square():
    from scipy.stats import chisquare

    parts = [
        (_corpus(300, Provenance.BITEXT), 6.0),
        (_corpus(300, Provenance.R2L_DISTILLED), 3.0),
        (_corpus(300, Provenance.BACKTRANSLATED), 1.0),
    ]
    out = mix_sample(parts, n=100_000, seed=11)
    observed = [
        sum(p.provenance is prov for p in out)
        for prov in (Provenance.BITEXT, Provenance.R2L_DISTILLED, Provenance.BACKTRANSLATED)
    ]
    expected = [60_000, 30_000, 10_000]
    assert chisquare(observed, expected).pvalue > 0.01
    for obs, exp in zip(observed, expected):
        assert abs(obs - exp) / 100_000 <= 0.01


def test_mix_single_corpus_replays_in_order():
    items = _corpus(4, Provenance.NEWS)
    out = mix_sample([(items, 1.0)], n=10, seed=0)
    assert [p.source for p in out] == [f"s{i % 4}" for i in range(10)]


def test_mix_renumbers_sequence():
    out = mix_sample([(_corpus(5, Provenance.BITEXT), 1.0)], n=12, seed=3)
    assert [p.sequence_no for p in out] == list(range(12))


def test_mix_deterministic():
    parts = [(_corpus(50, Provenance.BITEXT), 1.0), (_corpus(50, Provenance.NEWS), 1.0)]
    assert mix_sample(parts, 500, seed=5) == mix_sample(parts, 500, seed=5)
    assert mix_sample(parts, 500, seed=5) != mix_sample(parts, 500, seed=6)


def test_mix_errors():
    with pytest.raises(EmptyCorpusListError):
        mix_sample([], 10, seed=0)
    with pytest.raises(EmptyCorpusListError):
        mix_sample([([], 1.0)], 10, seed=0)
    with pytest.raises(ValueError):
        mix_sample([(_corpus(3, Provenance.BITEXT), 0.0)], 10, seed=0)


# ---------------------------------------------------------------------------
# tsv io


def test_parse_tsv_two_and_three_columns():
    p = parse_tsv_line("hello\twelt", 4)
    assert (p.source, p.target, p.external_score, p.sequence_no) == ("hello", "welt", None, 4)
    q = parse_tsv_line("hello\twelt\t0.85\n", 0)
    assert q.external_score == 0.85


def test_parse_tsv_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_tsv_line("only one column", 0)
    with pytest.raises(ValueError):
        parse_tsv_line("a\tb\t1.5", 0)
    with pytest.raises(ValueError):
        parse_tsv_line("a\tb\tnot_a_number", 0)


def test_read_parallel_tsv_skips_and_reports():
    lines = ["a\tb", "", "broken line", "c\td\t0.9", "   ", "e\tf"]
    seen = []
    pairs = list(read_parallel_tsv(lines, on_malformed=lambda no, msg: seen.append(no)))
    assert [(p.source, p.sequence_no) for p in pairs] == [("a", 0), ("c", 1), ("e", 2)]
    assert seen == [3]


def test_format_tsv_roundtrip():
    p = ParallelExample("hello", "welt", external_score=0.75, sequence_no=9)
    line = format_tsv_line(p)
    assert line == "hello\twelt\t0.75"
    back = parse_tsv_line(line, 9)
    assert back == p


def test_format_tsv_extra_cols():
    p = ParallelExample("a", "b")
    assert format_tsv_line(p, extra_cols=("0.5", "0.25")) == "a\tb\t0.5\t0.25"
