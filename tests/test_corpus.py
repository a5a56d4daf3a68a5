"""Language id, the filter cascade, target reversal, mixing, and TSV io."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtkit import bpe, domain
from mtkit.corpus import (
    FilterConfig,
    FilterReport,
    LangIdModel,
    ParallelExample,
    RULE_ORDER,
    _block_rows,
    _first_rejection,
    _langid_features,
    _langid_labels,
    filter_corpus,
    filter_pair,
    format_tsv_line,
    langid_classify,
    langid_train,
    load_langid,
    mix_sample,
    parse_tsv_line,
    reverse_target,
    save_langid,
)
from mtkit.decode import DecodeConfig
from mtkit.errors import ConfigError, EmptyInputError, ModelFormatError

from conftest import make_sentence
from scalar_reference import (reference_langid_classify, reference_langid_features,
                              reference_langid_train)

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
    with pytest.raises(EmptyInputError):
        langid_train([(make_sentence(rng, "en"), "en") for _ in range(200)])


def test_langid_russian_probe(langid_model):
    lang, prob = langid_classify(langid_model, "привет мир")
    assert lang == "ru"
    assert prob >= 0.9


def test_langid_probabilities_normalized(langid_model):
    rng = random.Random(90)
    for lang in ("en", "de", "ru"):
        for _ in range(10):
            features = reference_langid_features(make_sentence(rng, lang), langid_model.n_features)
            probs = langid_model._proba(features)
            assert abs(float(probs.sum()) - 1.0) <= 1e-6
            assert np.all(probs >= 0)


def test_langid_deterministic(langid_model):
    text = "the water day people"
    assert langid_classify(langid_model, text) == langid_classify(langid_model, text)


def test_langid_empty_text(langid_model):
    with pytest.raises(EmptyInputError):
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
# language-id features by block, against the gram-by-gram oracle

# ASCII, Cyrillic, CJK and astral characters, and characters whose lower()
# is longer ("İ") or depends on what follows ("Σ")
_LID_CHARS = st.sampled_from(list("ab zQ.") + list("дЖё") + list("中文") + ["🎉", "𝐀", "İ", "Σ"])
_lid_text = st.text(_LID_CHARS | st.characters(exclude_categories=("Cs",)), max_size=8)


@st.composite
def _lid_block(draw):
    """(n_features, texts): one text, or more than one block's worth."""
    n_features = draw(st.sampled_from([1, 7, 2048, 2**20]))
    size = draw(st.sampled_from([1, _block_rows(n_features) + 1]))
    return n_features, draw(st.lists(_lid_text, min_size=size, max_size=size))


@functools.lru_cache(maxsize=None)
def _random_langid_model(n_features: int) -> LangIdModel:
    rng = np.random.default_rng(n_features)
    return LangIdModel(["de", "en", "ru"], rng.normal(size=(n_features, 3)), rng.normal(size=3))


@pytest.mark.parametrize("langs, weights, bias, why", [
    pytest.param(["en", "ru"], [0.5, -0.5], [0.0, 0.0],
                 "langid weight shapes inconsistent with langs", id="weights not a matrix"),
    pytest.param(["en", "ru"], [[0.5, -0.5, 0.0]], [0.0, 0.0],
                 "langid weight shapes inconsistent with langs",
                 id="a weight per language too many"),
    pytest.param(["en", "ru"], [[0.5, -0.5]], [0.0],
                 "langid weight shapes inconsistent with langs", id="bias too short"),
    pytest.param(["en", "ru"], np.zeros((0, 2)), [0.0, 0.0],
                 "n_features must be positive, got 0", id="no feature rows"),
    pytest.param(["en", "ru"], [[0.5, np.inf]], [0.0, 0.0],
                 "langid weights and bias must be finite", id="infinite weight"),
    pytest.param(["en gb", "ru"], [[0.5, -0.5]], [0.0, 0.0],
                 "language code 'en gb' is empty or holds whitespace", id="code holds a space"),
    pytest.param(["en", ""], [[0.5, -0.5]], [0.0, 0.0],
                 "language code '' is empty or holds whitespace", id="empty code"),
    pytest.param(["en", "ru\n"], [[0.5, -0.5]], [0.0, 0.0],
                 "language code 'ru\\n' is empty or holds whitespace", id="code ends a line"),
])
def test_langid_model_checks_its_shapes(langs, weights, bias, why):
    # n_features is the number of weight rows; a language code must be one
    # word of the file's space-separated `langs` line
    with pytest.raises(ModelFormatError) as err:
        LangIdModel(langs, weights, bias)
    assert str(err.value) == why
    assert LangIdModel(["en", "ru"], [[0.5, -0.5]] * 3, [0.0, 0.0]).n_features == 3


@settings(max_examples=60, deadline=None)
@given(_lid_block())
@example((7, [""]))  # texts of 0, 1 and 2 characters
@example((2048, ["a"]))
@example((1, ["ab"]))
@example((2**20, ["İ", "zΣ"]))
def test_langid_features_match_reference(block):
    n_features, texts = block
    out = np.full((len(texts), n_features), -1.0)  # every cell is overwritten
    _langid_features(texts, out)
    for text, row in zip(texts, out):
        assert np.array_equal(row, reference_langid_features(text, n_features))


@settings(max_examples=60, deadline=None)
@given(_lid_block())
@example((7, [""]))  # texts of 0, 1 and 2 characters
@example((2048, ["a"]))
@example((1, ["ab"]))
@example((2**20, ["İ", "zΣ"]))
def test_langid_classify_matches_reference(block):
    n_features, texts = block
    model = _random_langid_model(n_features)
    labels = _langid_labels(model, texts)
    nonblank = [text for text in texts if text.strip()]
    assert set(labels) == set(nonblank)
    for text in nonblank:
        expected = reference_langid_classify(model, text)
        assert langid_classify(model, text) == expected
        assert labels[text] == expected[0]


def _numpy_fit(labeled, seed: int, n_features: int, epochs: int):
    """langid_train's descent over the oracle's rows, from the initial
    weights numpy.random.default_rng(seed) draws; returns (weights, bias)."""
    langs = sorted({lang for _, lang in labeled})
    x = np.array([reference_langid_features(text, n_features) for text, _ in labeled])
    y = np.array([[lang == code for code in langs] for _, lang in labeled], dtype=float)
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=(n_features, len(langs)))
    b = np.zeros(len(langs))
    for _ in range(epochs):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        grad = exp / exp.sum(axis=1, keepdims=True) - y
        w -= 2.0 * (grad.T @ x).T / len(labeled)
        b -= 2.0 * grad.mean(axis=0)
    return w, b


def test_langid_train_matches_reference_features(langid_corpus):
    # langid_train fills its matrix block by block; the fit depends on the
    # rows only, so training on the oracle's rows must give the same model
    train, _ = langid_corpus
    labeled = train[:100] + train[1000:1100]  # more than one block of texts
    n_features = 2048
    model = langid_train(labeled, seed=4, n_features=n_features, epochs=3)
    assert len(labeled) > _block_rows(n_features)
    w, b = _numpy_fit(labeled, 4, n_features, 3)
    assert np.array_equal(model.weights, w) and np.array_equal(model.bias, b)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 7])
@pytest.mark.parametrize("n_features", [1, 5, 2048])
def test_langid_train_draws_default_rng_weights(langid_corpus, seed, n_features):
    # mtkit.normal draws the initial weights; they are default_rng's, so the
    # fit is bit for bit the one numpy.random's draws give
    train, _ = langid_corpus
    labeled = train[:20] + train[1000:1020] + train[2000:2020]
    model = langid_train(labeled, seed=seed, n_features=n_features, epochs=2)
    w, b = _numpy_fit(labeled, seed, n_features, 2)
    assert model.weights.tobytes() == w.tobytes() and model.bias.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(labeled=st.lists(st.tuples(st.text("abcаб ", max_size=8),
                                  st.sampled_from(["de", "en", "ru"])),
                        min_size=2, max_size=6).filter(lambda rows: len({l for _, l in rows}) > 1),
       n_features=st.integers(1, 9), epochs=st.integers(1, 4), lr=st.sampled_from([0.5, 2.0]),
       seed=st.integers(0, 2**32))
def test_langid_train_matches_scalar_descent(labeled, n_features, epochs, lr, seed):
    # The recorded digests cover one shape only; this checks the math, and
    # the orientation of each product, on small shapes of every kind,
    # without relying on how BLAS rounds. A parameter that updates cancel
    # to near zero is held to 1e-12 of one step of size lr instead.
    model = langid_train(labeled, seed=seed, n_features=n_features, epochs=epochs, lr=lr)
    langs, w, b = reference_langid_train(labeled, seed, n_features, epochs, lr)
    assert model.langs == langs
    for got, want in zip([*model.weights.ravel(), *model.bias], [*np.ravel(w), *b]):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * lr), (got, want)


def test_langid_lone_surrogate(langid_model):
    # Only a library caller can pass one: the CLI reads strict UTF-8. A lone
    # surrogate fails once a gram holds it; a one-character text has no gram.
    out = np.full((2, 16), -1.0)
    _langid_features(["\ud800", "ab"], out)
    assert not out[0].any()
    assert np.array_equal(out[1], reference_langid_features("ab", 16))
    assert langid_classify(langid_model, "\udc00") == reference_langid_classify(
        langid_model, "\udc00")
    for text in ("a\ud800", "\udc00xyz", "ab\ud83d\ude00"):
        with pytest.raises(UnicodeEncodeError):
            reference_langid_features(text, 16)
        with pytest.raises(UnicodeEncodeError):
            _langid_features(["ok", text], np.empty((2, 16)))
        with pytest.raises(UnicodeEncodeError):
            langid_classify(langid_model, text)


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


def test_filter_empty_side_without_a_length_minimum():
    # min_len_tokens 0 lets an empty side past too_short; its length ratio
    # is unbounded, so the ratio rule rejects it
    cfg = FilterConfig(min_len_tokens=0)
    assert filter_pair(ParallelExample("", "b"), cfg) == "ratio"
    assert filter_pair(ParallelExample("a", ""), cfg) == "ratio"


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
    position = {id(p): i for i, p in enumerate(pairs)}
    seq = [position[id(p)] for p in kept]
    assert len(kept) == 900 and seq == sorted(seq)


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


def test_filter_corpus_matches_filter_pair(langid_model):
    # filter_corpus classifies the sides by block; each verdict must be the
    # one the cascade gives when the scalar oracle classifies one text at a
    # time, and the one filter_pair gives the pair alone
    rng = random.Random(21)
    repeated = make_sentence(rng, "en", 8)
    pairs = []
    for i in range(300):
        n = rng.randint(3, 12)
        source = make_sentence(rng, ("en", "en", "en", "ru", "de")[i % 5], n)
        target = make_sentence(rng, ("de", "de", "de", "de", "en", "ru")[i % 6],
                               n + 6 if i % 7 == 0 else n)
        if i % 4 == 0:
            source = repeated
        if i % 17 == 0:
            source = " "
        if i % 13 == 0:
            target = "\t"
        pairs.append(ParallelExample(source, target, round(rng.uniform(0.5, 1.0), 2)))
    pairs.append(ParallelExample("", make_sentence(rng, "ru")))  # blank source, wrong target
    cfg = FilterConfig(required_langs=("en", "de"), max_len_tokens=10, min_len_tokens=4)
    assert len({side for p in pairs for side in (p.source, p.target)}) > _block_rows(2048)
    kept, report = filter_corpus(pairs, cfg, langid_model)

    def lang_of(text):
        return reference_langid_classify(langid_model, text)[0]

    verdicts = [_first_rejection(pair, cfg, lang_of) for pair in pairs]
    assert [filter_pair(pair, cfg, langid_model) for pair in pairs] == verdicts
    assert kept == [pair for pair, v in zip(pairs, verdicts) if v is None]
    expected = FilterReport(total=len(pairs), kept=verdicts.count(None))
    for verdict in filter(None, verdicts):
        expected.rejected[verdict] += 1
    assert report == expected
    assert all(report.rejected[rule] > 0 for rule in RULE_ORDER)
    assert verdicts[-1] == "langid_src"  # the first rule in RULE_ORDER wins
    _, last = filter_corpus(pairs[-1:], cfg, langid_model)
    assert last.rejected == {rule: int(rule == "langid_src") for rule in RULE_ORDER}


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
        )
        assert reverse_target(reverse_target(p)) == p


def test_reverse_target_single_token():
    p = ParallelExample("x", "solo")
    assert reverse_target(p).target == "solo"


def test_reverse_target_length_preserving():
    p = ParallelExample("x", "a b c d")
    assert len(reverse_target(p).target.split()) == 4


# ---------------------------------------------------------------------------
# mix_sample


def _corpus(n, name):
    """n pairs whose source text starts with `name`, so a mix tells corpora apart."""
    return [ParallelExample(f"{name}{i}", f"t{i}") for i in range(n)]


def _counts(out, names):
    return [sum(p.source.startswith(name) for p in out) for name in names]


def test_mix_two_to_one_proportion():
    a = _corpus(500, "a")
    b = _corpus(500, "b")
    out = mix_sample([(a, 2.0), (b, 1.0)], n=30_000, seed=7)
    share = _counts(out, ["a"])[0] / len(out)
    assert abs(share - 2 / 3) <= 0.01


def test_mix_six_three_one_chi_square():
    parts = [
        (_corpus(300, "bitext"), 6.0),
        (_corpus(300, "r2l"), 3.0),
        (_corpus(300, "bt"), 1.0),
    ]
    out = mix_sample(parts, n=100_000, seed=11)
    observed = _counts(out, ["bitext", "r2l", "bt"])
    expected = [60_000, 30_000, 10_000]
    # Pearson's statistic over 3 categories has 2 degrees of freedom, where
    # the chi-square survival function is exactly exp(-stat / 2)
    stat = sum((obs - exp) ** 2 / exp for obs, exp in zip(observed, expected))
    assert math.exp(-stat / 2) > 0.01
    for obs, exp in zip(observed, expected):
        assert abs(obs - exp) / 100_000 <= 0.01


def test_mix_single_corpus_replays_in_order():
    items = _corpus(4, "s")
    out = mix_sample([(items, 1.0)], n=10, seed=0)
    assert [p.source for p in out] == [f"s{i % 4}" for i in range(10)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [0, 1, 7, 1500])
def test_mix_picks_as_one_draw_per_example(seed, n):
    # choices(k=n) takes one random() per pick, in order, so its picks are
    # those of n one-pick calls on the same generator
    weights = [0.5, 2.0, 1.25]
    parts = [(_corpus(3, name), w) for name, w in zip("abc", weights)]
    rng = random.Random(seed)
    picks = [rng.choices(range(3), weights=weights)[0] for _ in range(n)]
    assert [p.source[0] for p in mix_sample(parts, n, seed)] == ["abc"[i] for i in picks]


def test_mix_deterministic():
    parts = [(_corpus(50, "bitext"), 1.0), (_corpus(50, "news"), 1.0)]
    assert mix_sample(parts, 500, seed=5) == mix_sample(parts, 500, seed=5)
    assert mix_sample(parts, 500, seed=5) != mix_sample(parts, 500, seed=6)


def test_mix_errors():
    with pytest.raises(EmptyInputError):
        mix_sample([], 10, seed=0)
    with pytest.raises(EmptyInputError):
        mix_sample([([], 1.0)], 10, seed=0)
    with pytest.raises(ValueError):
        mix_sample([(_corpus(3, "s"), 0.0)], 10, seed=0)


def test_a_negative_seed_is_refused_where_it_would_repeat_a_positive_one():
    # random.Random seeds with abs(seed), so seed -2 would draw what 2 draws
    assert random.Random(-2).random() == random.Random(2).random()
    parts = [(_corpus(5, "a"), 1.0), (_corpus(5, "b"), 1.0)]
    codes = bpe.bpe_train(["a b c", "ab bc"], 12)
    draws = {
        "mix": lambda seed: mix_sample(parts, 10, seed=seed),
        "dropout": lambda seed: bpe.bpe_encode(codes, "ab bc abc", dropout_p=0.5, seed=seed),
        "domain": lambda seed: domain.domain_train(["a b"] * 4, ["c d"] * 6, seed=seed),
        "sample": lambda seed: DecodeConfig(seed=seed),
    }
    for draw in draws.values():
        draw(2)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -2$"):
            draw(-2)
    # without dropout nothing is drawn, and the seed is not read
    assert bpe.bpe_encode(codes, "ab bc abc", seed=-2) == bpe.bpe_encode(codes, "ab bc abc")


# ---------------------------------------------------------------------------
# tsv io


def test_parse_tsv_two_and_three_columns():
    p = parse_tsv_line("hello\twelt")
    assert (p.source, p.target, p.external_score) == ("hello", "welt", None)
    q = parse_tsv_line("hello\twelt\t0.85\n")
    assert q.external_score == 0.85


def test_parse_tsv_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_tsv_line("only one column")
    with pytest.raises(ValueError):
        parse_tsv_line("a\tb\t1.5")
    with pytest.raises(ValueError):
        parse_tsv_line("a\tb\tnot_a_number")


def test_format_tsv_roundtrip():
    p = ParallelExample("hello", "welt", external_score=0.75)
    line = format_tsv_line(p)
    assert line == "hello\twelt\t0.75"
    back = parse_tsv_line(line)
    assert back == p


def test_format_tsv_extra_cols():
    p = ParallelExample("a", "b")
    assert format_tsv_line(p, extra_cols=("0.5", "0.25")) == "a\tb\t0.5\t0.25"
