"""Normalization, tokenization, detokenization, and German quotes."""

import random

from mtkit import textnorm
from mtkit.textnorm import (
    detokenize,
    german_quote_postprocess,
    nonbreaking_prefixes,
    normalize_punct,
    word_tokenize,
)

# ---------------------------------------------------------------------------
# normalize_punct


def test_normalize_curly_quotes_and_spaces():
    assert normalize_punct("“Hello”  world") == '"Hello" world'


def test_normalize_identity_on_plain_text():
    assert normalize_punct("abc") == "abc"


def test_normalize_dashes_and_ellipsis():
    assert normalize_punct("a – b — c") == "a - b - c"
    assert normalize_punct("wait…") == "wait..."


def test_normalize_single_quotes():
    assert normalize_punct("it’s ‘fine’") == "it's 'fine'"


def test_normalize_strips_edges_and_collapses_runs():
    assert normalize_punct("  a   b\tc ") == "a b c"


def test_normalize_idempotent_on_fixture(trilingual_lines):
    for line in trilingual_lines[:2000]:
        once = normalize_punct(line)
        assert normalize_punct(once) == once


def test_normalize_idempotent_on_noisy_random_text():
    rng = random.Random(7)
    pool = "ab “”‘’–…\"'.-  ,!?()"
    for _ in range(500):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        once = normalize_punct(text)
        assert normalize_punct(once) == once


# ---------------------------------------------------------------------------
# word_tokenize


def test_tokenize_basic():
    assert word_tokenize("Hello, world.") == ["Hello", ",", "world", "."]


def test_tokenize_empty():
    assert word_tokenize("") == []


def test_tokenize_single_word():
    assert word_tokenize("word") == ["word"]


def test_tokenize_quotes_and_brackets():
    assert word_tokenize('"Hi" (there)') == ['"', "Hi", '"', "(", "there", ")"]


def test_tokenize_ellipsis_is_one_token():
    assert word_tokenize("Wait... what?") == ["Wait", "...", "what", "?"]
    assert word_tokenize("...") == ["..."]


def test_tokenize_nonbreaking_prefix():
    # "Dr." is on the English prefix list, so the period stays attached.
    assert word_tokenize("Dr. Smith arrived.") == ["Dr.", "Smith", "arrived", "."]


def test_tokenize_german_prefix():
    assert "z.b" in nonbreaking_prefixes("de") or "bzw" in nonbreaking_prefixes("de")
    assert word_tokenize("bzw. morgen", lang="de") == ["bzw.", "morgen"]


def test_tokenize_unknown_language_prefixes_empty():
    assert nonbreaking_prefixes("xx") == frozenset()


def test_prefix_table_reads_only_the_shipped_lists():
    # a code is never joined into a package path, and unknown codes add no
    # cache entry, so the cache holds at most the three shipped lists
    assert nonbreaking_prefixes("../data/en") == frozenset()
    for i in range(1000):
        assert nonbreaking_prefixes(f"x{i}") == frozenset()
    assert len(textnorm._PREFIX_CACHE) <= 3
    assert "Dr" in nonbreaking_prefixes("en")


# ---------------------------------------------------------------------------
# detokenize


def test_detokenize_basic():
    assert detokenize(["Hello", ",", "world", "."]) == "Hello, world."


def test_detokenize_quotes_pair():
    toks = ["He", "said", '"', "go", "home", '"', "."]
    assert detokenize(toks) == 'He said "go home".'


def test_detokenize_brackets():
    assert detokenize(["a", "(", "b", ")", "c"]) == "a (b) c"


def test_roundtrip_fixture(trilingual_lines):
    langs = ("en", "de", "ru")
    for i, line in enumerate(trilingual_lines):
        lang = langs[i % 3]
        norm = normalize_punct(line)
        assert detokenize(word_tokenize(norm, lang=lang)) == norm


def test_roundtrip_handpicked():
    for text in [
        'She shouted "stop"!',
        "One, two, three...",
        "(a) b; c: d.",
        "Really?!",
    ]:
        assert detokenize(word_tokenize(text)) == text


# ---------------------------------------------------------------------------
# german_quote_postprocess


def test_german_quotes_paired():
    assert german_quote_postprocess('Er sagte "Hallo" zu mir') == "Er sagte „Hallo“ zu mir"


def test_german_quotes_no_quotes():
    assert german_quote_postprocess("kein Zitat") == "kein Zitat"


def test_german_quotes_unpaired_untouched():
    assert german_quote_postprocess('ein " allein') == 'ein " allein'


def test_german_quotes_two_pairs_plus_stray():
    out = german_quote_postprocess('"a" und "b" und " c')
    assert out == '„a“ und „b“ und " c'


def test_german_quotes_edits_only_quote_positions():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 30)
        text = "".join(rng.choice('ab" ') for _ in range(n))
        out = german_quote_postprocess(text)
        assert len(out) == len(text)
        for a, b in zip(text, out):
            if a == b:
                continue
            assert a == '"' and b in "„“"
