"""BPE training, dropout encoding, decoding, and the model file format."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import bpe
from mtkit.bpe import (
    BpeModel,
    bpe_decode,
    bpe_encode,
    bpe_train,
    load_model,
    save_model,
)
from mtkit.errors import (
    ConfigError,
    EmptyInputError,
    ModelFormatError,
    MtkitError,
    VocabMismatchError,
)

from conftest import fuzz_variants, loads_or_names_file
from scalar_reference import reference_bpe_train

# base symbols for corpus {aaab, aab}: 4 specials + </w> + {a, b} = 7


def test_first_merge_is_aa():
    # pair counts: (a,a) 3, (a,b) 2, (b,</w>) 2 -> (a,a) wins outright
    model = bpe_train(["aaab aab"], vocab_size=8)
    assert model.merges == [("a", "a")]


def test_merge_sequence_and_tiebreak():
    # after (a,a): words are (aa,a,b,</w>) and (aa,b,</w>); counts
    # (aa,a) 1, (a,b) 1, (aa,b) 1, (b,</w>) 2 -> (b,</w>) wins; then ties
    # (a,b</w>) 1, (aa,a) 1, (aa,b</w>) 1 resolve lexicographically.
    model = bpe_train(["aaab aab"], vocab_size=10)
    assert model.merges == [("a", "a"), ("b", "</w>"), ("a", "b</w>")]


def test_degenerate_single_char_corpus_terminates():
    model = bpe_train(["aaaa aaaa"], vocab_size=50)
    # merges exhaust; stored vocab stays under budget and encoding works
    assert len(model.vocab) <= 50
    ids = bpe_encode(model, "aaaa")
    assert bpe_decode(model, ids) == "aaaa"


def test_train_deterministic_byte_identical(tmp_path, trilingual_lines):
    corpus = trilingual_lines[:300]
    p1, p2 = tmp_path / "m1.bpe", tmp_path / "m2.bpe"
    save_model(bpe_train(corpus, 200), p1)
    save_model(bpe_train(list(corpus), 200), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_empty_corpus():
    with pytest.raises(EmptyInputError):
        bpe_train(["", "   "], vocab_size=10)


def test_train_vocab_too_small():
    with pytest.raises(ConfigError):
        bpe_train(["aaab aab"], vocab_size=7)  # base size exactly, no merge room


# ---------------------------------------------------------------------------
# incremental training against the recount-every-merge reference


def _train_both(corpus, vocab_size):
    """(merges, vocab) of bpe_train and of the reference, or the error types."""
    out = []
    for train in (bpe_train, reference_bpe_train):
        try:
            model = train(corpus, vocab_size)
            out.append((model.merges, model.vocab))
        except MtkitError as exc:
            out.append(type(exc))
    return out


_words = st.lists(
    st.sampled_from(["a", "ab", "abc", "</w>"]).flatmap(
        lambda alphabet: st.text(alphabet=alphabet, min_size=1, max_size=7)
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_words.map(" ".join), max_size=4), vocab_size=st.integers(1, 60))
def test_train_matches_reference(lines, vocab_size):
    # small alphabets make equal pair counts, and so the tie-break, common
    ours, ref = _train_both(lines, vocab_size)
    assert ours == ref


@pytest.mark.parametrize("corpus", [
    ["aaaa aaa aaaaa aa"],  # overlapping pairs of one symbol
    ["aaaa aaaa", "abababab aaa"],
    ["aaab aab baaa abaaba"],
])
def test_train_matches_reference_on_runs(corpus):
    ours, ref = _train_both(corpus, 40)
    assert ours == ref


def test_train_two_pairs_with_one_string():
    # A corpus holding the marker's characters makes ("/", "</w>") and
    # ("/</w", ">") both spell "/</w>"; they are different pairs.
    ours, ref = _train_both(["/</w> /"], 60)
    assert ours == ref
    merges, _ = ours
    assert ("/", "</w>") in merges and ("/</w", ">") in merges


def test_train_stops_when_every_pair_is_merged():
    ours, ref = _train_both(["abc abd ab", "dcba"], 1000)
    assert ours == ref
    _, vocab = ours
    assert len(vocab) < 1000  # stopped on running out of pairs, not on budget
    assert {"abc</w>", "abd</w>", "ab</w>", "dcba</w>"} <= set(vocab)


def test_train_matches_reference_on_fixture_corpus(trilingual_lines):
    corpus = trilingual_lines[:1000]
    ours, ref = _train_both(corpus, 300)
    assert ours == ref


def test_special_ids_fixed():
    model = bpe_train(["aaab aab"], vocab_size=8)
    assert (model.pad_id, model.unk_id, model.bos_id, model.eos_id) == (0, 1, 2, 3)


def test_vocab_within_budget(fixture_bpe):
    assert len(fixture_bpe.vocab) <= fixture_bpe.vocab_size
    ranks = list(fixture_bpe.merge_ranks.values())
    assert ranks == list(range(len(fixture_bpe.merges)))


# ---------------------------------------------------------------------------
# encode / decode


def test_roundtrip_fixture_corpus(fixture_bpe, trilingual_lines):
    from mtkit import textnorm

    langs = ("en", "de", "ru")
    for i, line in enumerate(trilingual_lines):
        text = " ".join(textnorm.word_tokenize(line, lang=langs[i % 3]))
        ids = bpe_encode(fixture_bpe, text)
        assert bpe_decode(fixture_bpe, ids) == text


def test_encode_deterministic_at_zero_dropout(fixture_bpe):
    text = "the water day people"
    assert bpe_encode(fixture_bpe, text) == bpe_encode(fixture_bpe, text)


def test_dropout_same_seed_identical(fixture_bpe):
    text = "the water day people time year"
    a = bpe_encode(fixture_bpe, text, dropout_p=0.1, seed=42)
    b = bpe_encode(fixture_bpe, text, dropout_p=0.1, seed=42)
    assert a == b


def test_dropout_monotone_fragmentation(fixture_bpe, trilingual_lines):
    rng = random.Random(5)
    for line in rng.sample(trilingual_lines[:3000], 400):
        base = len(bpe_encode(fixture_bpe, line))
        for seed in (0, 1, 2):
            assert len(bpe_encode(fixture_bpe, line, dropout_p=0.1, seed=seed)) >= base


def test_dropout_encodings_still_decode(fixture_bpe, trilingual_lines):
    from mtkit import textnorm

    rng = random.Random(6)
    langs = ("en", "de", "ru")
    idxs = rng.sample(range(3000), 200)
    for i in idxs:
        text = " ".join(textnorm.word_tokenize(trilingual_lines[i], lang=langs[i % 3]))
        ids = bpe_encode(fixture_bpe, text, dropout_p=0.3, seed=i)
        assert bpe_decode(fixture_bpe, ids) == text


def test_dropout_one_rejected(fixture_bpe):
    with pytest.raises(ValueError):
        bpe_encode(fixture_bpe, "x", dropout_p=1.0)
    with pytest.raises(ValueError):
        bpe_encode(fixture_bpe, "x", dropout_p=-0.1)


def test_unknown_characters_map_to_unk():
    model = bpe_train(["aaab aab"], vocab_size=8)
    ids = bpe_encode(model, "aZa")
    assert model.unk_id in ids


def test_zero_dropout_cache_is_bounded():
    model = bpe_train(["abc abd bcd dab"] * 3, vocab_size=30)
    words = itertools.islice(
        itertools.product("abcd", repeat=9), bpe.ZERO_DROPOUT_CACHE_MAX + 100
    )
    text = " ".join("".join(w) for w in words)
    ids = bpe_encode(model, text)
    assert len(model._zero_dropout_cache) <= bpe.ZERO_DROPOUT_CACHE_MAX
    fresh = BpeModel(merges=model.merges, vocab=model.vocab, vocab_size=model.vocab_size)
    assert ids == bpe_encode(fresh, text)
    assert bpe_encode(model, text) == ids  # after the clear, cache hits agree too


def test_decode_empty():
    model = bpe_train(["aaab aab"], vocab_size=8)
    assert bpe_decode(model, []) == ""


def test_decode_truncates_at_eos(fixture_bpe):
    ids = bpe_encode(fixture_bpe, "the water day")
    prefix = bpe_decode(fixture_bpe, ids[:2] + [fixture_bpe.eos_id] + ids[2:])
    assert prefix == bpe_decode(fixture_bpe, ids[:2])


def test_decode_strips_pad_bos_unk(fixture_bpe):
    ids = bpe_encode(fixture_bpe, "the water")
    padded = [fixture_bpe.bos_id] + ids + [fixture_bpe.pad_id, fixture_bpe.unk_id]
    assert bpe_decode(fixture_bpe, padded) == "the water"


def test_decode_unknown_id(fixture_bpe):
    with pytest.raises(VocabMismatchError):
        bpe_decode(fixture_bpe, [10**6])


# ---------------------------------------------------------------------------
# model file format


def test_save_load_roundtrip(tmp_path, fixture_bpe):
    path = tmp_path / "model.bpe"
    save_model(fixture_bpe, path)
    loaded = load_model(path)
    assert loaded.vocab == fixture_bpe.vocab
    assert loaded.merges == fixture_bpe.merges
    assert loaded.vocab_size == fixture_bpe.vocab_size
    text = "the water day people"
    assert bpe_encode(loaded, text) == bpe_encode(fixture_bpe, text)


def test_load_bad_header(tmp_path):
    path = tmp_path / "m.bpe"
    path.write_text("nope\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_bad_vocab_line(tmp_path):
    path = tmp_path / "m.bpe"
    path.write_text("bpe-v1 10\nbadline\n\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("content", [
    "bpe-v1 abc\n<pad>\t0\n\n",  # non-integer vocab size
    "bpe-v1 10\n<pad>\tx\n\n",  # non-integer id
    "bpe-v1 10\n<pad>\t0\n<pad>\t1\n\n",  # duplicate token
])
def test_load_rejects_malformed_fields(tmp_path, content):
    path = tmp_path / "m.bpe"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_a_vocab_larger_than_its_header(tmp_path):
    # six vocab lines, all ids distinct, under a header of vocab size 5
    path = tmp_path / "m.bpe"
    path.write_text("bpe-v1 5\n<pad>\t0\n<unk>\t1\n<bos>\t2\n<eos>\t3\n</w>\t4\na\t5\n\n",
                    encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: stored vocab exceeds configured vocab_size"


def test_load_rejects_non_utf8(tmp_path, fixture_bpe):
    path = tmp_path / "m.bpe"
    save_model(fixture_bpe, path)
    path.write_bytes(path.read_bytes() + b"\xff\xfe a\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


_SPECIAL_VOCAB = {bpe.PAD: 0, bpe.UNK: 1, bpe.BOS: 2, bpe.EOS: 3, bpe.WORD_END: 4, "a": 5}


@pytest.mark.parametrize("vocab", [
    *({k: v for k, v in _SPECIAL_VOCAB.items() if k != tok} for tok in bpe.SPECIALS),
    {**_SPECIAL_VOCAB, "a": 10},  # id == vocab_size
    {**_SPECIAL_VOCAB, "a": -1},
    {**_SPECIAL_VOCAB, "a": 6},  # within [0, vocab_size), but id 5 is unused
    {**_SPECIAL_VOCAB, "a": 4},
], ids=[*(f"no {tok}" for tok in bpe.SPECIALS), "id == vocab_size", "negative id", "id skipped",
        "duplicate id"])
def test_model_validation_rejects_missing_specials_and_bad_ids(vocab):
    with pytest.raises(ModelFormatError):
        BpeModel(merges=[], vocab=vocab, vocab_size=10)


@pytest.mark.parametrize("merges, vocab, why", [
    pytest.param([("a", "b"), ("a", "b")], {**_SPECIAL_VOCAB, "b": 6, "ab": 7},
                 "merge ('a','b') at rank 0 is repeated at rank 1", id="repeated merge"),
    pytest.param([], {**_SPECIAL_VOCAB, "a": 6, "": 5}, "symbol '' is empty or holds whitespace",
                 id="empty symbol"),
    pytest.param([], {**_SPECIAL_VOCAB, "a b": 6}, "symbol 'a b' is empty or holds whitespace",
                 id="symbol holds a space"),
    pytest.param([], {**_SPECIAL_VOCAB, "a\tb": 6}, "symbol 'a\\tb' is empty or holds whitespace",
                 id="symbol holds a tab"),
    pytest.param([], {**_SPECIAL_VOCAB, "b\n": 6}, "symbol 'b\\n' is empty or holds whitespace",
                 id="symbol ends a line"),
])
def test_model_refuses_what_its_file_cannot_hold(merges, vocab, why):
    # a repeated merge line moves the pair's rank; a symbol that is not one
    # whitespace word would not parse back from its vocab or merge line
    with pytest.raises(ModelFormatError) as err:
        BpeModel(merges=merges, vocab=vocab, vocab_size=10)
    assert str(err.value) == why


def test_load_fuzzed_model_files(tmp_path):
    """Truncated or garbled files load as a valid model that saves back to
    the bytes of its file, or raise ModelFormatError, which starts with the
    path and names it once."""
    model = bpe_train(["abc abd ab ba", "cab"], vocab_size=20)
    path = tmp_path / "m.bpe"
    save_model(model, path)
    variants = fuzz_variants(path.read_bytes(), random.Random(11), b"\t\n -0123456789ab<>/", 600)

    def load_and_use():
        fuzzed = load_model(path)
        fuzzed._validate()
        bpe_decode(fuzzed, bpe_encode(fuzzed, "abc cab zz"))
        return fuzzed

    loaded = 0
    for blob in variants:
        path.write_bytes(blob)
        loaded += loads_or_names_file(load_and_use, path, save_model)
    assert 0 < loaded < len(variants)


def test_model_validation_rejects_inconsistency():
    with pytest.raises(ModelFormatError):
        BpeModel(merges=[("q", "z")], vocab={bpe.PAD: 0, bpe.UNK: 1, bpe.BOS: 2, bpe.EOS: 3, bpe.WORD_END: 4}, vocab_size=10)
