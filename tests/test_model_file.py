"""The shared text model-file reader and the loaders built on it, the
candidate dump, which is read only as written too, the non-finite value
check of every model loader, and the staging of every model saver."""

import builtins
import random
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtkit import bpe, candidates, corpus, domain, models
from mtkit.errors import InputFormatError, ModelFormatError, naming, read_model, write_lines

from conftest import (FullDisk, fuzz_variants, loads_or_names_file, ngram_container,
                      table_container)


def _save_ngram(path):
    models.save_ngram_scorer(models.ngram_train([[0, 1, 2], [1, 2, 0, 1]], 2), path)


def _save_langid(path):
    data = [("hello there", "en"), ("good day", "en"), ("privet mir", "ru"), ("dobryi den", "ru")]
    corpus.save_langid(corpus.langid_train(data, n_features=16, epochs=5), path)


def _save_domcls(path):
    clf = domain.domain_train(["cell gene", "gene dose"], ["vote game", "game day"], epochs=5)
    domain.save_classifier(clf, path)


# name -> (a saver of one model to a path, the loader, the model saver that a
# text model's re-save goes through, or None for the container)
_FORMATS = {
    "ngram": (_save_ngram, models.load_scorer, None),
    "langid": (_save_langid, corpus.load_langid, corpus.save_langid),
    "domcls": (_save_domcls, domain.load_classifier, domain.save_classifier),
}


@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_load_fuzzed_model_files(tmp_path, name):
    """Truncated or garbled files load or raise ModelFormatError, which
    starts with the path and names it once; a text model that loads saves
    back to the bytes of its file."""
    save, load, resave = _FORMATS[name]
    path = tmp_path / name
    save(path)
    variants = fuzz_variants(path.read_bytes(), random.Random(zlib.crc32(name.encode())),
                             b"\t\n -,.|()[0123456789e", 400)
    loaded = 0
    for blob in variants:
        path.write_bytes(blob)
        loaded += loads_or_names_file(lambda: load(path), path, resave)
    assert 0 < loaded < len(variants)


_GOOD = (("counts.1", [1], [2]), ("grams.1", [1, 1], [1]))


def _edit(old, new):
    return lambda header: header.replace(old, new)


@pytest.mark.parametrize("blob, where", [
    pytest.param(ngram_container(*_GOOD, edit=_edit('"floor": 0.01',
                                                    '"floor": 0.01, "floor": 0.02')),
                 "header repeats the key 'floor'", id="floor repeated"),
    pytest.param(ngram_container(*_GOOD, edit=_edit('"weights": [0.5, 0.5]',
                                                    '"weights": [0.5, 0.5], "weights": [1.0, 0.0]')),
                 "header repeats the key 'weights'", id="weights repeated"),
    pytest.param(ngram_container(*_GOOD, ("grams.1", [1, 1], [2])),
                 "duplicate tensor 'grams.1'", id="grams repeated"),
    pytest.param(ngram_container(*_GOOD, ("counts.1", [1], [5])),
                 "duplicate tensor 'counts.1'", id="counts repeated"),
    pytest.param(ngram_container(("counts.1", [2], [1, 5]), ("grams.1", [2, 1], [0, 0])),
                 "tensor 'grams.1': 1-gram 2 (0) repeats the one before it",
                 id="gram listed twice"),
    pytest.param(ngram_container(("counts.0", [2], [1, 5]), ("grams.0", [2, 0], [])),
                 "tensor 'counts.0': gram length 0 outside [1, 2]",
                 id="empty gram listed twice"),
    pytest.param(ngram_container(("counts.2", [3], [1, 1, 1]),
                                 ("grams.2", [3, 2], [0, 1, 1, 2, 0, 1])),
                 "tensor 'grams.2': 2-gram 3 (0 1) sorts before the one before it",
                 id="2-gram listed twice"),
    pytest.param(ngram_container(("counts.1", [2], [1, 1]), ("grams.1", [2, 1], [2, 0])),
                 "tensor 'grams.1': 1-gram 2 (0) sorts before the one before it",
                 id="grams out of order"),
    pytest.param(ngram_container(("counts.2", [2], [1, 1]), ("grams.2", [2, 2], [0, 2, 0, 1])),
                 "tensor 'grams.2': 2-gram 2 (0 1) sorts before the one before it",
                 id="2-grams out of order"),
    pytest.param(ngram_container(*_GOOD, ("grams.2", [1, 2], [0, 1])),
                 "tensor 'grams.2' has no 'counts.2' tensor", id="grams without counts"),
    pytest.param(ngram_container(("counts.2", [1], [1]), *_GOOD),
                 "tensor 'counts.2' has no 'grams.2' tensor", id="counts without grams"),
    pytest.param(ngram_container(("counts.2", [1], [1]), ("grams.2", [1, 3], [0, 1, 2])),
                 "tensor 'grams.2' of shape [1, 3] for tensor 'counts.2' of shape [1], "
                 "not [n, 2] for [n]", id="ids not k per count"),
    pytest.param(ngram_container(("counts.1", [1], [1]), ("grams.1", [2, 1], [0, 1])),
                 "tensor 'grams.1' of shape [2, 1] for tensor 'counts.1' of shape [1], "
                 "not [n, 1] for [n]", id="fewer counts than grams"),
    pytest.param(ngram_container(("counts.1", [2, 1], [1, 1]), ("grams.1", [2, 1], [0, 1])),
                 "tensor 'grams.1' of shape [2, 1] for tensor 'counts.1' of shape [2, 1], "
                 "not [n, 1] for [n]", id="counts not one per gram"),
    pytest.param(ngram_container(("counts.1", [2], [1, -1]), ("grams.1", [2, 1], [0, 1])),
                 "tensor 'counts.1': negative count", id="negative count"),
    pytest.param(ngram_container(("grams.-1", [1, 0], []), ("counts.-1", [1], [1])),
                 "tensor 'grams.-1': gram length -1 outside [1, 2]", id="negative gram length"),
    pytest.param(ngram_container(("counts.3", [1], [1]), ("grams.3", [1, 3], [0, 1, 2])),
                 "tensor 'counts.3': gram length 3 outside [1, 2]", id="gram length above order"),
    pytest.param(ngram_container(*_GOOD, ("grams.5", [1, 5], [0, 1, 2, 3, 0]),
                                 ("counts.5", [1], [7]), order=1, weights=[1.0]),
                 "tensor 'grams.5': gram length 5 outside [1, 1]", id="gram length above order 1"),
    pytest.param(ngram_container(*_GOOD, ("count.0", [1], [1])),
                 "unknown tensor 'count.0'", id="ngram-v1 count line"),
    pytest.param(ngram_container(*_GOOD, ("grams.01", [1, 1], [0])),
                 "unknown tensor 'grams.01'", id="gram length not in canonical form"),
    pytest.param(ngram_container(*_GOOD, ("grams.None", [1, 1], [0])),
                 "unknown tensor 'grams.None'", id="gram length not a number"),
    pytest.param(ngram_container(("counts.1", [1], [2]), ("grams.1", [1, 1], [1.0], "f64")),
                 "tensor 'grams.1': dtype f64, not i64", id="grams not i64"),
    pytest.param(ngram_container(*_GOOD)[:-1], "truncated payload for 'grams.1'",
                 id="short payload"),
    pytest.param(ngram_container(*_GOOD, floor=[0.01, 0.02]),
                 "metadata needs int order, vocab_size and eos_id, a number floor and a list of "
                 "number weights", id="two floor values"),
    pytest.param(ngram_container(*_GOOD, order=2.0),
                 "metadata needs int order, vocab_size and eos_id, a number floor and a list of "
                 "number weights", id="order not int"),
    pytest.param(ngram_container(*_GOOD, vocab_size=10 ** 400),
                 "int too large to convert to float", id="vocab size past the float range"),
])
def test_malformed_ngram_file_names_the_line(tmp_path, blob, where):
    """Each defect raises ModelFormatError naming the file and the tensor or
    header key at fault, the container's counterpart of the line that the
    earlier text layout named; none loads with one of two values silently
    winning."""
    path = tmp_path / "lm.ngram"
    path.write_bytes(ngram_container(*_GOOD))
    models.load_scorer(path)
    path.write_bytes(blob)
    with pytest.raises(ModelFormatError) as err:
        models.load_scorer(path)
    assert str(err.value) == f"{path}: {where}"


_LANGID = "langid-v1 2\nlangs en ru\nbias 0.0 0.0\nw 0 0.25 -0.25\nw 1 0.5 -0.5\n"


@pytest.mark.parametrize("extra, first, expected", [
    pytest.param("langs en ru\n", 2, "could not convert string to float: 'en'", id="langs"),
    pytest.param("bias 1.0 1.0\n", 3, "expected 'w 0 1.0 1.0\\n', got 'bias 1.0 1.0\\n'",
                 id="bias"),
    pytest.param("w 0 0.0 0.0\n", 4, "expected 'w 1 0.0 0.0\\n', got 'w 0 0.0 0.0\\n'",
                 id="weight row"),
])
def test_repeated_langid_line_names_both_lines(tmp_path, extra, first, expected):
    """A repeated line is an error, not a line that silently wins: the
    line after line `first` is read as the next line of the layout, and the
    error names it."""
    lines = _LANGID.splitlines(keepends=True)
    lines.insert(first, extra)
    path = tmp_path / "lid.model"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        corpus.load_langid(path)
    assert str(err.value) == f"{path}: line {first + 1}: {expected}"


@pytest.mark.parametrize("text, where", [
    # a file of one row is written with the header `langid-v1 1`
    pytest.param(_LANGID.replace("w 0 0.25 -0.25\n", ""),
                 "line 1: expected 'langid-v1 1\\n', got 'langid-v1 2\\n'", id="first row missing"),
    pytest.param(_LANGID.replace("w 1 0.5 -0.5\n", ""),
                 "line 1: expected 'langid-v1 1\\n', got 'langid-v1 2\\n'", id="last row missing"),
    pytest.param(_LANGID.replace("w 0 0.25 -0.25\nw 1 0.5 -0.5", "w 1 0.5 -0.5\nw 0 0.25 -0.25"),
                 "line 4: expected 'w 0 0.5 -0.5\\n', got 'w 1 0.5 -0.5\\n'", id="rows out of order"),
    pytest.param(_LANGID.replace("\nw 1", "\n\nw 1"), "line 5: could not convert string to float: ''",
                 id="blank line between rows"),
    pytest.param(_LANGID.replace("\nbias", "\n\nbias"), "line 3: could not convert string to float: ''",
                 id="blank line before bias"),
    pytest.param(_LANGID + "\n", "line 6: expected the end of the file", id="blank last line"),
    pytest.param(_LANGID + "w 2 1.0 1.0\n", "line 6: expected the end of the file",
                 id="row past n_features"),
    pytest.param("langid-v1 2\n", "line 1: expected 'langid-v1 0\\n', got 'langid-v1 2\\n'",
                 id="header only"),
    # with no language read from line 2, all of line 3 is read as weights
    pytest.param(_LANGID.replace("langs", "\nlangs"),
                 "line 3: could not convert string to float: 'langs'", id="blank line before langs"),
    pytest.param(_LANGID.replace("w 1 0.5 -0.5", "w 1 0.5"),
                 "line 5: expected 'w 1 1.0 0.5\\n', got 'w 1 0.5\\n'", id="short row"),
    pytest.param(_LANGID.replace("w 1 0.5 -0.5", "w 1 0.5 -0.5 0.0"),
                 "line 5: expected 'w 1 -0.5 0.0\\n', got 'w 1 0.5 -0.5 0.0\\n'", id="long row"),
    pytest.param(_LANGID.replace("w 1 0.5", "w  1 0.5"),
                 "line 5: expected 'w 1 0.5 -0.5\\n', got 'w  1 0.5 -0.5\\n'", id="two spaces"),
    pytest.param(_LANGID.replace("bias 0.0 0.0", "bias 0.0"),
                 "line 3: could not convert string to float: 'bias'", id="short bias"),
])
def test_langid_file_is_read_in_its_written_layout(tmp_path, text, where):
    """save_langid writes langs, bias and every row in order; any other
    layout is refused, naming the first line that departs from what
    save_langid writes for the values read."""
    path = tmp_path / "lid.model"
    path.write_text(_LANGID, encoding="utf-8")
    corpus.load_langid(path)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        corpus.load_langid(path)
    assert str(err.value) == f"{path}: {where}"


def test_langid_load_memory_follows_the_file(tmp_path):
    # the header's 2**24 features would be a 256 MB weight matrix; the file
    # holds one row, so the load reads 57 bytes and fails at the header,
    # which save_langid writes as `langid-v1 1` for one row
    path = tmp_path / "lid.model"
    path.write_text("langid-v1 16777216\nlangs en ru\nbias 0.0 0.0\nw 1 0.5 -0.5\n",
                    encoding="utf-8")
    assert path.stat().st_size == 57
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError) as err:
            corpus.load_langid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == \
        f"{path}: line 1: expected 'langid-v1 1\\n', got 'langid-v1 16777216\\n'"
    assert peak < 1 << 20


def test_langid_file_roundtrip_is_byte_exact(tmp_path):
    """Save, load and save give the same bytes, and the loaded model the
    same bits; every row is written, an all-zero one included."""
    hand = corpus.LangIdModel(["en", "ru"], [[0.0, 0.0], [0.5, -0.5], [-0.0, 5e-324]], [0.1, -0.1])
    trained = tmp_path / "trained.model"
    _save_langid(trained)
    for model in (hand, corpus.load_langid(trained)):
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        corpus.save_langid(model, first)
        loaded = corpus.load_langid(first)
        corpus.save_langid(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_text(encoding="utf-8").splitlines()) == 3 + model.n_features
        assert (loaded.langs, loaded.n_features) == (model.langs, model.n_features)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.bias.tobytes() == model.bias.tobytes()


_BPE = ("bpe-v1 10\n<pad>\t0\n<unk>\t1\n<bos>\t2\n<eos>\t3\n</w>\t4\na\t5\nb\t6\nab\t7\n"
        "ab</w>\t8\n\na b\nab </w>\n")


@pytest.mark.parametrize("text, where", [
    pytest.param(_BPE + "ab </w>\n", "merge ('ab','</w>') at rank 1 is repeated at rank 2",
                 id="last merge"),
    pytest.param(_BPE + "a b\n", "merge ('a','b') at rank 0 is repeated at rank 2",
                 id="earlier merge"),
    pytest.param(_BPE.replace("b\t6\n", "b\t6\na\t9\n"), "line 9: repeats line 7", id="token"),
])
def test_repeated_bpe_line_names_both_lines(tmp_path, text, where):
    """A repeated merge would silently move that pair's rank, which changes
    the encoding; the model refuses it, naming both ranks (line = rank +
    len(vocab) + 3). A repeated token names both lines."""
    path = tmp_path / "m.bpe"
    path.write_text(_BPE, encoding="utf-8")
    assert bpe.load_model(path).merges == [("a", "b"), ("ab", "</w>")]
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        bpe.load_model(path)
    assert str(err.value) == f"{path}: {where}"


@pytest.mark.parametrize("text, where", [
    pytest.param(_BPE.replace("a\t5\nb\t6", "b\t6\na\t5"),
                 "line 7: expected 'a\\t5\\n', got 'b\\t6\\n'", id="ids out of order"),
    pytest.param(_BPE.replace("b\t6", "b\t9"), "line 8: expected 'ab\\t7\\n', got 'b\\t9\\n'",
                 id="id skipped"),
    pytest.param(_BPE.replace("b\t6", "b\t06"), "line 8: expected 'b\\t6\\n', got 'b\\t06\\n'",
                 id="id not in canonical form"),
    pytest.param(_BPE.replace("b\t6", "b\t6\t6"),
                 "line 8: invalid literal for int() with base 10: '6\\t6'", id="two tabs"),
    pytest.param(_BPE.replace("b\t6", "b"), "line 8: invalid literal for int() with base 10: ''",
                 id="no id"),
    pytest.param(_BPE.split("\n\n")[0] + "\n", "line 11: expected '\\n', got the end of the file",
                 id="no blank line"),
    pytest.param("bpe-v1 10\n", "line 2: expected '\\n', got the end of the file",
                 id="header only"),
])
def test_bpe_file_is_read_in_its_written_layout(tmp_path, text, where):
    """save_model writes vocab line i as token<TAB>i, then a blank line;
    any other vocab section is refused, naming the first line that departs
    from what save_model writes for the values read."""
    path = tmp_path / "m.bpe"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        bpe.load_model(path)
    assert str(err.value) == f"{path}: {where}"


@pytest.mark.parametrize("extra, first", [
    pytest.param("foo\t-3.0\n", 2, id="token"),
    pytest.param("__bias__\t2.0\n", 3, id="bias"),
])
def test_repeated_domcls_line_names_both_lines(tmp_path, extra, first):
    path = tmp_path / "clf.model"
    path.write_text("domcls-v1 en\nfoo\t0.5\n__bias__\t0.0\n" + extra, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        domain.load_classifier(path)
    assert str(err.value) == f"{path}: line 4: repeats line {first}"


@pytest.mark.parametrize("text, where", [
    pytest.param("domcls-v1 en\nfoo\t0.5\n",
                 "line 3: expected '__bias__\\tNone\\n', got the end of the file", id="no bias line"),
    pytest.param("domcls-v1 en\n", "line 2: expected '__bias__\\tNone\\n', got the end of the file",
                 id="header only"),
    pytest.param("domcls-v1 e n\n__bias__\t0.0\n",
                 "language code 'e n' is empty or holds whitespace", id="code holds a space"),
    pytest.param("domcls-v1 en \n__bias__\t0.0\n",
                 "language code 'en ' is empty or holds whitespace",
                 id="code with a trailing space"),
    pytest.param("domcls-v1 \n__bias__\t0.0\n", "language code '' is empty or holds whitespace",
                 id="empty code"),
])
def test_domcls_file_is_read_in_its_written_layout(tmp_path, text, where):
    """save_classifier always writes the bias line and a one-word code."""
    path = tmp_path / "clf.model"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        domain.load_classifier(path)
    assert str(err.value) == f"{path}: {where}"


# Round trips: every model a constructor accepts saves to a file that loads
# back as the same model and saves to the same bytes; whatever a file cannot
# hold is refused by the constructor, before any file is written.

_ROUNDTRIP = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# the characters of words, then the whitespace that can separate them
_WORD_CHARS = "ab\u00e9_<>/"
_WORD = st.text(_WORD_CHARS, min_size=1, max_size=6)
_TEXT = st.text(_WORD_CHARS + "\t \n\r\x0b\x1c\u2028", max_size=8)
# a code or symbol no model file can hold: empty, or holding whitespace
_BAD = _TEXT.filter(lambda text: text.split() != [text])


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _resave(tmp_path_factory, save, load, model):
    """Save `model`, load it and save the loaded model; check that both
    files hold the same bytes and return the loaded model."""
    first, second = (tmp_path_factory.mktemp("roundtrip") / name for name in ("first", "second"))
    save(model, first)
    loaded = load(first)
    save(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    return loaded


@_ROUNDTRIP
@given(codes=st.lists(_WORD, min_size=2, max_size=3, unique=True), bad=_BAD)
@example(codes=["en", "ru"], bad="en gb")
@example(codes=["en", "ru"], bad="")
def test_langid_codes_roundtrip_or_are_refused(tmp_path_factory, codes, bad):
    weights = [[0.5 * i for i in range(len(codes))], [-0.0, 5e-324, 1e308][:len(codes)]]
    bias = [0.25] * len(codes)
    model = corpus.LangIdModel(codes, weights, bias)
    loaded = _resave(tmp_path_factory, corpus.save_langid, corpus.load_langid, model)
    assert loaded.langs == codes
    assert loaded.weights.tobytes() == model.weights.tobytes()
    with pytest.raises(ModelFormatError, match="is empty or holds whitespace"):
        corpus.LangIdModel([*codes[:-1], bad], weights, bias)


@st.composite
def _hand_bpe(draw):
    """A vocab of the specials and drawn symbols under shuffled ids, and
    merges of known symbols whose concatenation the vocab holds."""
    tokens = [*bpe.SPECIALS, *draw(st.lists(_WORD.filter(lambda t: t not in bpe.SPECIALS),
                                            max_size=6, unique=True))]
    known = tokens[bpe.SPECIALS.index(bpe.WORD_END):]
    pairs = st.tuples(st.sampled_from(known), st.sampled_from(known))
    merges = draw(st.lists(pairs, max_size=5, unique=True))
    tokens = list(dict.fromkeys(tokens + [left + right for left, right in merges]))
    vocab = dict(zip(tokens, draw(st.permutations(range(len(tokens))))))
    return merges, vocab, len(vocab) + draw(st.integers(0, 3))


@_ROUNDTRIP
@given(model=_hand_bpe(), bad=_BAD)
@example(model=([("a", "b")], {**dict(zip(bpe.SPECIALS, range(5))), "a": 5, "b": 6, "ab": 7}, 8),
         bad="a b")
def test_hand_built_bpe_roundtrips_or_is_refused(tmp_path_factory, model, bad):
    merges, vocab, vocab_size = model
    model = bpe.BpeModel(merges, vocab, vocab_size)
    loaded = _resave(tmp_path_factory, bpe.save_model, bpe.load_model, model)
    assert (loaded.merges, loaded.vocab, loaded.vocab_size) == (merges, vocab, vocab_size)
    # what a bpe-v1 file cannot hold: a symbol that is not one word, a
    # repeated merge, ids other than 0 .. len(vocab) - 1
    with pytest.raises(ModelFormatError, match="is empty or holds whitespace"):
        bpe.BpeModel(merges, {**vocab, bad: len(vocab)}, vocab_size + 1)
    if merges:
        with pytest.raises(ModelFormatError, match="is repeated at rank"):
            bpe.BpeModel(merges + merges[:1], vocab, vocab_size)
    with pytest.raises(ModelFormatError, match="vocab ids are not"):
        bpe.BpeModel(merges, {tok: i + 1 for tok, i in vocab.items()}, vocab_size + 1)


@_ROUNDTRIP
@given(lines=st.lists(_TEXT, min_size=1, max_size=6).filter(lambda lines: "".join(lines).split()),
       extra=st.integers(1, 20))
def test_trained_bpe_roundtrips(tmp_path_factory, lines, extra):
    chars = {ch for line in lines for ch in "".join(line.split())}
    model = bpe.bpe_train(lines, len(bpe.SPECIALS) + len(chars) + extra)
    loaded = _resave(tmp_path_factory, bpe.save_model, bpe.load_model, model)
    assert (loaded.merges, loaded.vocab) == (model.merges, model.vocab)
    assert loaded.vocab_size == model.vocab_size


# tokens that sort just before, at and after the bias line's token
_NEAR_BIAS = ["__bias", "__bias_", "__bias__x", "__biat", "_", "`", "a"]
_WEIGHT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310])


@_ROUNDTRIP
@given(lang=_WORD, weights=st.dictionaries(_WORD | st.sampled_from(_NEAR_BIAS), _WEIGHT,
                                           max_size=6),
       bias=_WEIGHT, bad=_BAD)
@example(lang="en", weights={"x": 0.5}, bias=0.1, bad="e n")
@example(lang="en", weights={"x": 0.5}, bias=0.1, bad="")
def test_hand_built_domcls_roundtrips_or_is_refused(tmp_path_factory, lang, weights, bias, bad):
    model = domain.DomainClassifier(lang, weights, bias)
    loaded = _resave(tmp_path_factory, domain.save_classifier, domain.load_classifier, model)
    assert loaded.lang == lang and list(loaded.weights) == sorted(weights)
    assert _bits([*loaded.weights.values(), loaded.bias]) == \
        _bits([*(weights[tok] for tok in sorted(weights)), bias])
    for refused in [(bad, weights), (lang, {**weights, bad: 1.0}),
                    (lang, {**weights, "__bias__": 1.0})]:
        with pytest.raises(ModelFormatError):
            domain.DomainClassifier(*refused, bias)


@_ROUNDTRIP
@given(lines=st.lists(_TEXT, min_size=2, max_size=8), seed=st.integers(0, 3))
def test_trained_domcls_roundtrips(tmp_path_factory, lines, seed):
    half = len(lines) // 2
    model = domain.domain_train(lines[:half], lines[half:], seed=seed, epochs=3)
    loaded = _resave(tmp_path_factory, domain.save_classifier, domain.load_classifier, model)
    assert (loaded.lang, list(loaded.weights)) == (model.lang, list(model.weights))
    assert _bits([*loaded.weights.values(), loaded.bias]) == \
        _bits([*model.weights.values(), model.bias])


@pytest.mark.parametrize("load, text, where", [
    pytest.param(bpe.load_model, _BPE.replace("\nab </w>", "\n\nab </w>"),
                 "line 13: expected ' \\n', got '\\n'", id="bpe merges"),
    pytest.param(bpe.load_model, _BPE + "\n", "line 14: expected ' \\n', got '\\n'", id="bpe end"),
    pytest.param(domain.load_classifier, "domcls-v1 en\nfoo\t0.5\n\n__bias__\t0.0\n",
                 "line 3: could not convert string to float: ''", id="domcls"),
])
def test_blank_line_in_a_text_model_is_refused(tmp_path, load, text, where):
    """No saver writes a blank line among BPE merges or classifier weights,
    so the loaders refuse one there, naming it."""
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        load(path)
    assert str(err.value) == f"{path}: {where}"


# Each text file loads only as its writer writes it. Every bad file below
# loaded through an earlier, hand-written reader and saved back to other bytes.

_DOMCLS = "domcls-v1 en\nfoo\t0.5\n__bias__\t0.0\n"
_DUMP = "0\t0\t-1.0\t-\t-\t-\t3,4\n0\t1\t-15.0\t-0.5\t-\t-\t1\n1\t0\t-2.0\t-\t-\t-\t\n"


def _read_dump(path):
    """The dump at path, read as rerank and oracle-bleu read it."""
    with naming(path, InputFormatError), open(path, encoding="utf-8", newline="") as fh:
        return candidates.parse_candidates(fh)


def _save_dump(cands, path):
    write_lines(path, candidates.format_candidates(cands))


# format -> (loader, saver, the error a file at fault raises, the word before
# the line number in it, a file the saver writes)
_TEXT_FILES = {
    "bpe": (bpe.load_model, bpe.save_model, ModelFormatError, "line", _BPE),
    "langid": (corpus.load_langid, corpus.save_langid, ModelFormatError, "line", _LANGID),
    "domcls": (domain.load_classifier, domain.save_classifier, ModelFormatError, "line", _DOMCLS),
    "dump": (_read_dump, _save_dump, InputFormatError, "dump line", _DUMP),
}


def _lenient(fmt, old, new, line, name, good=None):
    """The case of `fmt`'s file `good` (its saved file by default) with old
    replaced by new, which departs from the writer first at `line`."""
    good = _TEXT_FILES[fmt][4] if good is None else good
    return pytest.param(fmt, good, good.replace(old, new, 1), line, id=f"{fmt} {name}")


@pytest.mark.parametrize("fmt, good, bad, line", [
    _lenient("bpe", "bpe-v1 10", "bpe-v1 1_0", 1, "header 1_0"),
    _lenient("bpe", "bpe-v1 10", "bpe-v1  10", 1, "header after two spaces"),
    _lenient("langid", "langid-v1 2", "langid-v1 +2", 1, "header +2"),
    _lenient("langid", "w 0 1.0", "w 0 1E0", 4, "weight 1E0",
             _LANGID.replace("w 0 0.25", "w 0 1.0")),
    _lenient("langid", "w 0 10.5", "w 0 1_0.5", 4, "weight 1_0.5",
             _LANGID.replace("w 0 0.25", "w 0 10.5")),
    _lenient("domcls", "foo\t1.0", "foo\t1E0", 2, "weight 1E0", _DOMCLS.replace("0.5", "1.0")),
    _lenient("domcls", "foo\t10.5", "foo\t1_0.5", 2, "weight 1_0.5",
             _DOMCLS.replace("0.5", "10.5")),
    _lenient("domcls", "foo\t0.5", "foo\t0.5 ", 2, "weight and a space"),
    _lenient("domcls", "bar\t1.0\nfoo\t0.5", "foo\t0.5\nbar\t1.0", 2, "tokens out of order",
             _DOMCLS.replace("foo", "bar\t1.0\nfoo")),
    _lenient("domcls", "zoo\t1.0\n__bias__\t0.0\n", "__bias__\t0.0\nzoo\t1.0\n", 3,
             "line after the bias line", _DOMCLS.replace("__bias__", "zoo\t1.0\n__bias__")),
    _lenient("dump", "-15.0", "-1_5.0", 2, "score -1_5.0"),
    _lenient("dump", "0\t0", "+0\t0", 1, "sentence +0"),
    _lenient("dump", "3,4", "03,+4", 1, "tokens 03,+4"),
    # a CRLF bpe-v1 file has no blank line, and int() cannot read line 11,
    # "\r"; a domcls-v1 header "domcls-v1 en\r" is written for the code "en\r"
    *(pytest.param(fmt, _TEXT_FILES[fmt][4], _TEXT_FILES[fmt][4].replace("\n", "\r\n"), line,
                   id=f"{fmt} CRLF lines")
      for fmt, line in [("bpe", 11), ("langid", 1), ("domcls", 2), ("dump", 1)]),
    *(pytest.param(fmt, text, text[:-1], text.count("\n"), id=f"{fmt} no final newline")
      for fmt, (*_, text) in sorted(_TEXT_FILES.items())),
])
def test_text_file_loads_only_as_written(tmp_path, fmt, good, bad, line):
    """A file its saver would not write, byte for byte, is refused, naming
    the path and a line: the first that departs from the writer, or one that
    int() or float() cannot read."""
    load, save, error, word, _ = _TEXT_FILES[fmt]
    path = tmp_path / fmt
    path.write_bytes(good.encode("utf-8"))
    assert loads_or_names_file(lambda: load(path), path, save, error)
    path.write_bytes(bad.encode("utf-8"))
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {word} {line}: ")


def test_load_fuzzed_dump(tmp_path):
    """Truncated or garbled dumps load as candidates that format back to the
    bytes of the file, or raise InputFormatError, which starts with the path
    and names it once."""
    path = tmp_path / "dump"
    path.write_text(_DUMP, encoding="utf-8")
    variants = fuzz_variants(path.read_bytes(), random.Random(7), b"\t\n\r -+_,.0123456789ef",
                             400)
    loaded = 0
    for blob in variants:
        path.write_bytes(blob)
        loaded += loads_or_names_file(lambda: _read_dump(path), path, _save_dump, InputFormatError)
    assert 0 < loaded < len(variants)


def test_ngram_v1_file_is_rejected(tmp_path):
    # and an ngram-v2 text file: n-gram models are NMTC containers now
    path = tmp_path / "lm.ngram"
    for text in ("ngram-v1 1 3 2\nfloor 0.01\nweights 1.0\ncount 0 1\n",
                 "ngram-v2 1 3 2\nfloor 0.01\nweights 1.0\ngrams 1 0\ncounts 1 1\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            models.load_scorer(path)
        assert str(err.value) == f"{path}: bad magic b'ngra'"


# site -> (loader, file text with {x} at one numeric field or a function
# giving the file bytes for x, a valid value for it)
_NUMERIC_SITES = {
    "table default": (models.load_scorer,
                      lambda x: table_container(["a", "eos"], [float(x), 0.5]), "0.5"),
    "table context": (models.load_scorer,
                      lambda x: table_container(["a", "eos"], [0.5, 0.5], [((0,), ())],
                                                [[0.5, float(x)]]), "0.5"),
    "ngram floor": (models.load_scorer,
                    lambda x: ngram_container(("counts.1", [1], [1]), ("grams.1", [1, 1], [0]),
                                              order=1, vocab_size=3, eos_id=2, floor=float(x),
                                              weights=[1.0]), "0.01"),
    "ngram weights": (models.load_scorer,
                      lambda x: ngram_container(("counts.1", [1], [1]), ("grams.1", [1, 1], [0]),
                                                vocab_size=3, eos_id=2, weights=[1.0, float(x)]),
                      "0.5"),
    "langid bias": (corpus.load_langid, _LANGID.replace("bias 0.0 0.0", "bias 0.0 {x}"), "0.5"),
    "langid weight": (corpus.load_langid, _LANGID.replace("w 1 0.5", "w 1 {x}"), "0.5"),
    "domcls weight": (domain.load_classifier,
                      "domcls-v1 en\nfoo\t{x}\n__bias__\t0.5\n", "-0.5"),
    "domcls bias": (domain.load_classifier,
                    "domcls-v1 en\nfoo\t0.5\n__bias__\t{x}\n", "-0.5"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", sorted(_NUMERIC_SITES))
def test_non_finite_value_raises_model_format_error(tmp_path, site, value):
    load, text, valid = _NUMERIC_SITES[site]
    path = tmp_path / "model.txt"

    def write(x):
        path.write_bytes(text(x) if callable(text) else text.format(x=x).encode("utf-8"))

    write(valid)
    load(path)
    write(value)
    with pytest.raises(ModelFormatError):
        load(path)


def test_model_file_streams_lines(tmp_path):
    # the bad byte lies far past the first lines, so only a reader that
    # decodes the file as it goes hands those lines out before failing
    path = tmp_path / "m.txt"
    path.write_bytes(b"magic-v1 7\nfirst\n" + b"filler line\n" * 20000 + b"\xff\n")
    seen = []

    def parse(header, lines):
        seen.append(header)
        seen.extend(lines)

    with pytest.raises(ModelFormatError) as err:
        read_model(path, "magic-v1", parse, None, None)
    assert seen[:3] == ["7", (2, "first"), (3, "filler line")]
    assert str(err.value) == (f"{path}: line 20003: 'utf-8' codec can't decode byte 0xff "
                              "in position 0: invalid start byte")


def _average_saver(tmp_path):
    ckpt = tmp_path / "in.ckpt"
    models.save_checkpoint({"w": [1.0, 2.0]}, ckpt)
    return lambda path: models.average_checkpoint_files([ckpt], path)


# saver -> (tmp_path -> a function of the output path that saves one model);
# the input file that averaging reads is written before the disk fills
_SAVERS = {
    "ngram": lambda _: _save_ngram,
    "langid": lambda _: _save_langid,
    "domcls": lambda _: _save_domcls,
    "bpe": lambda _: lambda path: bpe.save_model(bpe.bpe_train(["a b ab abc"], 16), path),
    "table": lambda _: lambda path: models.save_table_scorer(
        models.TableScorer(["a", "eos"], {((0,), ()): [0.25, 0.75]}, [0.5, 0.5]), path),
    "checkpoint": lambda _: lambda path: models.save_checkpoint({"w": [1.0, 2.0]}, path),
    "average": _average_saver,
}


@pytest.mark.parametrize("earlier", [None, b"earlier bytes"])
@pytest.mark.parametrize("name", sorted(_SAVERS))
def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch, name, earlier):
    """A save that fails after writing part of its file leaves neither that
    file nor a temporary one behind, and an existing file as it was."""
    save = _SAVERS[name](tmp_path)
    out = tmp_path / "out.model"
    save(out)  # the save works on a disk with room
    if earlier is None:
        out.unlink()
    else:
        out.write_bytes(earlier)
    before = sorted(p.name for p in tmp_path.iterdir())
    real_open = builtins.open

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FullDisk(fh, 2) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", open_on_full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        save(out)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (out.read_bytes() if out.exists() else None) == earlier
