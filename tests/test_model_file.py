"""The shared text model-file reader and the loaders built on it, the
non-finite value check of every model loader, and the staging of every
model saver."""

import builtins
import random
import zlib

import pytest

from mtkit import bpe, corpus, domain, models, textnorm
from mtkit.errors import ModelFormatError, model_file

from conftest import (FullDisk, default_rules_text, fuzz_variants, loads_or_names_file,
                      ngram_container, table_container)


def _save_ngram(path):
    models.save_ngram_scorer(models.ngram_train([[0, 1, 2], [1, 2, 0, 1]], 2), path)


def _save_langid(path):
    data = [("hello there", "en"), ("good day", "en"), ("privet mir", "ru"), ("dobryi den", "ru")]
    corpus.save_langid(corpus.langid_train(data, n_features=16, epochs=5), path)


def _save_domcls(path):
    clf = domain.domain_train(["cell gene", "gene dose"], ["vote game", "game day"], epochs=5)
    domain.save_classifier(clf, path)


def _save_rules(path):
    path.write_text(default_rules_text(), encoding="utf-8")


_FORMATS = {
    "ngram": (_save_ngram, models.load_scorer),
    "langid": (_save_langid, corpus.load_langid),
    "domcls": (_save_domcls, domain.load_classifier),
    "normrules": (_save_rules, textnorm.load_rules),
}


@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_load_fuzzed_model_files(tmp_path, name):
    """Truncated or garbled files load or raise ModelFormatError, which
    starts with the path and names it once."""
    save, load = _FORMATS[name]
    path = tmp_path / name
    save(path)
    variants = fuzz_variants(path.read_bytes(), random.Random(zlib.crc32(name.encode())),
                             b"\t\n -,.|()[0123456789e", 400)
    loaded = 0
    for blob in variants:
        path.write_bytes(blob)
        loaded += loads_or_names_file(lambda: load(path), path)
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


_LANGID = "langid-v1 4\nlangs en ru\nbias 0.0 0.0\nw 1 0.5 -0.5\n"


@pytest.mark.parametrize("extra, first", [
    pytest.param("langs en ru\n", 2, id="langs"),
    pytest.param("bias 1.0 1.0\n", 3, id="bias"),
    pytest.param("w 1 0.0 0.0\n", 4, id="weight row"),
])
def test_repeated_langid_line_names_both_lines(tmp_path, extra, first):
    """A repeated line is an error, not a line that silently wins."""
    path = tmp_path / "lid.model"
    path.write_text(_LANGID + extra, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        corpus.load_langid(path)
    assert str(err.value) == f"{path}: line 5: repeats line {first}"


_BPE = ("bpe-v1 10\n<pad>\t0\n<unk>\t1\n<bos>\t2\n<eos>\t3\n</w>\t4\na\t5\nb\t6\nab\t7\n"
        "ab</w>\t8\n\na b\nab </w>\n")


@pytest.mark.parametrize("text, line, first", [
    pytest.param(_BPE + "ab </w>\n", 14, 13, id="last merge"),
    pytest.param(_BPE + "a b\n", 14, 12, id="earlier merge"),
    pytest.param(_BPE.replace("b\t6\n", "b\t6\na\t9\n"), 9, 7, id="token"),
])
def test_repeated_bpe_line_names_both_lines(tmp_path, text, line, first):
    """A repeated merge would silently move that pair's rank, which changes
    the encoding."""
    path = tmp_path / "m.bpe"
    path.write_text(_BPE, encoding="utf-8")
    assert bpe.load_model(path).merges == [("a", "b"), ("ab", "</w>")]
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError) as err:
        bpe.load_model(path)
    assert str(err.value) == f"{path}: line {line}: repeats line {first}"


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
    "langid bias": (corpus.load_langid,
                    "langid-v1 4\nlangs en ru\nbias 0.0 {x}\nw 1 0.5 -0.5\n", "0.5"),
    "langid weight": (corpus.load_langid,
                      "langid-v1 4\nlangs en ru\nbias 0.0 0.0\nw 1 {x} -0.5\n", "0.5"),
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
    with pytest.raises(ModelFormatError, match="m.txt"):
        with model_file(path, "magic-v1") as (header, lines):
            seen.append(header)
            seen.extend(lines)
    assert seen[:3] == ["7", (2, "first"), (3, "filler line")]


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
