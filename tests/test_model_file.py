"""The shared text model-file reader and the loaders built on it."""

import random
import zlib

import pytest

from mtkit import corpus, domain, models, textnorm
from mtkit.errors import ModelFormatError, model_file


def _save_table(path):
    models.save_table_scorer(models.TableScorer(
        ["a", "b", "eos"],
        {((0,), ()): [0.5, 0.25, 0.25], ((0,), (1,)): [0.125, 0.125, 0.75]},
        [0.25, 0.25, 0.5],
    ), path)


def _save_ngram(path):
    models.save_ngram_scorer(models.ngram_train([[0, 1, 2], [1, 2, 0, 1]], 2), path)


def _save_langid(path):
    data = [("hello there", "en"), ("good day", "en"), ("privet mir", "ru"), ("dobryi den", "ru")]
    corpus.save_langid(corpus.langid_train(data, n_features=16, epochs=5), path)


def _save_domcls(path):
    clf = domain.domain_train(["cell gene", "gene dose"], ["vote game", "game day"], epochs=5)
    domain.save_classifier(clf, path)


def _save_rules(path):
    textnorm.save_rules(textnorm.NormalizationRules.default(), path)


_FORMATS = {
    "tablescorer": (_save_table, models.load_table_scorer),
    "ngram": (_save_ngram, models.load_ngram_scorer),
    "langid": (_save_langid, corpus.load_langid),
    "domcls": (_save_domcls, domain.load_classifier),
    "normrules": (_save_rules, textnorm.load_rules),
}


@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_load_fuzzed_model_files(tmp_path, name):
    """Truncated or garbled files load or raise ModelFormatError."""
    save, load = _FORMATS[name]
    path = tmp_path / name
    save(path)
    data = path.read_bytes()
    rng = random.Random(zlib.crc32(name.encode()))
    variants = [data[:n] for n in range(len(data))]
    for _ in range(400):
        garbled = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            garbled[rng.randrange(len(garbled))] = rng.choice(
                [*b"\t\n -,.|()[0123456789e", rng.randrange(256)]
            )
        variants.append(bytes(garbled))
    loaded = 0
    for blob in variants:
        path.write_bytes(blob)
        try:
            load(path)
        except ModelFormatError:
            continue
        loaded += 1
    assert 0 < loaded < len(variants)


# site -> (loader, file text with {x} at one numeric field, a valid value for it)
_NUMERIC_SITES = {
    "table default": (models.load_table_scorer,
                      "tablescorer-v1\nvocab a eos\neos eos\ndefault {x} 0.5\n", "0.5"),
    "table context": (models.load_table_scorer,
                      "tablescorer-v1\nvocab a eos\neos eos\ndefault 0.5 0.5\n"
                      "ctx 0|- 0.5 {x}\n", "0.5"),
    "ngram floor": (models.load_ngram_scorer,
                    "ngram-v1 1 3 2\nfloor {x}\nweights 1.0\ncount 0 1\n", "0.01"),
    "ngram weights": (models.load_ngram_scorer,
                      "ngram-v1 2 3 2\nfloor 0.01\nweights 1.0 {x}\ncount 0 1\n", "0.5"),
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
    path.write_text(text.format(x=valid), encoding="utf-8")
    load(path)
    path.write_text(text.format(x=value), encoding="utf-8")
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
