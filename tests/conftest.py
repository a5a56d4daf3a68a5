"""Shared fixtures: synthetic trilingual corpora, planted filter fixtures,
randomized table scorers, small trained models reused across suites, and
the model-file fuzzing and full-disk helpers.

Everything is seeded; fixtures are deterministic across runs and test order.
"""

from __future__ import annotations

import errno
import itertools
import json
import random
import struct

import numpy as np
import pytest

from mtkit import bpe, corpus, textnorm
from mtkit.errors import ModelFormatError
from mtkit.models import TableScorer

EN_WORDS = (
    "the time year people way water day thing child world life hand part "
    "place work week case point company number group fact home month lot "
    "right study book eye job word business issue side kind head house "
    "service friend father power hour game line end member law car city name"
).split()

DE_WORDS = (
    "zeit jahr mensch weg wasser tag kind welt leben hand teil ort arbeit "
    "woche fall punkt firma zahl gruppe haus straße grün über schön müde "
    "bär tür buch auge wort geschäft seite kopf dienst freund vater stunde "
    "spiel ende mitglied gesetz stadt gemeinde name können äpfel größe"
).split()

RU_WORDS = (
    "время год человек путь вода день вещь ребёнок мир жизнь рука часть "
    "место работа неделя случай точка компания число группа факт дом месяц "
    "право книга глаз слово дело сторона голова услуга друг отец сила час "
    "игра конец член закон город имя привет спасибо утро вечер погода"
).split()

WORDS_BY_LANG = {"en": EN_WORDS, "de": DE_WORDS, "ru": RU_WORDS}


def default_rules_text() -> str:
    """The default rewrite table of normalize_punct as a normrules-v1 file."""
    return "normrules-v1 moses-lite-1\n" + "".join(
        f"{pattern.pattern}\t{repl}\n" for pattern, repl in textnorm._DEFAULT_RULES)


def make_sentence(rng: random.Random, lang: str, n_words: int | None = None) -> str:
    """A canonical normalized sentence: single spaces, balanced quotes,
    punctuation attached the way the tokenizer re-attaches it."""
    words = WORDS_BY_LANG[lang]
    if n_words is None:
        n_words = rng.randint(3, 12)
    toks = [rng.choice(words) for _ in range(n_words)]
    if n_words >= 6 and rng.random() < 0.3:
        toks[rng.randint(1, n_words - 3)] += ","
    if n_words >= 5 and rng.random() < 0.2:
        i = rng.randint(0, n_words - 3)
        j = rng.randint(i + 1, min(i + 3, n_words - 1))
        toks[i] = '"' + toks[i]
        toks[j] = toks[j] + '"'
    end = rng.choice([".", ".", ".", "!", "?", "..."])
    return " ".join(toks) + end


@pytest.fixture(scope="session")
def trilingual_lines() -> list[str]:
    """10k canonical lines cycling en/de/ru."""
    rng = random.Random(20240911)
    langs = ("en", "de", "ru")
    return [make_sentence(rng, langs[i % 3]) for i in range(10_000)]


@pytest.fixture(scope="session")
def fixture_bpe(trilingual_lines) -> bpe.BpeModel:
    """BPE model trained on the tokenized trilingual fixture."""
    tokenized = [
        " ".join(textnorm.word_tokenize(line, lang=("en", "de", "ru")[i % 3]))
        for i, line in enumerate(trilingual_lines[:3000])
    ]
    return bpe.bpe_train(tokenized, vocab_size=400)


@pytest.fixture(scope="session")
def langid_corpus():
    """(train, heldout): 1000 + 300 labeled lines per language."""
    rng = random.Random(431)
    train, heldout = [], []
    for lang in ("en", "de", "ru"):
        for i in range(1300):
            line = make_sentence(rng, lang)
            (train if i < 1000 else heldout).append((line, lang))
    return train, heldout


@pytest.fixture(scope="session")
def langid_model(langid_corpus):
    train, _ = langid_corpus
    # the fit the langid tests were written against, longer than the default
    return corpus.langid_train(train, seed=0, epochs=400, lr=5.0)


# ---------------------------------------------------------------------------
# planted filter fixture

def _clean_pair(rng: random.Random) -> corpus.ParallelExample:
    len_s = rng.randint(5, 20)
    len_t = rng.randint(max(1, -(-len_s * 4 // 5)), len_s * 5 // 4)  # ratio <= 1.25
    source = " ".join(rng.choice(EN_WORDS) for _ in range(len_s))
    target = " ".join(rng.choice(DE_WORDS) for _ in range(len_t))
    score = None if rng.random() < 0.5 else round(rng.uniform(0.6, 1.0), 3)
    return corpus.ParallelExample(source, target, score)


@pytest.fixture(scope="session")
def planted_filter_fixture():
    """1000 pairs: 900 clean plus 25 violations each of langid_src, too_long,
    ratio, and score. Returns (pairs, expected report)."""
    rng = random.Random(77)
    tagged = []
    for _ in range(900):
        tagged.append((None, _clean_pair(rng)))
    for _ in range(25):
        bad = corpus.ParallelExample(
            " ".join(rng.choice(RU_WORDS) for _ in range(10)),
            " ".join(rng.choice(DE_WORDS) for _ in range(10)),
        )
        tagged.append(("langid_src", bad))
    for _ in range(25):
        n = rng.randint(251, 260)
        bad = corpus.ParallelExample(
            " ".join(rng.choice(EN_WORDS) for _ in range(n)),
            " ".join(rng.choice(DE_WORDS) for _ in range(n)),
        )
        tagged.append(("too_long", bad))
    for _ in range(25):
        bad = corpus.ParallelExample(
            " ".join(rng.choice(EN_WORDS) for _ in range(10)),
            " ".join(rng.choice(DE_WORDS) for _ in range(14)),
        )
        tagged.append(("ratio", bad))
    for _ in range(25):
        bad = corpus.ParallelExample(
            " ".join(rng.choice(EN_WORDS) for _ in range(8)),
            " ".join(rng.choice(DE_WORDS) for _ in range(8)),
            external_score=round(rng.uniform(0.1, 0.59), 3),
        )
        tagged.append(("score", bad))
    rng.shuffle(tagged)
    pairs = [p for _, p in tagged]
    expected = corpus.FilterReport(total=1000, kept=900)
    for rule, _ in tagged:
        if rule is not None:
            expected.rejected[rule] += 1
    return pairs, expected


# ---------------------------------------------------------------------------
# domain fixture

MED_EN = (
    "patient treatment clinical dose therapy symptom diagnosis trial vaccine "
    "protein cell tumor blood infection chronic acute kidney liver surgery "
    "antibody placebo lesion syndrome receptor biopsy"
).split()
NEWS_EN = (
    "government election market police minister parliament economy budget "
    "championship weather festival airport senator traffic cinema tourism "
    "strike referendum border inflation coalition stadium"
).split()
MED_RU = (
    "пациент лечение клинический доза терапия симптом диагноз вакцина белок "
    "клетка опухоль кровь инфекция хронический острый почка печень операция "
    "антитело плацебо синдром рецептор биопсия"
).split()
NEWS_RU = (
    "правительство выборы рынок полиция министр парламент экономика бюджет "
    "чемпионат фестиваль аэропорт сенатор трафик кино туризм забастовка "
    "референдум граница инфляция коалиция стадион"
).split()


def make_domain_line(rng: random.Random, markers: list[str], filler: list[str],
                     n_markers: int = 4, n_filler: int = 4) -> str:
    toks = [rng.choice(markers) for _ in range(n_markers)]
    toks += [rng.choice(filler) for _ in range(n_filler)]
    rng.shuffle(toks)
    return " ".join(toks)


@pytest.fixture(scope="session")
def domain_fixture():
    """(med_en, news_en, med_ru, news_ru): 1000 lines each, separable."""
    rng = random.Random(909)
    med_en = [make_domain_line(rng, MED_EN, EN_WORDS) for _ in range(1000)]
    news_en = [make_domain_line(rng, NEWS_EN, EN_WORDS) for _ in range(1000)]
    med_ru = [make_domain_line(rng, MED_RU, RU_WORDS) for _ in range(1000)]
    news_ru = [make_domain_line(rng, NEWS_RU, RU_WORDS) for _ in range(1000)]
    return med_en, news_en, med_ru, news_ru


# ---------------------------------------------------------------------------
# randomized table scorers

def enumerate_prefixes(vocab_n: int, eos_id: int, max_len: int):
    """All eos-free prefixes a decoder can reach within max_len steps."""
    non_eos = [t for t in range(vocab_n) if t != eos_id]
    for length in range(max_len):
        yield from itertools.product(non_eos, repeat=length)


def make_table_scorer(vocab_n: int, max_len: int, rng: random.Random,
                      source=(0, 1), zero_frac: float = 0.0) -> TableScorer:
    """Random full table over all reachable contexts of one source sentence.

    zero_frac > 0 plants exact zero probabilities to exercise the -inf paths.
    """
    vocab = [f"t{i}" for i in range(vocab_n - 1)] + ["eos"]
    eos_id = vocab_n - 1
    table = {}
    for prefix in enumerate_prefixes(vocab_n, eos_id, max_len):
        vec = np.array([rng.random() + 0.01 for _ in range(vocab_n)])
        if zero_frac > 0.0:
            for tok in range(vocab_n):
                if rng.random() < zero_frac:
                    vec[tok] = 0.0
            if vec.sum() == 0.0:
                vec[rng.randrange(vocab_n)] = 1.0
        vec = vec / vec.sum()
        table[(tuple(source), prefix)] = vec
    default = np.ones(vocab_n) / vocab_n
    return TableScorer(vocab, table, default)


def nmtc_bytes(header, payload=b"", version=1) -> bytes:
    """Raw NMTC bytes: magic, version, header length, header, payload."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return b"NMTC" + struct.pack("<IQ", version, len(header)) + header + payload


def table_container(vocab, default, contexts=(), rows=(), eos="eos",
                    default_dtype="f64") -> bytes:
    """NMTC bytes of a table scorer put together field by field, so a test
    can break any rule that save_table_scorer keeps: rows need not match
    contexts, and values may be non-finite or unnormalized."""
    default = np.array(default, dtype="<f8")
    rows = np.array(rows, dtype="<f8").reshape(len(rows), -1) if len(rows) else np.zeros((0, 0))
    metadata = {"vocab": list(vocab), "eos": eos,
                "contexts": [[list(ids) for ids in context] for context in contexts]}
    tensors = [
        {"name": "default", "shape": list(default.shape), "dtype": default_dtype, "offset": 0},
        {"name": "rows", "shape": list(rows.shape), "dtype": "f64", "offset": default.nbytes},
    ]
    return nmtc_bytes({"metadata": metadata, "tensors": tensors}, default.tobytes() + rows.tobytes())


def ngram_container(*tensors, order=2, vocab_size=4, eos_id=3, floor=0.01, weights=(0.5, 0.5),
                    edit=None) -> bytes:
    """NMTC bytes of an n-gram model put together field by field, so a test
    can break any rule that save_ngram_scorer keeps. Each tensor is
    (name, shape, values) or (name, shape, values, dtype); its values are
    packed as little-endian i64 (f64 for dtype f64) in the order given,
    whatever the shape and name say. edit, if given, rewrites the header's
    JSON text before it is written."""
    metadata = {"order": order, "vocab_size": vocab_size, "eos_id": eos_id,
                "floor": floor, "weights": list(weights)}
    entries, payload = [], b""
    for name, shape, values, *dtype in tensors:
        dtype = dtype[0] if dtype else "i64"
        entries.append({"name": name, "shape": list(shape), "dtype": dtype, "offset": len(payload)})
        payload += struct.pack(f"<{len(values)}{'d' if dtype == 'f64' else 'q'}", *values)
    header = json.dumps({"metadata": metadata, "tensors": entries})
    return nmtc_bytes((edit(header) if edit else header).encode("utf-8"), payload)


# ---------------------------------------------------------------------------
# model-file fuzzing and failing writes

def fuzz_variants(data: bytes, rng: random.Random, alphabet: bytes, garbles: int) -> list[bytes]:
    """Every proper prefix of data, then `garbles` copies of it with one to
    three bytes replaced, each by a byte of alphabet or a random byte."""
    variants = [data[:n] for n in range(len(data))]
    for _ in range(garbles):
        garbled = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            garbled[rng.randrange(len(garbled))] = rng.choice([*alphabet, rng.randrange(256)])
        variants.append(bytes(garbled))
    return variants


def loads_or_names_file(read, path) -> bool:
    """Whether read() returns; the ModelFormatError it may raise instead
    must start with path and name it once."""
    try:
        read()
    except ModelFormatError as exc:
        assert str(exc).startswith(f"{path}: ") and str(exc).count(str(path)) == 1, exc
        return False
    return True


class FullDisk:
    """A file opened for writing whose writes fail as on a full disk, from
    write number `fails_at` on."""

    def __init__(self, fh, fails_at: int):
        self._fh = fh
        self._fails_at = fails_at
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes >= self._fails_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def make_lm_scorer(vocab_n: int, max_len: int, rng: random.Random) -> TableScorer:
    """Unconditional variant: contexts keyed on the empty source."""
    return make_table_scorer(vocab_n, max_len, rng, source=())


@pytest.fixture(scope="session")
def random_decode_instances():
    """50 (fwd, lm, source, max_len) tuples for oracle-equivalence testing."""
    rng = random.Random(1234)
    instances = []
    for _ in range(50):
        vocab_n = rng.randint(2, 5)
        max_len = rng.randint(1, 4)
        source = (0,) if vocab_n == 2 else (0, 1)
        fwd = make_table_scorer(vocab_n, max_len, rng, source=source)
        lm = make_lm_scorer(vocab_n, max_len, rng)
        instances.append((fwd, lm, source, max_len))
    return instances
