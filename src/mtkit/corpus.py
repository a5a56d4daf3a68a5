"""Parallel-corpus ingestion, filter cascade, target reversal, corpus mixing.

The filter cascade applies rules in a fixed order (language id on each
side, minimum length, maximum length, length ratio, cleanliness score) and
attributes each rejection to the first rule that fired, so reports are
reproducible and mergeable across chunks of a stream. A report is a named
tuple built once from the call's counts; merging two builds a third.

Language id hashes character 2..4-grams by block, one vectorized CRC-32
pass per block of texts. A block holds at most 64 texts and 1 MB of feature
rows (one row, if a row alone is larger), so its memory follows its texts'
length, not the input's; rows and verdicts equal those of hashing one gram
at a time. A model file holds every weight row, so loading it takes memory
in proportion to the file, not to the feature count its header states.

Only the language-id code uses numpy, and it imports numpy where it needs
it, so the stages that read and write pairs start without loading it.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (ConfigError, EmptyInputError, InputFormatError, ModelFormatError,
                     check_lang_code, check_seed, check_training, read_model,
                     write_lines)

if TYPE_CHECKING:
    import numpy as np


class Provenance(Enum):
    """The corpus tags that `mtkit mix --part` accepts."""

    BITEXT = "bitext"
    BACKTRANSLATED = "backtranslated"
    R2L_DISTILLED = "r2l_distilled"
    BIOMED = "biomed"
    NEWS = "news"


# external_score is None when the pair has none
ParallelExample = namedtuple("ParallelExample", "source target external_score", defaults=(None,))


RULE_ORDER = ("langid_src", "langid_tgt", "too_short", "too_long", "ratio", "score")


class FilterConfig(namedtuple("FilterConfig", "max_len_tokens max_len_ratio min_external_score "
                              "required_langs min_len_tokens", defaults=(250, 1.3, 0.6, None, 1))):
    """Bounds of the filter cascade, checked whenever a config is built,
    _replace included; required_langs is None or a (source, target) pair of
    language codes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.max_len_ratio >= 1:
            raise ConfigError("max_len_ratio must be >= 1")
        if not 0 <= self.min_external_score <= 1:
            raise ConfigError("min_external_score must lie in [0, 1]")
        if self.required_langs is not None and len(self.required_langs) != 2:
            raise ConfigError(f"required_langs needs two codes, got {self.required_langs}")
        if not 0 <= self.min_len_tokens <= self.max_len_tokens:
            raise ConfigError(
                f"min_len_tokens {self.min_len_tokens} and max_len_tokens "
                f"{self.max_len_tokens} must satisfy 0 <= min <= max")
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so derived configs are checked
        return cls(*fields)


class FilterReport(namedtuple("FilterReport", "total kept rejected malformed")):
    """The filter funnel: pairs seen, kept, rejected per rule of RULE_ORDER
    and malformed lines skipped. `rejected` defaults to a fresh all-zero
    count per rule; a report is built with its counts, never updated."""

    __slots__ = ()

    def __new__(cls, total: int = 0, kept: int = 0, rejected: dict[str, int] | None = None,
                malformed: int = 0):
        if rejected is None:
            rejected = dict.fromkeys(RULE_ORDER, 0)
        return super().__new__(cls, total, kept, rejected, malformed)

    def merge(self, other: "FilterReport") -> "FilterReport":
        return FilterReport(self.total + other.total, self.kept + other.kept,
                            {r: self.rejected[r] + other.rejected[r] for r in RULE_ORDER},
                            self.malformed + other.malformed)

    def to_lines(self) -> list[str]:
        lines = [f"total\t{self.total}", f"kept\t{self.kept}"]
        lines += [f"rejected.{rule}\t{self.rejected[rule]}" for rule in RULE_ORDER]
        lines.append(f"malformed\t{self.malformed}")
        return lines


# ---------------------------------------------------------------------------
# language identification (hashed char n-gram logistic classifier)

_NGRAM_RANGE = (2, 4)
# A block is at most _BLOCK_ROWS texts whose feature rows hold at most
# _BLOCK_CELLS float64 values (1 MB), unless a single row is larger. Besides
# the rows, its temporaries take a fixed number of bytes per character.
_BLOCK_ROWS = 64
_BLOCK_CELLS = 1 << 17


def _check_n_features(n_features: int, error) -> None:
    """Raise `error` unless 1 <= n_features <= 2**32, the most features a
    CRC-32 hash can index."""
    if n_features < 1:
        raise error(f"n_features must be positive, got {n_features}")
    if n_features > 1 << 32:
        raise error(f"n_features {n_features} exceeds 2**32, the most a CRC-32 hash can index")


def _block_rows(n_features: int) -> int:
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n_features))


def _langid_features(texts: list[str], out: np.ndarray) -> None:
    """Overwrite row i of `out` with the features of texts[i].

    A text's features are the counts of its lowercased character 2..4-grams,
    gram g counted at zlib.crc32(g.encode("utf-8")) % n_features, where
    n_features is the width of `out` (a C-contiguous float64 matrix). Raw
    counts, not frequencies: short inputs keep sharp logit margins.

    The CRC-32 of every gram is computed at once. A running CRC starts at each
    character of the block and takes the UTF-8 bytes of that character and
    the next three, one byte position per table-driven step; it is read off
    after the 2nd, 3rd and 4th character. A gram that would run past the end
    of its text is not counted. As with str.encode, a lone surrogate in a
    gram raises UnicodeEncodeError.
    """
    import numpy as np
    n_features = out.shape[1]
    lo, hi = _NGRAM_RANGE
    # one text at a time: str.lower maps a final sigma by what follows it
    lowered = [text.lower() for text in texts]
    lengths = np.fromiter(map(len, lowered), dtype=np.intp, count=len(lowered))
    points = np.frombuffer("".join(lowered).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    n = len(points)
    if ((points >= 0xD800) & (points <= 0xDFFF)).any():  # lone surrogates
        for text in lowered:
            if len(text) >= lo:
                text.encode("utf-8")
    # padded so that the last grams of the block can be read past its end
    cp = np.zeros(n + hi - 1, dtype=np.uint32)
    cp[:n] = points
    width = 1 + (cp >= 0x80).astype(np.uint32) + (cp >= 0x800) + (cp >= 0x10000)
    # utf8[b, j]: byte b of character j, where width[j] > b
    utf8 = np.empty((4, len(cp)), dtype=np.uint32)
    utf8[0] = (cp >> 6 * (width - 1)) | np.array([0, 0, 0xC0, 0xE0, 0xF0], np.uint32)[width]
    for b in range(1, 4):
        utf8[b] = ((cp >> 6 * (np.maximum(width, b + 1) - (b + 1))) & 0x3F) | 0x80

    table = np.arange(256, dtype=np.uint32)  # zlib's, for polynomial 0xEDB88320
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    row = np.repeat(np.arange(len(lowered)), lengths)
    rest = np.repeat(np.cumsum(lengths), lengths) - np.arange(n)  # chars left in the text
    out[...] = 0.0
    flat = out.reshape(-1)  # a view, as out is C-contiguous
    for k in range(hi):
        for b in range(4):
            on = np.flatnonzero(width[k:k + n] > b)
            crc[on] = table[(crc[on] ^ utf8[b, k:k + n][on]) & 0xFF] ^ (crc[on] >> 8)
        if k + 1 >= lo:
            whole = rest > k
            grams = (crc[whole] ^ np.uint32(0xFFFFFFFF)) % n_features
            np.add.at(flat, row[whole] * n_features + grams, 1.0)


class LangIdModel:
    """Multinomial logistic regression over hashed character 2..4-grams;
    weights has one row per feature and one column per language. Each
    language code is one whitespace word, as the model file stores it."""

    def __init__(self, langs: list[str], weights: np.ndarray, bias: np.ndarray):
        import numpy as np
        self.langs = list(langs)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if len(set(self.langs)) != len(self.langs) or len(self.langs) < 2:
            raise ModelFormatError(f"need 2 or more distinct languages, got {self.langs}")
        for lang in self.langs:
            check_lang_code(lang, ModelFormatError)
        if self.weights.shape[1:] != (len(langs),) or self.bias.shape != (len(langs),):
            raise ModelFormatError("langid weight shapes inconsistent with langs")
        self.n_features = self.weights.shape[0]
        _check_n_features(self.n_features, ModelFormatError)
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ModelFormatError("langid weights and bias must be finite")

    def _proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax of one feature row's logits; a block is taken row by row,
        because a batched product does not round as the row product does."""
        import numpy as np
        logits = features @ self.weights + self.bias
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()


def langid_train(labeled, seed: int = 0, n_features: int = 2048,
                 epochs: int = 300, lr: float = 2.0) -> LangIdModel:
    """Fit by full-batch gradient descent; deterministic given data order and seed.

    Memory is one n x n_features float64 feature matrix on top of numpy.
    The initial weights are the values of numpy's
    default_rng(seed).normal(0, 0.01), drawn by mtkit.normal's exact copy
    of it, so no stage loads numpy's random module. Both products of an
    epoch read the matrix in its row-major storage order."""
    import numpy as np
    from .normal import default_rng_normal
    _check_n_features(n_features, ConfigError)
    check_training(epochs, lr, seed)
    pairs = [(text, lang) for text, lang in labeled]
    langs = sorted({lang for _, lang in pairs})
    for lang in langs:
        check_lang_code(lang, ConfigError)
    if len(langs) < 2:
        raise EmptyInputError(f"need at least 2 languages, got {langs}")
    lang_idx = {lang: i for i, lang in enumerate(langs)}
    n = len(pairs)
    # Filled in place, block by block, rather than stacked from row vectors:
    # the same values without a second copy of the matrix at the memory peak.
    x = np.empty((n, n_features))
    y = np.zeros((n, len(langs)))
    step = _block_rows(n_features)
    for start in range(0, n, step):
        _langid_features([text for text, _ in pairs[start:start + step]], x[start:start + step])
    for row, (_, lang) in enumerate(pairs):
        y[row, lang_idx[lang]] = 1.0

    size = n_features * len(langs)
    w = np.fromiter(default_rng_normal(seed, 0.0, 0.01, size), float, count=size)
    w = w.reshape(n_features, len(langs))
    b = np.zeros(len(langs))
    for _ in range(epochs):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        grad = probs - y
        # mathematically x.T @ grad, but BLAS reads x row-major, as it is stored
        w -= lr * (grad.T @ x).T / n
        b -= lr * grad.mean(axis=0)
    return LangIdModel(langs, w, b)


def langid_classify(model: LangIdModel, text: str) -> tuple[str, float]:
    """The language that _langid_labels gives a non-blank text, as a block
    of one, with its probability."""
    import numpy as np
    if not text.strip():
        raise EmptyInputError("cannot classify empty text")
    features = np.empty((1, model.n_features))
    _langid_features([text], features)
    probs = model._proba(features[0])
    idx = int(probs.argmax())
    return model.langs[idx], float(probs[idx])


def _langid_labels(model: LangIdModel, texts) -> dict[str, str]:
    """Map each distinct non-blank text to its most probable language,
    featurizing a block of texts at a time into one reused buffer."""
    import numpy as np
    distinct = list(dict.fromkeys(text for text in texts if text.strip()))
    step = _block_rows(model.n_features)
    buffer = np.empty((min(step, len(distinct)), model.n_features))
    labels = {}
    for start in range(0, len(distinct), step):
        block = distinct[start:start + step]
        rows = buffer[:len(block)]
        _langid_features(block, rows)
        for text, row in zip(block, rows):
            labels[text] = model.langs[int(model._proba(row).argmax())]
    return labels


def _langid_lines(langs, weights, bias):
    yield f"langid-v1 {len(weights)}"
    yield "langs " + " ".join(langs)
    yield "bias " + " ".join(repr(float(v)) for v in bias)
    for idx, row in enumerate(weights):
        yield f"w {idx} " + " ".join(repr(float(v)) for v in row)


def save_langid(model: LangIdModel, path) -> None:
    write_lines(path, _langid_lines(model.langs, model.weights, model.bias))


def _langid_fields(header, lines):
    n_features = int(header)
    _check_n_features(n_features, ModelFormatError)
    langs = next(lines, (2, ""))[1].split(" ")[1:]
    rows = ([float(v) for v in line.split(" ")[-len(langs):]] for _, line in lines)
    bias = next(rows, [])
    return langs, list(itertools.islice(rows, n_features)), bias


def load_langid(path) -> LangIdModel:
    """Read a file only byte for byte as save_langid writes it: a row out of
    order or missing, a CRLF line, a weight in another form or any other
    layout raises ModelFormatError naming the first line that departs. The
    header's n_features is checked first, and at most that many rows read."""
    return read_model(path, "langid-v1", _langid_fields, _langid_lines, LangIdModel)


# ---------------------------------------------------------------------------
# filter cascade

def _first_rejection(pair: ParallelExample, cfg: FilterConfig, lang_of) -> str | None:
    """None to keep the pair, or the name of the first rule that rejects it.

    lang_of(text) gives the language of a non-blank side, or is None when
    the language-id rules are off; a blank side fails its language-id rule
    when that rule is on, and the target is looked up only when the source
    passed. Lengths are whitespace word tokens, counted before any subword
    step. A pair without an external score skips the score rule.
    """
    if lang_of is not None:
        src_lang, tgt_lang = cfg.required_langs
        if not pair.source.strip() or lang_of(pair.source) != src_lang:
            return "langid_src"
        if not pair.target.strip() or lang_of(pair.target) != tgt_lang:
            return "langid_tgt"
    len_s = len(pair.source.split())
    len_t = len(pair.target.split())
    if len_s < cfg.min_len_tokens or len_t < cfg.min_len_tokens:
        return "too_short"
    if len_s > cfg.max_len_tokens or len_t > cfg.max_len_tokens:
        return "too_long"
    if len_s == 0 or len_t == 0:
        return "ratio"  # reachable only with min_len_tokens == 0
    if max(len_s / len_t, len_t / len_s) > cfg.max_len_ratio:
        return "ratio"
    if pair.external_score is not None and pair.external_score < cfg.min_external_score:
        return "score"
    return None


def filter_corpus(pairs, cfg: FilterConfig,
                  langid: LangIdModel | None = None) -> tuple[list[ParallelExample], FilterReport]:
    """Apply the cascade to every pair, preserving input order.

    With the language-id rules on, the distinct non-blank sources are
    classified first, a block at a time, then the distinct targets of the
    pairs whose source passed; the cascade then reads those labels. The
    report counts this call's pairs only; callers that filter a stream chunk
    by chunk combine the chunk reports with FilterReport.merge.
    """
    pairs = list(pairs)
    lang_of = None
    if langid is not None and cfg.required_langs is not None:
        labels = _langid_labels(langid, (pair.source for pair in pairs))
        src_lang = cfg.required_langs[0]
        labels.update(_langid_labels(langid, (
            pair.target for pair in pairs
            if labels.get(pair.source) == src_lang and pair.target not in labels)))
        lang_of = labels.__getitem__
    rejected = dict.fromkeys(RULE_ORDER, 0)
    kept = []
    for pair in pairs:
        verdict = _first_rejection(pair, cfg, lang_of)
        if verdict is None:
            kept.append(pair)
        else:
            rejected[verdict] += 1
    return kept, FilterReport(len(pairs), len(kept), rejected)


def filter_pair(pair: ParallelExample, cfg: FilterConfig,
                langid: LangIdModel | None = None) -> str | None:
    """The verdict filter_corpus gives the pair alone: None if it is kept,
    otherwise the one rule its report counts."""
    _, report = filter_corpus([pair], cfg, langid)
    return next((rule for rule in RULE_ORDER if report.rejected[rule]), None)


# ---------------------------------------------------------------------------
# reversal and mixing

def reverse_target(pair: ParallelExample) -> ParallelExample:
    """Reverse the target token order; an involution."""
    return pair._replace(target=" ".join(reversed(pair.target.split())))


def mix_sample(corpora, n: int, seed: int) -> list[ParallelExample]:
    """Draw n examples, picking corpus i with probability weight_i / sum.

    Each corpus is consumed in order and replayed from the start when
    exhausted.
    """
    if n < 0:
        raise ConfigError(f"sample size n must be >= 0, got {n}")
    corpora = [(list(stream), float(weight)) for stream, weight in corpora]
    if not corpora:
        raise EmptyInputError("mix_sample needs at least one corpus")
    total = 0.0  # summed in order, as random.choices sums the weights; it refuses an inf
    for i, (items, weight) in enumerate(corpora):
        if not items:
            raise EmptyInputError(f"corpus {i} is empty")
        if not 0 < weight < math.inf:
            raise ConfigError(f"corpus {i} weight must be positive and finite, got {weight}")
        total += weight
    if total == math.inf:
        raise ConfigError(f"corpus weights must have a finite total, got {total}")
    check_seed(seed)
    rng = random.Random(seed)
    weights = [w for _, w in corpora]
    cursors = [0] * len(corpora)
    out = []
    for i in rng.choices(range(len(corpora)), weights=weights, k=n):
        items = corpora[i][0]
        out.append(items[cursors[i] % len(items)])
        cursors[i] += 1
    return out


# ---------------------------------------------------------------------------
# TSV input/output

def parse_tsv_line(line: str) -> ParallelExample:
    """Parse `source<TAB>target[<TAB>score]`; a bad line raises InputFormatError,
    or float()'s ValueError for a score that does not parse."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) not in (2, 3):
        raise InputFormatError(f"expected 2 or 3 tab-separated columns, got {len(cols)}")
    score = None
    if len(cols) == 3 and cols[2] != "":
        score = float(cols[2])
        if not 0.0 <= score <= 1.0:
            raise InputFormatError(f"score {score} outside [0, 1]")
    return ParallelExample(cols[0], cols[1], score)


def format_tsv_line(pair: ParallelExample, extra_cols=()) -> str:
    cols = [pair.source, pair.target]
    if pair.external_score is not None:
        cols.append(repr(float(pair.external_score)))
    cols.extend(extra_cols)
    return "\t".join(cols)
