"""Parallel-corpus ingestion, filter cascade, target reversal, corpus mixing.

The filter cascade applies rules in a fixed order (language id on each
side, minimum length, maximum length, length ratio, cleanliness score) and
attributes each rejection to the first rule that fired, so reports are
reproducible and mergeable across chunks of a stream.

Only the language-id code uses numpy, and it imports numpy where it needs
it, so the stages that read and write pairs start without loading it.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (ConfigError, EmptyInputError, InputFormatError, ModelFormatError,
                     check_new_line, model_file, model_writer)

if TYPE_CHECKING:
    import numpy as np


class Provenance(Enum):
    """The corpus tags that `mtkit mix --part` accepts."""

    BITEXT = "bitext"
    BACKTRANSLATED = "backtranslated"
    R2L_DISTILLED = "r2l_distilled"
    BIOMED = "biomed"
    NEWS = "news"


@dataclass(frozen=True)
class ParallelExample:
    source: str
    target: str
    external_score: float | None = None


RULE_ORDER = ("langid_src", "langid_tgt", "too_short", "too_long", "ratio", "score")


@dataclass(frozen=True)
class FilterConfig:
    max_len_tokens: int = 250
    max_len_ratio: float = 1.3
    min_external_score: float = 0.6
    required_langs: tuple[str, str] | None = None
    min_len_tokens: int = 1

    def __post_init__(self):
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


@dataclass
class FilterReport:
    total: int = 0
    kept: int = 0
    rejected: dict[str, int] = field(default_factory=lambda: {r: 0 for r in RULE_ORDER})
    malformed: int = 0

    def merge(self, other: "FilterReport") -> "FilterReport":
        merged = FilterReport(
            total=self.total + other.total,
            kept=self.kept + other.kept,
            rejected={r: self.rejected[r] + other.rejected[r] for r in RULE_ORDER},
            malformed=self.malformed + other.malformed,
        )
        return merged

    def to_lines(self) -> list[str]:
        lines = [f"total\t{self.total}", f"kept\t{self.kept}"]
        lines += [f"rejected.{rule}\t{self.rejected[rule]}" for rule in RULE_ORDER]
        lines.append(f"malformed\t{self.malformed}")
        return lines


# ---------------------------------------------------------------------------
# language identification (hashed char n-gram logistic classifier)

_NGRAM_RANGE = (2, 4)


def _langid_features(text: str, n_features: int) -> np.ndarray:
    import numpy as np
    vec = np.zeros(n_features)
    text = text.lower()
    counts: Counter[int] = Counter()
    for n in range(_NGRAM_RANGE[0], _NGRAM_RANGE[1] + 1):
        for i in range(len(text) - n + 1):
            gram = text[i : i + n]
            counts[zlib.crc32(gram.encode("utf-8")) % n_features] += 1
    # Raw counts, not frequencies: short inputs keep sharp logit margins.
    for idx, c in counts.items():
        vec[idx] = c
    return vec


class LangIdModel:
    """Multinomial logistic regression over hashed character 2..4-grams."""

    def __init__(self, langs: list[str], weights: np.ndarray, bias: np.ndarray, n_features: int):
        import numpy as np
        self.langs = list(langs)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        self.n_features = n_features
        if n_features < 1:
            raise ModelFormatError(f"n_features must be positive, got {n_features}")
        if len(set(self.langs)) != len(self.langs) or len(self.langs) < 2:
            raise ModelFormatError(f"need 2 or more distinct languages, got {self.langs}")
        if self.weights.shape != (n_features, len(langs)) or self.bias.shape != (len(langs),):
            raise ModelFormatError("langid weight shapes inconsistent with langs/n_features")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ModelFormatError("langid weights and bias must be finite")

    def predict_proba(self, text: str) -> np.ndarray:
        import numpy as np
        logits = _langid_features(text, self.n_features) @ self.weights + self.bias
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()


def langid_train(labeled, seed: int = 0, n_features: int = 2048,
                 epochs: int = 300, lr: float = 2.0) -> LangIdModel:
    """Fit by full-batch gradient descent; deterministic given data order and seed."""
    import numpy as np
    if n_features < 1:
        raise ConfigError(f"n_features must be positive, got {n_features}")
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    if not 0 < lr < math.inf:
        raise ConfigError(f"lr must be positive and finite, got {lr}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pairs = [(text, lang) for text, lang in labeled]
    langs = sorted({lang for _, lang in pairs})
    if len(langs) < 2:
        raise EmptyInputError(f"need at least 2 languages, got {langs}")
    lang_idx = {lang: i for i, lang in enumerate(langs)}
    n = len(pairs)
    # Filled in place rather than stacked from row vectors: the same values
    # without a second copy of the matrix at the memory peak.
    x = np.zeros((n, n_features))
    y = np.zeros((n, len(langs)))
    for row, (text, lang) in enumerate(pairs):
        x[row] = _langid_features(text, n_features)
        y[row, lang_idx[lang]] = 1.0

    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, size=(n_features, len(langs)))
    b = np.zeros(len(langs))
    for _ in range(epochs):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        grad = probs - y
        w -= lr * (x.T @ grad) / n
        b -= lr * grad.mean(axis=0)
    return LangIdModel(langs, w, b, n_features)


def langid_classify(model: LangIdModel, text: str) -> tuple[str, float]:
    if not text.strip():
        raise EmptyInputError("cannot classify empty text")
    probs = model.predict_proba(text)
    idx = int(probs.argmax())
    return model.langs[idx], float(probs[idx])


def save_langid(model: LangIdModel, path) -> None:
    with model_writer(path, "langid-v1", model.n_features) as fh:
        fh.write("langs " + " ".join(model.langs) + "\n")
        fh.write("bias " + " ".join(repr(float(v)) for v in model.bias) + "\n")
        for idx in range(model.n_features):
            row = model.weights[idx]
            if (row != 0.0).any():
                fh.write(f"w {idx} " + " ".join(repr(float(v)) for v in row) + "\n")


def load_langid(path) -> LangIdModel:
    import numpy as np
    langs = None
    bias = None
    weights = None
    seen = {}  # "langs", "bias" or a weight row -> the line that set it
    with model_file(path, "langid-v1") as (header, lines):
        n_features = int(header)
        for lineno, line in lines:
            parts = line.split()
            if not parts:
                continue
            key = parts[0]
            if key == "langs":
                langs = parts[1:]
                weights = np.zeros((n_features, len(langs)))
            elif key == "bias":
                bias = np.array([float(v) for v in parts[1:]])
            elif key == "w":
                if weights is None:
                    raise ModelFormatError(f"line {lineno}: weight line before langs line")
                key = row = int(parts[1])
                if not 0 <= row < n_features or len(parts) != 2 + len(langs):
                    raise ModelFormatError(
                        f"line {lineno}: expected 'w <row in [0, {n_features})>' "
                        f"and {len(langs)} weights"
                    )
                weights[row] = [float(v) for v in parts[2:]]
            else:
                raise ModelFormatError(f"line {lineno}: unknown line kind {key!r}")
            check_new_line(seen, key, lineno)
        if langs is None or bias is None:
            raise ModelFormatError("missing langs or bias line")
        return LangIdModel(langs, weights, bias, n_features)


# ---------------------------------------------------------------------------
# filter cascade

def filter_pair(pair: ParallelExample, cfg: FilterConfig,
                langid: LangIdModel | None = None) -> str | None:
    """Return None to keep, or the name of the first rule that rejects.

    Lengths are whitespace word tokens, counted before any subword step.
    A blank side fails its language-id rule when that rule is on. Pairs
    without an external score skip the score rule.
    """
    if langid is not None and cfg.required_langs is not None:
        src_lang, tgt_lang = cfg.required_langs
        if not pair.source.strip() or langid_classify(langid, pair.source)[0] != src_lang:
            return "langid_src"
        if not pair.target.strip() or langid_classify(langid, pair.target)[0] != tgt_lang:
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

    The report counts this call's pairs only; callers that filter a stream
    chunk by chunk combine the chunk reports with FilterReport.merge.
    """
    report = FilterReport()
    kept = []
    for pair in pairs:
        verdict = filter_pair(pair, cfg, langid)
        report.total += 1
        if verdict is None:
            report.kept += 1
            kept.append(pair)
        else:
            report.rejected[verdict] += 1
    return kept, report


# ---------------------------------------------------------------------------
# reversal and mixing

def reverse_target(pair: ParallelExample) -> ParallelExample:
    """Reverse the target token order; an involution."""
    return replace(pair, target=" ".join(reversed(pair.target.split())))


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
    for i, (items, weight) in enumerate(corpora):
        if not items:
            raise EmptyInputError(f"corpus {i} is empty")
        if not 0 < weight < math.inf:
            raise ConfigError(f"corpus {i} weight must be positive and finite, got {weight}")
    rng = random.Random(seed)
    weights = [w for _, w in corpora]
    cursors = [0] * len(corpora)
    out = []
    for _ in range(n):
        i = rng.choices(range(len(corpora)), weights=weights)[0]
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


def read_parallel_tsv(lines, on_malformed=None):
    """Yield examples from TSV lines; malformed lines are reported, not fatal."""
    for line_no, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        try:
            pair = parse_tsv_line(line)
        except ValueError as exc:
            if on_malformed is not None:
                on_malformed(line_no, str(exc))
            continue
        yield pair


def format_tsv_line(pair: ParallelExample, extra_cols=()) -> str:
    cols = [pair.source, pair.target]
    if pair.external_score is not None:
        cols.append(repr(float(pair.external_score)))
    cols.extend(extra_cols)
    return "\t".join(cols)
