"""Parallel-corpus ingestion, filter cascade, target reversal, corpus mixing.

The filter cascade applies rules in a fixed order (language id on each
side, minimum length, maximum length, length ratio, cleanliness score) and
attributes each rejection to the first rule that fired, so reports are
reproducible and mergeable across chunks of a stream.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    EmptyCorpusListError,
    EmptyTextError,
    ModelFormatError,
    SingleClassCorpusError,
    model_file,
)


class Provenance(Enum):
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
    provenance: Provenance = Provenance.BITEXT
    sequence_no: int = 0


RULE_ORDER = ("langid_src", "langid_tgt", "too_short", "too_long", "ratio", "score")


@dataclass(frozen=True)
class FilterConfig:
    max_len_tokens: int = 250
    max_len_ratio: float = 1.3
    min_external_score: float = 0.6
    required_langs: tuple[str, str] | None = None
    min_len_tokens: int = 1

    def __post_init__(self):
        if self.max_len_ratio < 1:
            raise ValueError("max_len_ratio must be >= 1")
        if not 0 <= self.min_external_score <= 1:
            raise ValueError("min_external_score must lie in [0, 1]")


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
        self.langs = list(langs)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        self.n_features = n_features
        if n_features < 1:
            raise ModelFormatError(f"n_features must be positive, got {n_features}")
        if self.weights.shape != (n_features, len(langs)) or self.bias.shape != (len(langs),):
            raise ModelFormatError("langid weight shapes inconsistent with langs/n_features")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ModelFormatError("langid weights and bias must be finite")

    def predict_proba(self, text: str) -> np.ndarray:
        logits = _langid_features(text, self.n_features) @ self.weights + self.bias
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()


def langid_train(labeled, seed: int = 0, n_features: int = 2048,
                 epochs: int = 400, lr: float = 5.0) -> LangIdModel:
    """Fit by full-batch gradient descent; deterministic given data order and seed."""
    pairs = [(text, lang) for text, lang in labeled]
    langs = sorted({lang for _, lang in pairs})
    if len(langs) < 2:
        raise SingleClassCorpusError(f"need at least 2 languages, got {langs}")
    lang_idx = {lang: i for i, lang in enumerate(langs)}
    n = len(pairs)
    x = np.stack([_langid_features(text, n_features) for text, _ in pairs])
    y = np.zeros((n, len(langs)))
    for row, (_, lang) in enumerate(pairs):
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
        raise EmptyTextError("cannot classify empty text")
    probs = model.predict_proba(text)
    idx = int(np.argmax(probs))
    return model.langs[idx], float(probs[idx])


def save_langid(model: LangIdModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"langid-v1 {model.n_features}\n")
        fh.write("langs " + " ".join(model.langs) + "\n")
        fh.write("bias " + " ".join(repr(float(v)) for v in model.bias) + "\n")
        for idx in range(model.n_features):
            row = model.weights[idx]
            if np.any(row != 0.0):
                fh.write(f"w {idx} " + " ".join(repr(float(v)) for v in row) + "\n")


def load_langid(path) -> LangIdModel:
    langs = None
    bias = None
    weights = None
    with model_file(path, "langid-v1") as (header, lines):
        n_features = int(header)
        for lineno, line in lines:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "langs":
                langs = parts[1:]
                weights = np.zeros((n_features, len(langs)))
            elif parts[0] == "bias":
                bias = np.array([float(v) for v in parts[1:]])
            elif parts[0] == "w":
                if weights is None:
                    raise ModelFormatError(f"{path}:{lineno}: weight line before langs line")
                row = int(parts[1])
                if not 0 <= row < n_features or len(parts) != 2 + len(langs):
                    raise ModelFormatError(
                        f"{path}:{lineno}: expected 'w <row in [0, {n_features})>' "
                        f"and {len(langs)} weights"
                    )
                weights[row] = [float(v) for v in parts[2:]]
            else:
                raise ModelFormatError(f"{path}:{lineno}: unknown line kind {parts[0]!r}")
        if langs is None or bias is None:
            raise ModelFormatError(f"{path}: missing langs or bias line")
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
    exhausted. Emitted examples are renumbered 0..n-1.
    """
    corpora = [(list(stream), float(weight)) for stream, weight in corpora]
    if not corpora:
        raise EmptyCorpusListError("mix_sample needs at least one corpus")
    for i, (items, weight) in enumerate(corpora):
        if not items:
            raise EmptyCorpusListError(f"corpus {i} is empty")
        if weight <= 0:
            raise ValueError(f"corpus {i} weight must be positive, got {weight}")
    rng = random.Random(seed)
    weights = [w for _, w in corpora]
    cursors = [0] * len(corpora)
    out = []
    for seq_no in range(n):
        i = rng.choices(range(len(corpora)), weights=weights)[0]
        items = corpora[i][0]
        item = items[cursors[i] % len(items)]
        cursors[i] += 1
        out.append(replace(item, sequence_no=seq_no))
    return out


# ---------------------------------------------------------------------------
# TSV input/output

def parse_tsv_line(line: str, sequence_no: int,
                   provenance: Provenance = Provenance.BITEXT) -> ParallelExample:
    """Parse `source<TAB>target[<TAB>score]`; raises ValueError on bad lines."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) not in (2, 3):
        raise ValueError(f"expected 2 or 3 tab-separated columns, got {len(cols)}")
    score = None
    if len(cols) == 3 and cols[2] != "":
        score = float(cols[2])
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
    return ParallelExample(
        source=cols[0], target=cols[1], external_score=score,
        provenance=provenance, sequence_no=sequence_no,
    )


def read_parallel_tsv(lines, provenance: Provenance = Provenance.BITEXT,
                      on_malformed=None):
    """Yield examples from TSV lines; malformed lines are reported, not fatal."""
    seq_no = 0
    for line_no, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        try:
            pair = parse_tsv_line(line, seq_no, provenance)
        except ValueError as exc:
            if on_malformed is not None:
                on_malformed(line_no, str(exc))
            continue
        seq_no += 1
        yield pair


def format_tsv_line(pair: ParallelExample, extra_cols=()) -> str:
    cols = [pair.source, pair.target]
    if pair.external_score is not None:
        cols.append(repr(float(pair.external_score)))
    cols.extend(extra_cols)
    return "\t".join(cols)
