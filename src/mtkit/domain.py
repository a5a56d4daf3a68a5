"""In-domain data selection: binary classifiers and two-stage bilingual filtering.

A logistic regression over bag-of-token counts stands in for a fine-tuned
encoder; the two-stage procedure is the part under test. Stage 1 keeps
pairs whose English side scores strictly above the first threshold, stage 2
scores the Russian side of the survivors only, and a pair is selected when
the mean of the two scores reaches the final threshold.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import ParallelExample
from .errors import EmptyClassError, ModelFormatError, model_file


def _whitespace_tokenize(text: str) -> list[str]:
    return text.split()


# The final-threshold comparison works in decimal terms: (0.95 + 0.85) / 2
# must reach a 0.90 cutoff even though the double average lands one ulp
# below 0.9. The slack is far below any meaningful score resolution.
_THRESHOLD_EPS = 1e-9

# The largest x for which math.exp(x) does not overflow.
_EXP_MAX = math.log(sys.float_info.max)

# Share of each class held out to measure DomainClassifier.holdout_accuracy.
HOLDOUT_FRAC = 0.1


class DomainClassifier:
    """token -> weight map with a bias, scored through a logistic link."""

    def __init__(self, lang: str, weights: dict[str, float], bias: float, tokenizer=None):
        self.lang = lang
        self.weights = dict(weights)
        self.bias = float(bias)
        values = [*self.weights.values(), self.bias]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("domain classifier weights and bias must be finite")
        self.tokenizer = tokenizer or _whitespace_tokenize
        self.holdout_accuracy: float | None = None

    def score(self, text: str) -> float:
        z = self.bias
        for tok, count in Counter(self.tokenizer(text)).items():
            w = self.weights.get(tok)
            if w is not None:
                z += w * count
        if -z > _EXP_MAX:
            # exp(-z) would overflow; the logistic equals exp(z) to within rounding
            return math.exp(z)
        return 1.0 / (1.0 + math.exp(-z))


@dataclass(frozen=True)
class SelectionConfig:
    stage1_threshold: float = 0.5
    final_threshold: float = 0.90

    def __post_init__(self):
        if not 0 <= self.stage1_threshold <= self.final_threshold <= 1:
            raise ValueError("need 0 <= stage1_threshold <= final_threshold <= 1")


def _fit_logistic(texts: list[list[str]], labels: np.ndarray, vocab: list[str],
                  epochs: int, lr: float) -> tuple[np.ndarray, float]:
    index = {tok: i for i, tok in enumerate(vocab)}
    x = np.zeros((len(texts), len(vocab)))
    for row, toks in enumerate(texts):
        for tok, c in Counter(toks).items():
            x[row, index[tok]] = c
    w = np.zeros(len(vocab))
    b = 0.0
    n = len(texts)
    for _ in range(epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad = p - labels
        w -= lr * (x.T @ grad) / n
        b -= lr * float(grad.mean())
    return w, b


def domain_train(positives, negatives, seed: int = 0, lang: str = "en",
                 tokenizer=None, epochs: int = 300, lr: float = 0.5) -> DomainClassifier:
    """Train a binary in-domain classifier on equal-sized classes.

    The larger class is subsampled to match the smaller. A held-out split is
    scored for accuracy (stored on the classifier), then the model is refit
    on all examples.
    """
    positives = list(positives)
    negatives = list(negatives)
    if not positives:
        raise EmptyClassError("no positive examples")
    if not negatives:
        raise EmptyClassError("no negative examples")
    rng = random.Random(seed)
    size = min(len(positives), len(negatives))
    if len(positives) > size:
        positives = rng.sample(positives, size)
    if len(negatives) > size:
        negatives = rng.sample(negatives, size)

    tokenizer = tokenizer or _whitespace_tokenize
    pos_toks = [tokenizer(t) for t in positives]
    neg_toks = [tokenizer(t) for t in negatives]
    vocab = sorted({tok for toks in pos_toks + neg_toks for tok in toks})

    n_hold = int(size * HOLDOUT_FRAC)
    if n_hold > 0 and size - n_hold > 0:
        order = list(range(size))
        rng.shuffle(order)
        hold_idx = set(order[:n_hold])
        train_texts = [pos_toks[i] for i in range(size) if i not in hold_idx]
        train_labels = [1.0] * len(train_texts)
        train_texts += [neg_toks[i] for i in range(size) if i not in hold_idx]
        train_labels += [0.0] * (len(train_texts) - len(train_labels))
        w, b = _fit_logistic(train_texts, np.array(train_labels), vocab, epochs, lr)
        index = {tok: i for i, tok in enumerate(vocab)}
        correct = 0
        held = [(pos_toks[i], 1) for i in sorted(hold_idx)] + [
            (neg_toks[i], 0) for i in sorted(hold_idx)
        ]
        for toks, label in held:
            z = b + sum(w[index[t]] * c for t, c in Counter(toks).items() if t in index)
            correct += int((z > 0) == bool(label))
        holdout_accuracy = correct / len(held)
    else:
        holdout_accuracy = None

    all_texts = pos_toks + neg_toks
    all_labels = np.array([1.0] * len(pos_toks) + [0.0] * len(neg_toks))
    w, b = _fit_logistic(all_texts, all_labels, vocab, epochs, lr)
    clf = DomainClassifier(
        lang, {tok: float(w[i]) for i, tok in enumerate(vocab)}, b, tokenizer
    )
    clf.holdout_accuracy = holdout_accuracy
    return clf


def bilingual_select(pairs, clf_en: DomainClassifier, clf_ru: DomainClassifier,
                     cfg: SelectionConfig, english_side: str = "source"):
    """Two-stage selection over a parallel stream.

    Returns (selected, counts) where selected is a list of
    (pair, score_en, score_ru) and counts reports the funnel sizes. The
    Russian side is only ever scored for stage-1 survivors.
    """
    if english_side not in ("source", "target"):
        raise ValueError("english_side must be 'source' or 'target'")
    counts = {"input": 0, "stage1_kept": 0, "stage2_scored": 0, "final_kept": 0}
    selected = []
    for pair in pairs:
        counts["input"] += 1
        en_text = pair.source if english_side == "source" else pair.target
        ru_text = pair.target if english_side == "source" else pair.source
        score_en = clf_en.score(en_text)
        if score_en <= cfg.stage1_threshold:
            continue
        counts["stage1_kept"] += 1
        score_ru = clf_ru.score(ru_text)
        counts["stage2_scored"] += 1
        if (score_en + score_ru) / 2.0 >= cfg.final_threshold - _THRESHOLD_EPS:
            counts["final_kept"] += 1
            selected.append((pair, score_en, score_ru))
    return selected, counts


def save_classifier(clf: DomainClassifier, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"domcls-v1 {clf.lang}\n")
        for tok in sorted(clf.weights):
            fh.write(f"{tok}\t{clf.weights[tok]!r}\n")
        fh.write(f"__bias__\t{clf.bias!r}\n")


def load_classifier(path, tokenizer=None) -> DomainClassifier:
    weights = {}
    bias = 0.0
    with model_file(path, "domcls-v1") as (header, lines):
        (lang,) = header.split()
        for lineno, line in lines:
            if not line:
                continue
            tok, _, value = line.partition("\t")
            if not value:
                raise ModelFormatError(f"{path}:{lineno}: expected token<TAB>weight")
            if tok == "__bias__":
                bias = float(value)
            else:
                weights[tok] = float(value)
        return DomainClassifier(lang, weights, bias, tokenizer)
