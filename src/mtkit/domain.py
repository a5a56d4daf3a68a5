"""In-domain data selection: binary classifiers and two-stage bilingual filtering.

A logistic regression over bag-of-token counts stands in for a fine-tuned
encoder; the two-stage procedure is the part under test. Stage 1 keeps
pairs whose English side scores strictly above the first threshold, stage 2
scores the Russian side of the survivors only, and a pair is selected when
the mean of the two scores reaches the final threshold.

Training counts each line's tokens once. The train, held-out and full count
matrices are built from those counts one at a time, so at most one is held
during a fit, and the held-out rows are scored with the fit's own product.

Only training uses numpy, and it imports numpy where it needs it; scoring,
selection and the model file are pure Python, so `mtkit domain-select`
starts without loading it.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter, namedtuple
from typing import TYPE_CHECKING

from .errors import (ConfigError, EmptyInputError, ModelFormatError, check_lang_code,
                     check_new_line, check_training, model_file, write_lines)

if TYPE_CHECKING:
    import numpy as np


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

# The token field of the bias line in a domcls-v1 file.
_BIAS = "__bias__"


class DomainClassifier:
    """token -> weight map with a bias, scored through a logistic link.

    No token may be spelled like the model file's bias line (`__bias__`),
    which would load back as the bias. holdout_accuracy is the accuracy
    domain_train measured on its held-out split, or None when it held none
    out; the model file does not store it.
    """

    def __init__(self, lang: str, weights: dict[str, float], bias: float, tokenizer=None,
                 holdout_accuracy: float | None = None):
        if _BIAS in weights:
            raise ModelFormatError(f"token {_BIAS!r} is reserved for the bias")
        self.lang = lang
        self.weights = dict(weights)
        self.bias = float(bias)
        values = [*self.weights.values(), self.bias]
        if not all(math.isfinite(v) for v in values):
            raise ModelFormatError("domain classifier weights and bias must be finite")
        self.tokenizer = tokenizer or _whitespace_tokenize
        self.holdout_accuracy = holdout_accuracy

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


class SelectionConfig(namedtuple("SelectionConfig", "stage1_threshold final_threshold",
                                 defaults=(0.5, 0.90))):
    """Thresholds of bilingual_select, checked whenever a config is built,
    _replace included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.stage1_threshold <= self.final_threshold <= 1:
            raise ConfigError("need 0 <= stage1_threshold <= final_threshold <= 1")
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so derived configs are checked
        return cls(*fields)


def _count_matrix(pos: list[Counter], neg: list[Counter],
                  index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The counts of pos then neg over the columns of `index`, the sorted
    vocab, one row each, and their labels: 1 for pos, 0 for neg."""
    import numpy as np
    x = np.zeros((len(pos) + len(neg), len(index)))
    for row, count in enumerate(pos + neg):
        for tok, c in count.items():
            x[row, index[tok]] = c
    return x, np.array([1.0] * len(pos) + [0.0] * len(neg))


def _fit_logistic(x: np.ndarray, labels: np.ndarray, epochs: int,
                  lr: float) -> tuple[np.ndarray, float]:
    import numpy as np
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad = p - labels
        w -= lr * (x.T @ grad) / len(x)
        b -= lr * float(grad.mean())
    return w, b


def domain_train(positives, negatives, seed: int = 0, lang: str = "en",
                 tokenizer=None, epochs: int = 300, lr: float = 0.5) -> DomainClassifier:
    """Train a binary in-domain classifier on equal-sized classes.

    The larger class is subsampled to match the smaller. A held-out split is
    scored for accuracy (stored on the classifier), then the model is refit
    on all examples.
    """
    import numpy as np
    check_training(epochs, lr, seed)
    check_lang_code(lang)
    positives = list(positives)
    negatives = list(negatives)
    if not positives:
        raise EmptyInputError("no positive examples")
    if not negatives:
        raise EmptyInputError("no negative examples")
    rng = random.Random(seed)
    size = min(len(positives), len(negatives))
    if len(positives) > size:
        positives = rng.sample(positives, size)
    if len(negatives) > size:
        negatives = rng.sample(negatives, size)

    tokenizer = tokenizer or _whitespace_tokenize
    pos = [Counter(tokenizer(t)) for t in positives]
    neg = [Counter(tokenizer(t)) for t in negatives]
    index = {tok: i for i, tok in enumerate(sorted(set().union(*pos, *neg)))}

    holdout_accuracy = None
    n_hold = int(size * HOLDOUT_FRAC)
    if n_hold > 0 and size - n_hold > 0:
        order = list(range(size))
        rng.shuffle(order)
        hold, train = sorted(order[:n_hold]), sorted(order[n_hold:])
        x, y = _count_matrix([pos[i] for i in train], [neg[i] for i in train], index)
        w, b = _fit_logistic(x, y, epochs, lr)
        x, y = _count_matrix([pos[i] for i in hold], [neg[i] for i in hold], index)
        holdout_accuracy = int(np.count_nonzero((x @ w + b > 0) == y)) / len(y)
    x, y = _count_matrix(pos, neg, index)
    w, b = _fit_logistic(x, y, epochs, lr)
    return DomainClassifier(lang, {tok: float(w[i]) for tok, i in index.items()}, b, tokenizer,
                            holdout_accuracy)


def bilingual_select(pairs, clf_en: DomainClassifier, clf_ru: DomainClassifier,
                     cfg: SelectionConfig, english_side: str = "source"):
    """Two-stage selection over a parallel stream.

    Returns (selected, counts) where selected is a list of
    (pair, score_en, score_ru) and counts reports the funnel sizes. The
    Russian side is only ever scored for stage-1 survivors.
    """
    if english_side not in ("source", "target"):
        raise ConfigError("english_side must be 'source' or 'target'")
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
    def lines():
        yield f"domcls-v1 {clf.lang}"
        for tok in sorted(clf.weights):
            yield f"{tok}\t{clf.weights[tok]!r}"
        yield f"{_BIAS}\t{clf.bias!r}"
    write_lines(path, lines())


def load_classifier(path, tokenizer=None) -> DomainClassifier:
    """Read a save_classifier file. A line without a tab and a token (or the
    bias line) given twice raise ModelFormatError naming the line."""
    weights = {}
    seen: dict[str, int] = {}  # token -> line number
    with model_file(path, "domcls-v1") as (header, lines):
        (lang,) = header.split()
        for lineno, line in lines:
            if not line:
                continue
            tok, _, value = line.partition("\t")
            if not value:
                raise ModelFormatError(f"line {lineno}: expected token<TAB>weight")
            check_new_line(seen, tok, lineno)
            weights[tok] = float(value)
        bias = weights.pop(_BIAS, 0.0)
        return DomainClassifier(lang, weights, bias, tokenizer)
