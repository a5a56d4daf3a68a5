"""In-domain data selection: binary classifiers and two-stage bilingual filtering.

A logistic regression over bag-of-token counts stands in for a fine-tuned
encoder; the two-stage procedure is the part under test. Stage 1 keeps
pairs whose English side scores strictly above the first threshold, stage 2
scores the Russian side of the survivors only, and a pair is selected when
the mean of the two scores reaches the final threshold.

The tokens are the whitespace words of the text as given (`text.split()`),
in training and in scoring alike, so the tokens of a model file are always
the ones scoring counts.

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
                     check_training, read_model, write_lines)

if TYPE_CHECKING:
    import numpy as np


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

    Tokens are whitespace words, as text.split() gives them: an empty token
    or one that holds whitespace, which score could never count, is refused,
    and so is one spelled like the model file's bias line (`__bias__`), which
    would load back as the bias; the language code is one whitespace word
    too. So every classifier built saves to a file load_classifier reads
    back. holdout_accuracy is the accuracy domain_train measured on its
    held-out split, or None when it held none out; the file does not store it.
    """

    def __init__(self, lang: str, weights: dict[str, float], bias: float,
                 holdout_accuracy: float | None = None):
        check_lang_code(lang, ModelFormatError)
        if _BIAS in weights:
            raise ModelFormatError(f"token {_BIAS!r} is reserved for the bias")
        for tok in weights:
            if tok.split() != [tok]:
                raise ModelFormatError(f"token {tok!r} is not one whitespace word")
        self.lang = lang
        self.weights = dict(weights)
        self.bias = float(bias)
        values = [*self.weights.values(), self.bias]
        if not all(math.isfinite(v) for v in values):
            raise ModelFormatError("domain classifier weights and bias must be finite")
        self.holdout_accuracy = holdout_accuracy

    def score(self, text: str) -> float:
        z = self.bias
        for tok, count in Counter(text.split()).items():
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
                 epochs: int = 300, lr: float = 0.5) -> DomainClassifier:
    """Train a binary in-domain classifier on equal-sized classes.

    The larger class is subsampled to match the smaller. A held-out split is
    scored for accuracy (stored on the classifier), then the model is refit
    on all examples.
    """
    import numpy as np
    check_training(epochs, lr, seed)
    check_lang_code(lang, ConfigError)
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

    pos = [Counter(t.split()) for t in positives]
    neg = [Counter(t.split()) for t in negatives]
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
    return DomainClassifier(lang, {tok: float(w[i]) for tok, i in index.items()}, b,
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


def _lines(lang, weights, bias):
    yield f"domcls-v1 {lang}"
    for tok in sorted(weights):
        yield f"{tok}\t{weights[tok]!r}"
    yield f"{_BIAS}\t{bias!r}"


def save_classifier(clf: DomainClassifier, path) -> None:
    write_lines(path, _lines(clf.lang, clf.weights, clf.bias))


def _fields(header, lines):
    weights = {}
    for lineno, line in lines:
        tok, _, value = line.partition("\t")
        if tok in weights:  # line i + 2 set the i-th token read
            raise ModelFormatError(f"line {lineno}: repeats line {list(weights).index(tok) + 2}")
        weights[tok] = float(value)
    return header, weights, weights.pop(_BIAS, None)


def load_classifier(path) -> DomainClassifier:
    """Read a file only byte for byte as save_classifier writes it: tokens out
    of order, a line after the bias line, a CRLF line, a weight in another
    form or any other layout raises ModelFormatError naming the first line
    that departs, a repeated token its first line too."""
    return read_model(path, "domcls-v1", _fields, _lines, DomainClassifier)
