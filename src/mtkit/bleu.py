"""BLEU scoring (corpus and sentence level) and oracle candidate selection.

Scores are computed over already-tokenized sequences; callers choose the
tokenization (word tokens for reporting, ids for oracle selection over
decoder output) and strip any end-of-sentence marker first. Corpus BLEU
is the standard unsmoothed 4-gram formula; sentence BLEU floors zero
match counts at a small epsilon so candidates can be ranked by real
differences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyInputError, LengthMismatchError

MAX_ORDER = 4
_EPS = 1e-9


@dataclass(frozen=True)
class BleuResult:
    score: float  # in [0, 100]
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hyps, refs) -> BleuResult:
    """Aggregate clipped n-gram matches over the corpus, then combine.

    A zero precision at any order zeroes the score (no smoothing). Orders
    with no hypothesis n-grams at all (every hyp shorter than n) count as
    precision 1, so very short corpora still get a defined score.
    """
    hyps = [list(h) for h in hyps]
    refs = [list(r) for r in refs]
    if len(hyps) != len(refs):
        raise LengthMismatchError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyInputError("corpus_bleu needs at least one sentence pair")

    matched = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            total[n - 1] += max(len(hyp) - n + 1, 0)
            if len(hyp) < n:
                continue
            ref_counts = _ngram_counts(ref, n)
            matched[n - 1] += sum(
                min(cnt, ref_counts[g]) for g, cnt in _ngram_counts(hyp, n).items()
            )

    precisions = tuple(
        (matched[i] / total[i]) if total[i] > 0 else 1.0 for i in range(MAX_ORDER)
    )
    if hyp_len == 0:
        return BleuResult(0.0, precisions, 0.0, 0, ref_len)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER) * 100.0
    return BleuResult(score, precisions, bp, hyp_len, ref_len)


def sentence_bleu(hyp, ref) -> float:
    """Single-pair BLEU with zero numerators floored at 1e-9.

    Strictly monotone in n-gram matches at fixed lengths, which is what
    oracle selection needs. Empty hypothesis scores 0.
    """
    hyp = list(hyp)
    ref = list(ref)
    if not ref:
        raise EmptyInputError("sentence_bleu requires a non-empty reference")
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, MAX_ORDER + 1):
        denom = len(hyp) - n + 1
        if denom <= 0:
            continue  # log(1) == 0
        ref_counts = _ngram_counts(ref, n)
        m = sum(min(cnt, ref_counts[g]) for g, cnt in _ngram_counts(hyp, n).items())
        log_sum += math.log((m if m > 0 else _EPS) / denom)
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_sum / MAX_ORDER) * 100.0


def oracle_select(hyps, ref):
    """Return (best hypothesis, its sentence BLEU); first index wins ties."""
    if not hyps:
        raise EmptyInputError("oracle_select requires at least one candidate")
    best_hyp = None
    best_score = -1.0
    for hyp in hyps:
        score = sentence_bleu(hyp, ref)
        if score > best_score:
            best_hyp = hyp
            best_score = score
    return best_hyp, best_score


def oracle_corpus_bleu(hyps_per_sentence, refs) -> tuple[BleuResult, list]:
    """Corpus BLEU of the per-sentence oracle winners, and the winners."""
    if len(hyps_per_sentence) != len(refs):
        raise LengthMismatchError(
            f"{len(hyps_per_sentence)} candidate lists vs {len(refs)} references"
        )
    winners = [oracle_select(hyps, ref)[0] for hyps, ref in zip(hyps_per_sentence, refs)]
    return corpus_bleu(winners, refs), winners
