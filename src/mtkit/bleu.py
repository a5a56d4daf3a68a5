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
from collections import Counter, namedtuple

from .errors import EmptyInputError, LengthMismatchError

MAX_ORDER = 4
_EPS = 1e-9


# score lies in [0, 100]; precisions holds one float per order 1..MAX_ORDER
BleuResult = namedtuple("BleuResult", "score precisions brevity_penalty hyp_len ref_len")


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _ngram_stats(hyp: list, ref: list) -> list[tuple[int, int]]:
    """Per order n = 1..min(len(hyp), MAX_ORDER): (matches of hyp's n-grams
    in ref, each clipped at its count in ref, number of n-grams in hyp)."""
    stats = []
    for n in range(1, min(len(hyp), MAX_ORDER) + 1):
        ref_counts = _ngram_counts(ref, n)
        stats.append((sum(min(cnt, ref_counts[g]) for g, cnt in _ngram_counts(hyp, n).items()),
                      len(hyp) - n + 1))
    return stats


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
        for i, (m, n_grams) in enumerate(_ngram_stats(hyp, ref)):
            matched[i] += m
            total[i] += n_grams

    precisions = tuple(m / t if t > 0 else 1.0 for m, t in zip(matched, total))
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
    for m, n_grams in _ngram_stats(hyp, ref):  # an order past len(hyp) adds log(1) == 0
        log_sum += math.log((m if m > 0 else _EPS) / n_grams)
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_sum / MAX_ORDER) * 100.0


def oracle_select(hyps, ref):
    """Return (best hypothesis, its sentence BLEU); first index wins ties."""
    if not hyps:
        raise EmptyInputError("oracle_select requires at least one candidate")
    scores = [sentence_bleu(hyp, ref) for hyp in hyps]
    best = scores.index(max(scores))
    return hyps[best], scores[best]


def oracle_corpus_bleu(hyps_per_sentence, refs) -> tuple[BleuResult, list]:
    """Corpus BLEU of the per-sentence oracle winners, and the winners."""
    if len(hyps_per_sentence) != len(refs):
        raise LengthMismatchError(
            f"{len(hyps_per_sentence)} candidate lists vs {len(refs)} references"
        )
    winners = [oracle_select(hyps, ref)[0] for hyps, ref in zip(hyps_per_sentence, refs)]
    return corpus_bleu(winners, refs), winners
