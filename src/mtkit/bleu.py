"""BLEU scoring (corpus and sentence level) and per-sentence oracle selection.

Scores are computed over already-tokenized sequences; callers choose the
tokenization (word tokens for reporting, ids for oracle selection over
decoder output) and strip any end-of-sentence marker first.

BLEU is one formula over summed integer statistics (Papineni et al. 2002):
`_stats` counts a pair's lengths and, per order, its clipped n-gram matches
and hypothesis n-grams; `_combine` turns a sum of such statistics into a
score. Corpus BLEU sums them over every pair and is the standard unsmoothed
4-gram formula. Sentence BLEU is the same formula on one pair, except that
a zero match count counts as 1e-9, so candidates can be ranked by real
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


def _stats(hyp: list, ref: list) -> list[int]:
    """[len(hyp), len(ref)], then for each order n = 1..MAX_ORDER the matches
    of hyp's n-grams in ref, each clipped at its count in ref, and the number
    of n-grams in hyp. An order longer than hyp gives 0 and 0."""
    stats = [len(hyp), len(ref)]
    for n in range(1, MAX_ORDER + 1):
        ref_counts = _ngram_counts(ref, n)
        stats += (sum(min(cnt, ref_counts[g]) for g, cnt in _ngram_counts(hyp, n).items()),
                  max(len(hyp) - n + 1, 0))
    return stats


def _combine(stats, floor: float) -> BleuResult:
    """The BLEU of summed `_stats`. An order with no hypothesis n-grams has
    precision 1, a zero match count counts as `floor`, and a zero precision
    zeroes the score. No hypothesis tokens score 0, with brevity penalty 0."""
    hyp_len, ref_len, *counts = stats
    precisions = tuple(max(m, floor) / t if t > 0 else 1.0
                       for m, t in zip(counts[::2], counts[1::2]))
    bp = 0.0 if hyp_len == 0 else 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 0.0
    if bp > 0.0 and 0.0 not in precisions:
        log_sum = 0.0  # added in order: sum() compensates its rounding from Python 3.12 on
        for p in precisions:
            log_sum += math.log(p)
        score = bp * math.exp(log_sum / MAX_ORDER) * 100.0
    return BleuResult(score, precisions, bp, hyp_len, ref_len)


def corpus_bleu(hyps, refs) -> BleuResult:
    """Unsmoothed BLEU of the statistics summed over every pair."""
    hyps = [list(h) for h in hyps]
    refs = [list(r) for r in refs]
    if len(hyps) != len(refs):
        raise LengthMismatchError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyInputError("corpus_bleu needs at least one sentence pair")
    return _combine([sum(col) for col in zip(*map(_stats, hyps, refs))], 0)


def sentence_bleu(hyp, ref) -> float:
    """BLEU of one pair, with zero match counts floored at 1e-9.

    Strictly monotone in n-gram matches at fixed lengths, which is what
    oracle selection needs. Empty hypothesis scores 0.
    """
    ref = list(ref)
    if not ref:
        raise EmptyInputError("sentence_bleu requires a non-empty reference")
    return _combine(_stats(list(hyp), ref), _EPS).score


def oracle_corpus_bleu(hyps_per_sentence, refs) -> tuple[BleuResult, list]:
    """Corpus BLEU of the per-sentence oracle winners, and the winners. Each
    winner is the first of its candidates with the best sentence BLEU;
    another selection can still have a higher corpus BLEU, which sums
    statistics first."""
    if len(hyps_per_sentence) != len(refs):
        raise LengthMismatchError(
            f"{len(hyps_per_sentence)} candidate lists vs {len(refs)} references"
        )
    if not all(hyps_per_sentence):
        raise EmptyInputError("oracle_corpus_bleu needs at least one candidate per sentence")
    winners = [max(hyps, key=lambda hyp: sentence_bleu(hyp, ref))
               for hyps, ref in zip(hyps_per_sentence, refs)]
    return corpus_bleu(winners, refs), winners
