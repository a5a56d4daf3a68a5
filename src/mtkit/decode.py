"""Decoding: beam search with optional shallow fusion and a length
penalty, top-k sampled generation, and noisy-channel re-ranking of beam
candidates, which returns new candidates and leaves its input as it was.

The partial-hypothesis score is the recurrence
    S(y_1..n) = S(y_1..n-1) + log P_fwd(y_n | y_<n, x) + lam_sf * log P_lm(y_n | y_<n)
with S(empty) = 0. The terminating eos is scored like any other token.
The exhaustive search in the tests (tests/scalar_reference.py) scores
sequences with identical arithmetic (same operations, same order), so
saturated-beam agreement is bit-exact, not approximate.

Tie-breaking is (-score, token tuple, insertion order) everywhere: lower
token ids win, a prefix sorts before its extensions, earlier insertion
wins exact ties.

numpy is imported inside the search and sampling functions. Re-ranking
reads one probability per token through Scorer.token_prob, so re-ranking
with n-gram models runs without loading numpy. grid_search_lambdas, the one
user of BLEU here, imports mtkit.bleu itself, so decode and rerank do not.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from typing import TYPE_CHECKING

from .candidates import Candidate, strip_eos
from .errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
    NoCompletedHypothesisError,
    VocabMismatchError,
    check_seed,
)
from .models import _NORM_TOL, Scorer, check_same_vocab

if TYPE_CHECKING:
    import numpy as np


class DecodeConfig(namedtuple("DecodeConfig", "beam_size max_len n_candidates "
                              "length_penalty_alpha fusion_lambda sample_k seed",
                              defaults=(4, 50, 15, 0.0, 0.0, 500, 0))):
    """Search and sampling settings, checked whenever a config is built,
    _replace included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.beam_size < 1 or self.max_len < 1 or self.n_candidates < 1:
            raise ConfigError("beam_size, max_len, n_candidates must be >= 1")
        if not 0 <= self.fusion_lambda < math.inf:
            raise ConfigError(f"fusion_lambda must be finite and >= 0, got {self.fusion_lambda}")
        if not math.isfinite(self.length_penalty_alpha):
            raise ConfigError(f"length_penalty_alpha must be finite, got {self.length_penalty_alpha}")
        # lp(n) is monotone in n, so its values at 0 and max_len bound every
        # lp(n) that beam_search divides by
        try:
            ends = [_length_penalty(n, self.length_penalty_alpha) for n in (0, self.max_len)]
        except OverflowError:
            ends = [math.inf]
        if not all(0 < lp < math.inf for lp in ends):
            raise ConfigError(f"length_penalty_alpha {self.length_penalty_alpha} puts the "
                              f"length penalty out of float range within max_len {self.max_len}")
        if self.sample_k < 1:
            raise ConfigError("sample_k must be >= 1")
        check_seed(self.seed)
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so derived configs are checked
        return cls(*fields)


def _length_penalty(n: int, alpha: float) -> float:
    return ((5.0 + n) / 6.0) ** alpha


def beam_search(fwd: Scorer, lm: Scorer | None, source, cfg: DecodeConfig) -> list[Candidate]:
    """Return up to min(n_candidates, beam_size) completed hypotheses.

    Every eos-expansion of a surviving partial is scored; a completion's
    fused score is its score divided by the length penalty lp(n) =
    ((5 + n) / 6) ** alpha of its length n (Wu et al. 2016), which is 1 at
    alpha = 0. The search stops before max_len once no live partial can
    still reach the top min(n_candidates, beam_size) completions (Huang et
    al. 2017). Under the Scorer contract a step adds at most
    log(1 + 1e-6) * (1 + lambda) to a score, so the best live score plus
    that much per remaining step bounds the score c of any later
    completion. lp is monotone in n and division by a positive number is
    monotone under rounding, so its fused score is at most the larger c /
    lp(n) of the shortest and the longest length n it can still have; once
    that is below the last kept completion, the remaining steps cannot
    change the result. If nothing completes, the best partial is returned
    alone; its last token is not eos.

    Each step scores the (beams x V) matrix (score + log P_fwd) + lambda *
    log P_lm at once and sorts only the entries that can reach the beam, so
    every score and tie-break equals the one-token-at-a-time recurrence.
    """
    import numpy as np
    source = tuple(source)
    if not source:
        raise EmptyInputError("source must be non-empty")
    check_fusion(fwd, lm, cfg.fusion_lambda)
    lam = cfg.fusion_lambda
    vocab_size = fwd.vocab_size
    eos = fwd.eos_id
    alpha = cfg.length_penalty_alpha
    limit = min(cfg.n_candidates, cfg.beam_size)

    # (score, tokens, fwd_sum, lm_sum)
    beams = [(0.0, (), 0.0, 0.0)]
    completed: list[Candidate] = []  # the `limit` best so far, best first
    for step in range(cfg.max_len):
        if not beams:
            break
        with np.errstate(divide="ignore"):
            logf = np.log([fwd.next_dist(source, b[1]) for b in beams], dtype=np.float64)
            if lam > 0:
                logl = np.log([lm.next_dist((), b[1]) for b in beams], dtype=np.float64)
        scores = np.array([b[0] for b in beams])[:, None] + logf
        if lam > 0:
            scores += lam * logl

        def entry(row, tok):
            score, tokens, fwd_sum, lm_sum = beams[row]
            llp = float(logl[row, tok]) if lam > 0 else 0.0
            return (float(scores[row, tok]), tokens + (tok,),
                    fwd_sum + float(logf[row, tok]), lm_sum + llp)

        for row in np.flatnonzero(scores[:, eos] != -np.inf):
            completed.append(_finish(entry(row, eos), lam, alpha))
        completed.sort(key=lambda c: (-c.fused_score, c.tokens))
        del completed[limit:]

        scores[:, eos] = -np.inf
        flat = scores.ravel()
        live = flat > -np.inf
        if np.count_nonzero(live) > cfg.beam_size:
            cut = flat.size - cfg.beam_size
            live = flat >= np.partition(flat, cut)[cut]
        picked = np.flatnonzero(live)
        rows, toks = np.divmod(picked, vocab_size)
        # the scalar sort key (-score, tokens): tokens compare as (parent
        # tokens, token), and all parents have the same length
        by_tokens = sorted(range(len(beams)), key=lambda i: beams[i][1])
        parent_rank = np.empty(len(beams), dtype=np.intp)
        parent_rank[by_tokens] = np.arange(len(beams))
        order = np.lexsort((toks, parent_rank[rows], -flat[picked]))[: cfg.beam_size]
        beams = [entry(int(rows[i]), int(toks[i])) for i in order]

        if beams and step + 1 < cfg.max_len and len(completed) == limit:
            ceiling = _score_ceiling(beams[0][0], cfg.max_len - step - 1, lam)
            if max(ceiling / _length_penalty(n, alpha)
                   for n in (step + 2, cfg.max_len)) < completed[-1].fused_score:
                break

    if completed:
        return completed
    if beams:
        return [_finish(beams[0], lam, alpha)]
    raise NoCompletedHypothesisError("all expansions hit zero-probability tokens")


# Largest log-probability a Scorer may return: a distribution may sum to
# 1 + _NORM_TOL, so one entry may be that large. The relative margin covers
# the rounding of the float log.
_MAX_STEP_LOGP = math.log1p(_NORM_TOL) * (1 + 1e-9)


def _score_ceiling(score: float, steps: int, lam: float) -> float:
    """Upper bound on the score of any extension of `score` by up to `steps` tokens.

    A closed form at or above reference_score_ceiling in
    tests/scalar_reference.py, the loop that repeats the recurrence with the
    largest step the Scorer contract allows; its docstring gives the rounding
    argument. The slack also covers an lp(n) an ulp off monotone, so the two
    end lengths beam_search checks bound every length between.
    """
    gain = _MAX_STEP_LOGP + lam * _MAX_STEP_LOGP
    return score + (steps * gain + steps * 2**-48 * (abs(score) + steps * gain))


def _finish(entry, lam: float, alpha: float) -> Candidate:
    score, tokens, fwd_sum, lm_sum = entry
    return Candidate(
        tokens=tokens,
        fwd_logprob=fwd_sum,
        lm_logprob=lm_sum if lam > 0 else None,
        fused_score=score / _length_penalty(len(tokens), alpha),
    )


def topk_sample(fwd: Scorer, source, cfg: DecodeConfig) -> Candidate:
    """Sample one sequence, drawing each step from the renormalized top-k.

    sample_k = 1 reduces to greedy decoding (argmax with lowest-id ties).
    fwd_logprob accumulates the raw model probabilities of the sampled
    tokens, not the renormalized ones.
    """
    import numpy as np
    source = tuple(source)
    if not source:
        raise EmptyInputError("source must be non-empty")
    rng = random.Random(cfg.seed)
    eos = fwd.eos_id
    tokens: tuple[int, ...] = ()
    fwd_sum = 0.0
    for _ in range(cfg.max_len):
        dist = fwd.next_dist(source, tokens)
        # descending probability, lowest id first among ties
        top = np.argsort(-dist, kind="stable")[: cfg.sample_k]
        acc = np.cumsum(dist[top])  # sequential, like a running float sum
        r = rng.random() * float(acc[-1])
        chosen = int(top[min(int(np.searchsorted(acc, r, side="right")), len(top) - 1)])
        p = float(dist[chosen])
        fwd_sum += math.log(p) if p > 0 else float("-inf")
        tokens += (chosen,)
        if chosen == eos:
            break
    return Candidate(tokens=tokens, fwd_logprob=fwd_sum, fused_score=fwd_sum)


def sequence_logprob(scorer: Scorer, source, tokens) -> float:
    """Independent recomputation: the sum over steps of log P(token | source,
    earlier tokens), each probability read with scorer.token_prob, which
    equals next_dist(source, prefix)[token] bit for bit. An n-gram scorer
    answers it with a few dict lookups, without building a distribution.

    Raises VocabMismatchError when a source or target id lies outside the
    scorer's vocab [0, vocab_size).
    """
    source = tuple(source)
    tokens = tuple(tokens)
    for what, ids in (("source", source), ("token", tokens)):
        bad = [t for t in ids if not 0 <= t < scorer.vocab_size]
        if bad:
            raise VocabMismatchError(
                f"{what} id {bad[0]} outside the scorer vocab [0, {scorer.vocab_size})"
            )
    total = 0.0
    for i, tok in enumerate(tokens):
        p = scorer.token_prob(source, tokens[:i], tok)
        total += math.log(p) if p > 0 else float("-inf")
    return total


def check_fusion(fwd: Scorer, lm: Scorer | None, fusion_lambda: float) -> None:
    """Refuse fusion_lambda > 0 without an lm of fwd's vocab; decode_batch runs
    it once first, so an empty input is checked too."""
    if fusion_lambda > 0:
        if lm is None:
            raise ConfigError("fusion_lambda > 0 requires a language model")
        check_same_vocab((fwd, lm), "forward and lm")


def check_lambda_ncr(lambda_ncr: float) -> None:
    """Raise ConfigError unless lambda_ncr is finite and >= 0; a caller that
    re-ranks sentence by sentence runs it once first, so an empty input is
    checked too."""
    if not 0 <= lambda_ncr < math.inf:
        raise ConfigError(f"lambda_ncr must be finite and >= 0, got {lambda_ncr}")


def noisy_channel_rerank(cands: list[Candidate], rev: Scorer, lm: Scorer,
                         lambda_ncr: float, source) -> list[Candidate]:
    """Re-rank candidates by fwd + lambda_ncr * (rev + lm) component sums.

    The forward term reuses each candidate's fwd_logprob from decoding (an
    ensemble forward pass already averaged there); the reverse model scores
    the source (plus its own eos) conditioned on the candidate; the language
    model scores the candidate unconditionally, including its eos. Returns
    new candidates with rev_logprob, lm_logprob and combined_score filled,
    best first; ties keep input order. The input is left as it was.
    """
    check_lambda_ncr(lambda_ncr)
    if not cands:
        raise EmptyInputError("nothing to re-rank")
    return _combine_and_sort(_rerank_features(cands, rev, lm, source), lambda_ncr)


def _rerank_features(cands, rev: Scorer, lm: Scorer, source) -> list[Candidate]:
    """The candidates with rev_logprob and lm_logprob filled; neither depends
    on lambda_ncr, so a sweep over it computes them once."""
    rev_target = tuple(source) + (rev.eos_id,)
    return [cand._replace(rev_logprob=sequence_logprob(rev, cand.tokens, rev_target),
                          lm_logprob=sequence_logprob(lm, (), cand.tokens)) for cand in cands]


def _combine_and_sort(cands, lambda_ncr: float) -> list[Candidate]:
    """The featured candidates with combined_score filled, best first, ties
    in input order (a stable sort)."""
    combined = [cand._replace(combined_score=cand.fwd_logprob if lambda_ncr == 0 else
                              cand.fwd_logprob + lambda_ncr * (cand.rev_logprob + cand.lm_logprob))
                for cand in cands]
    return sorted(combined, key=lambda c: -c.combined_score)


# ---------------------------------------------------------------------------
# batch drivers

def decode_batch(fwd: Scorer, lm: Scorer | None, sources, cfg: DecodeConfig):
    """Beam-decode many sources; output order follows input order."""
    check_fusion(fwd, lm, cfg.fusion_lambda)
    return [beam_search(fwd, lm, s, cfg) for s in sources]


def grid_search_lambdas(fwd: Scorer, rev: Scorer, lm: Scorer, sources, refs,
                        cfg: DecodeConfig, sf_grid, ncr_grid):
    """Sweep fusion and re-rank weights against references; BLEU per point.

    Returns a list of (lambda_sf, lambda_ncr, bleu_score) tuples in grid
    order. refs are eos-free token id sequences, one per source. The
    reference count and every grid value are checked before the first decode.
    Each decode's candidates are scored by rev and lm once, for every lambda_ncr.
    """
    from .bleu import corpus_bleu
    refs = [list(r) for r in refs]
    if len(refs) != len(sources):
        raise LengthMismatchError(f"{len(sources)} sources vs {len(refs)} references")
    for lam_ncr in ncr_grid:
        check_lambda_ncr(lam_ncr)
    configs = [cfg._replace(fusion_lambda=lam_sf) for lam_sf in sf_grid]
    results = []
    for lam_sf, decode_cfg in zip(sf_grid, configs):
        featured = [_rerank_features(cands, rev, lm, source) for source, cands
                    in zip(sources, decode_batch(fwd, lm, sources, decode_cfg))]
        for lam_ncr in ncr_grid:
            winners = [strip_eos(_combine_and_sort(cands, lam_ncr)[0].tokens, fwd.eos_id)
                       for cands in featured]
            results.append((lam_sf, lam_ncr, corpus_bleu(winners, refs).score))
    return results
