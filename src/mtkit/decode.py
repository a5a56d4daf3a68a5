"""Decoding: beam search with optional shallow fusion, exhaustive exact
search (the test oracle), top-k sampled generation, and noisy-channel
re-ranking of beam candidates.

The partial-hypothesis score is the recurrence
    S(y_1..n) = S(y_1..n-1) + log P_fwd(y_n | y_<n, x) + lam_sf * log P_lm(y_n | y_<n)
with S(empty) = 0. The terminating eos is scored like any other token.
Exact search scores sequences with identical arithmetic (same operations,
same order), so saturated-beam agreement is bit-exact, not approximate.

Tie-breaking is (-score, token tuple, insertion order) everywhere: lower
token ids win, a prefix sorts before its extensions, earlier insertion
wins exact ties.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .bleu import corpus_bleu
from .errors import (
    EmptyCandidateListError,
    NoCompletedHypothesisError,
    SearchSpaceTooLargeError,
    VocabMismatchError,
)
from .models import _NORM_TOL, Scorer


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 4
    max_len: int = 50
    n_candidates: int = 15
    length_penalty_alpha: float = 0.0
    fusion_lambda: float = 0.0
    sample_k: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.beam_size < 1 or self.max_len < 1 or self.n_candidates < 1:
            raise ValueError("beam_size, max_len, n_candidates must be >= 1")
        if self.fusion_lambda < 0:
            raise ValueError("fusion_lambda must be >= 0")
        if self.sample_k < 1:
            raise ValueError("sample_k must be >= 1")


@dataclass
class Candidate:
    tokens: tuple[int, ...]
    fwd_logprob: float
    lm_logprob: float | None = None
    rev_logprob: float | None = None
    fused_score: float = 0.0
    completed: bool = True
    combined_score: float | None = None


def _length_penalty(n: int, alpha: float) -> float:
    return ((5.0 + n) / 6.0) ** alpha


def _log_dist(dist: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(dist)


def beam_search(fwd: Scorer, lm: Scorer | None, source, cfg: DecodeConfig) -> list[Candidate]:
    """Return up to min(n_candidates, beam_size) completed hypotheses.

    Every eos-expansion of a surviving partial is recorded. With a length
    penalty (alpha != 0) the search runs all max_len steps, so a saturated
    beam enumerates exactly the sequences exact_search does. With alpha == 0
    it stops early once no live partial can still reach the top
    min(n_candidates, beam_size) completions: under the Scorer contract a
    step adds at most log(1 + 1e-6) * (1 + lambda) to a score, so when the
    best live score plus that much per remaining step is still below the
    last kept completion, the remaining steps cannot change the result. If
    nothing completes, the best partial is returned alone with
    completed=False.

    Each step scores the (beams x V) matrix (score + log P_fwd) + lambda *
    log P_lm at once and sorts only the entries that can reach the beam, so
    every score and tie-break equals the one-token-at-a-time recurrence.
    """
    source = tuple(source)
    if not source:
        raise ValueError("source must be non-empty")
    lam = cfg.fusion_lambda
    if lam > 0:
        if lm is None:
            raise ValueError("fusion_lambda > 0 requires a language model")
        if lm.vocab_size != fwd.vocab_size:
            raise VocabMismatchError(
                f"lm vocab {lm.vocab_size} != forward vocab {fwd.vocab_size}"
            )
    vocab_size = fwd.vocab_size
    eos = fwd.eos_id
    alpha = cfg.length_penalty_alpha
    limit = min(cfg.n_candidates, cfg.beam_size)

    # (score, tokens, fwd_sum, lm_sum)
    beams = [(0.0, (), 0.0, 0.0)]
    completed: list[Candidate] = []
    kept = []  # min-heap of the `limit` best completed scores
    for step in range(cfg.max_len):
        if not beams:
            break
        logf = np.array(
            [_log_dist(fwd.next_dist(source, b[1])) for b in beams], dtype=np.float64
        )
        scores = np.array([b[0] for b in beams])[:, None] + logf
        if lam > 0:
            logl = np.array(
                [_log_dist(lm.next_dist((), b[1])) for b in beams], dtype=np.float64
            )
            scores += lam * logl

        def entry(row, tok):
            score, tokens, fwd_sum, lm_sum = beams[row]
            llp = float(logl[row, tok]) if lam > 0 else 0.0
            return (float(scores[row, tok]), tokens + (tok,),
                    fwd_sum + float(logf[row, tok]), lm_sum + llp)

        for row in np.flatnonzero(scores[:, eos] != -np.inf):
            cand = _finish(entry(row, eos), lam, alpha)
            completed.append(cand)
            heapq.heappush(kept, cand.fused_score)
            if len(kept) > limit:
                heapq.heappop(kept)

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

        if (alpha == 0 and beams and len(kept) == limit
                and _score_ceiling(beams[0][0], cfg.max_len - step - 1, lam) < kept[0]):
            break

    if completed:
        completed.sort(key=lambda c: (-c.fused_score, c.tokens))
        return completed[:limit]
    if beams:
        best = beams[0]
        flagged = _finish(best, lam, alpha)
        flagged.completed = False
        return [flagged]
    raise NoCompletedHypothesisError("all expansions hit zero-probability tokens")


# Largest log-probability a Scorer may return: a distribution may sum to
# 1 + _NORM_TOL, so one entry may be that large. The relative margin covers
# the rounding of the float log.
_MAX_STEP_LOGP = math.log1p(_NORM_TOL) * (1 + 1e-9)


def _score_ceiling(score: float, steps: int, lam: float) -> float:
    """Upper bound on the score of any extension of `score` by up to `steps` tokens.

    Repeats the recurrence with the largest log-probability the Scorer
    contract allows. Float rounding is monotone, so the bound also holds
    for the rounded scores the search computes.
    """
    lm_gain = lam * _MAX_STEP_LOGP
    for _ in range(steps):
        score = score + _MAX_STEP_LOGP + lm_gain
    return score


def _finish(entry, lam: float, alpha: float) -> Candidate:
    score, tokens, fwd_sum, lm_sum = entry
    fused = score if alpha == 0 else score / _length_penalty(len(tokens), alpha)
    return Candidate(
        tokens=tokens,
        fwd_logprob=fwd_sum,
        lm_logprob=lm_sum if lam > 0 else None,
        fused_score=fused,
    )


def exact_search(fwd: Scorer, lm: Scorer | None, source, max_len: int,
                 fusion_lambda: float = 0.0) -> Candidate:
    """Score every eos-terminated sequence of length <= max_len; return the argmax.

    Shares the beam recurrence arithmetic operation for operation, so it is
    a bit-exact oracle rather than an approximate one.
    """
    source = tuple(source)
    lam = fusion_lambda
    if lam > 0 and lm is None:
        raise ValueError("fusion_lambda > 0 requires a language model")
    vocab_size = fwd.vocab_size
    eos = fwd.eos_id
    if vocab_size ** max_len > 10 ** 6:
        raise SearchSpaceTooLargeError(
            f"{vocab_size}^{max_len} sequences exceed the enumeration budget"
        )

    best: Candidate | None = None
    # prefix (eos-free), score, fwd_sum, lm_sum
    stack = [((), 0.0, 0.0, 0.0)]
    while stack:
        prefix, score, fwd_sum, lm_sum = stack.pop()
        logf = _log_dist(fwd.next_dist(source, prefix))
        logl = _log_dist(lm.next_dist((), prefix)) if lam > 0 else None
        for tok in range(vocab_size):
            flp = float(logf[tok])
            if lam > 0:
                llp = float(logl[tok])
                new_score = score + flp + lam * llp
            else:
                llp = 0.0
                new_score = score + flp
            if new_score == float("-inf"):
                continue
            tokens = prefix + (tok,)
            if tok == eos:
                if (
                    best is None
                    or new_score > best.fused_score
                    or (new_score == best.fused_score and tokens < best.tokens)
                ):
                    best = Candidate(
                        tokens=tokens,
                        fwd_logprob=fwd_sum + flp,
                        lm_logprob=lm_sum + llp if lam > 0 else None,
                        fused_score=new_score,
                    )
            elif len(tokens) < max_len:
                stack.append((tokens, new_score, fwd_sum + flp, lm_sum + llp))
    if best is None:
        raise NoCompletedHypothesisError("no eos-terminated sequence has finite score")
    return best


def topk_sample(fwd: Scorer, source, cfg: DecodeConfig) -> Candidate:
    """Sample one sequence, drawing each step from the renormalized top-k.

    sample_k = 1 reduces to greedy decoding (argmax with lowest-id ties).
    fwd_logprob accumulates the raw model probabilities of the sampled
    tokens, not the renormalized ones.
    """
    source = tuple(source)
    rng = random.Random(cfg.seed)
    eos = fwd.eos_id
    tokens: tuple[int, ...] = ()
    fwd_sum = 0.0
    completed = False
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
            completed = True
            break
    return Candidate(
        tokens=tokens, fwd_logprob=fwd_sum, fused_score=fwd_sum, completed=completed
    )


def sequence_logprob(scorer: Scorer, source, tokens) -> float:
    """Independent recomputation: sum of per-step log next_dist[token].

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
        p = float(scorer.next_dist(source, tokens[:i])[tok])
        total += math.log(p) if p > 0 else float("-inf")
    return total


def noisy_channel_rerank(cands: list[Candidate], rev: Scorer, lm: Scorer,
                         lambda_ncr: float, source) -> list[Candidate]:
    """Re-rank candidates by fwd + lambda_ncr * (rev + lm) component sums.

    The forward term reuses each candidate's fwd_logprob from decoding (an
    ensemble forward pass already averaged there); the reverse model scores
    the source (plus its own eos) conditioned on the candidate; the language
    model scores the candidate unconditionally, including its eos. Returns a
    new sorted list over the same candidate objects; ties keep input order.
    """
    if lambda_ncr < 0:
        raise ValueError("lambda_ncr must be >= 0")
    if not cands:
        raise EmptyCandidateListError("nothing to re-rank")
    source = tuple(source)
    rev_target = source + (rev.eos_id,)
    for cand in cands:
        cand.rev_logprob = sequence_logprob(rev, cand.tokens, rev_target)
        cand.lm_logprob = sequence_logprob(lm, (), cand.tokens)
        if lambda_ncr == 0:
            cand.combined_score = cand.fwd_logprob
        else:
            cand.combined_score = (
                cand.fwd_logprob + lambda_ncr * (cand.rev_logprob + cand.lm_logprob))
    return sorted(cands, key=lambda c: -c.combined_score)


# ---------------------------------------------------------------------------
# batch drivers

def decode_batch(fwd: Scorer, lm: Scorer | None, sources, cfg: DecodeConfig):
    """Beam-decode many sources; output order follows input order."""
    return [beam_search(fwd, lm, s, cfg) for s in sources]


def sample_batch(fwd: Scorer, sources, cfg: DecodeConfig):
    """Sample one candidate per source with per-line seeds cfg.seed + index."""
    return [topk_sample(fwd, s, replace(cfg, seed=cfg.seed + i)) for i, s in enumerate(sources)]


# ---------------------------------------------------------------------------
# candidate dump format

def _fmt_opt(value: float | None) -> str:
    return "-" if value is None else repr(float(value))


def _parse_opt(text: str) -> float | None:
    return None if text == "-" else float(text)


def format_candidates(cands_per_sentence) -> list[str]:
    """One line per candidate: idx, rank, fwd, lm, rev, combined, tokens."""
    lines = []
    for idx, cands in enumerate(cands_per_sentence):
        for rank, cand in enumerate(cands):
            tokens = ",".join(str(t) for t in cand.tokens)
            lines.append(
                "\t".join(
                    [
                        str(idx),
                        str(rank),
                        repr(float(cand.fwd_logprob)),
                        _fmt_opt(cand.lm_logprob),
                        _fmt_opt(cand.rev_logprob),
                        _fmt_opt(cand.combined_score),
                        tokens,
                    ]
                )
            )
    return lines


def parse_candidates(lines, eos_id: int | None = None) -> list[list[Candidate]]:
    """Inverse of format_candidates; completion inferred from the last token."""
    sentences: dict[int, list[tuple[int, Candidate]]] = {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 7:
            raise ValueError(f"expected 7 tab-separated columns, got {len(cols)}")
        idx, rank = int(cols[0]), int(cols[1])
        tokens = tuple(int(t) for t in cols[6].split(",")) if cols[6] else ()
        cand = Candidate(
            tokens=tokens,
            fwd_logprob=float(cols[2]),
            lm_logprob=_parse_opt(cols[3]),
            rev_logprob=_parse_opt(cols[4]),
            fused_score=float(cols[2]),
            completed=(tokens[-1] == eos_id) if (eos_id is not None and tokens) else True,
            combined_score=_parse_opt(cols[5]),
        )
        sentences.setdefault(idx, []).append((rank, cand))
    return [
        [cand for _, cand in sorted(group, key=lambda rc: rc[0])]
        for _, group in sorted(sentences.items())
    ]


def grid_search_lambdas(fwd: Scorer, rev: Scorer, lm: Scorer, sources, refs,
                        cfg: DecodeConfig, sf_grid, ncr_grid):
    """Sweep fusion and re-rank weights against references; BLEU per point.

    Returns a list of (lambda_sf, lambda_ncr, bleu_score) tuples in grid
    order. refs are eos-free token id sequences.
    """
    refs = [list(r) for r in refs]
    results = []
    eos = fwd.eos_id
    for lam_sf in sf_grid:
        decode_cfg = replace(cfg, fusion_lambda=lam_sf)
        cands_per_sentence = decode_batch(fwd, lm, sources, decode_cfg)
        for lam_ncr in ncr_grid:
            winners = []
            for source, cands in zip(sources, cands_per_sentence):
                ranked = noisy_channel_rerank(cands, rev, lm, lam_ncr, source)
                body = list(ranked[0].tokens)
                if body and body[-1] == eos:
                    body = body[:-1]
                winners.append(body)
            results.append((lam_sf, lam_ncr, corpus_bleu(winners, refs).score))
    return results
