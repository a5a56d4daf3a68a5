"""Scalar reference implementations of the optimized layers.

These are the original one-token-at-a-time loops of `beam_search`,
`topk_sample` and `NGramScorer.next_dist`, the recount-every-pair
merge loop of `bpe_train`, and a per-element loop for the checkpoint
mean of `average_checkpoint_files`, kept for the tests only. The library versions
must agree with them exactly (`==` on every float, merge and vocab id).
The reference beam always runs all max_len steps, so it also checks the
early stop of the library version.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from mtkit.bpe import BOS, EOS, PAD, UNK, WORD_END, BpeModel
from mtkit.decode import Candidate, DecodeConfig, _finish, _log_dist
from mtkit.errors import EmptyCorpusError, NoCompletedHypothesisError, VocabTooSmallError


def reference_beam_search(fwd, lm, source, cfg: DecodeConfig) -> list[Candidate]:
    source = tuple(source)
    lam = cfg.fusion_lambda
    vocab_size = fwd.vocab_size
    eos = fwd.eos_id

    # (score, tokens, fwd_sum, lm_sum)
    beams = [(0.0, (), 0.0, 0.0)]
    completed: list[Candidate] = []
    for _ in range(cfg.max_len):
        if not beams:
            break
        expansions = []
        for score, tokens, fwd_sum, lm_sum in beams:
            logf = _log_dist(fwd.next_dist(source, tokens))
            logl = _log_dist(lm.next_dist((), tokens)) if lam > 0 else None
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
                entry = (new_score, tokens + (tok,), fwd_sum + flp, lm_sum + llp)
                if tok == eos:
                    completed.append(_finish(entry, lam, cfg.length_penalty_alpha))
                else:
                    expansions.append(entry)
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beams = expansions[: cfg.beam_size]

    limit = min(cfg.n_candidates, cfg.beam_size)
    if completed:
        completed.sort(key=lambda c: (-c.fused_score, c.tokens))
        return completed[:limit]
    if beams:
        best = beams[0]
        flagged = _finish(best, lam, cfg.length_penalty_alpha)
        flagged.completed = False
        return [flagged]
    raise NoCompletedHypothesisError("all expansions hit zero-probability tokens")


def reference_topk_sample(fwd, source, cfg: DecodeConfig) -> Candidate:
    source = tuple(source)
    rng = random.Random(cfg.seed)
    eos = fwd.eos_id
    tokens: tuple[int, ...] = ()
    fwd_sum = 0.0
    completed = False
    for _ in range(cfg.max_len):
        dist = fwd.next_dist(source, tokens)
        order = sorted(range(fwd.vocab_size), key=lambda t: (-dist[t], t))
        top = order[: cfg.sample_k]
        total = float(sum(dist[t] for t in top))
        r = rng.random() * total
        chosen = top[-1]
        acc = 0.0
        for t in top:
            acc += float(dist[t])
            if r < acc:
                chosen = t
                break
        p = float(dist[chosen])
        fwd_sum += math.log(p) if p > 0 else float("-inf")
        tokens += (chosen,)
        if chosen == eos:
            completed = True
            break
    return Candidate(
        tokens=tokens, fwd_logprob=fwd_sum, fused_score=fwd_sum, completed=completed
    )


def reference_ngram_next_dist(model, prefix) -> np.ndarray:
    prefix = tuple(prefix)
    interp = np.zeros(model.vocab_size)
    active = 0.0
    for k in range(1, model.order + 1):
        ctx = prefix[len(prefix) - (k - 1):] if k > 1 else ()
        total = model.totals.get(ctx, 0)
        if total == 0:
            continue
        w = model.weights[k - 1]
        active += w
        for tok in range(model.vocab_size):
            c = model.counts.get(ctx + (tok,), 0)
            if c:
                interp[tok] += w * c / total
    if active > 0:
        interp /= active
    else:
        interp[:] = 1.0 / model.vocab_size
    return (1.0 - model.floor * model.vocab_size) * interp + model.floor


def reference_bpe_train(corpus, vocab_size: int) -> BpeModel:
    word_freqs: Counter[str] = Counter()
    for line in corpus:
        word_freqs.update(line.split())
    if not word_freqs:
        raise EmptyCorpusError("bpe_train: corpus contains no words")

    alphabet = sorted({ch for word in word_freqs for ch in word})
    base = [PAD, UNK, BOS, EOS, WORD_END] + alphabet
    if vocab_size <= len(base):
        raise VocabTooSmallError(
            f"vocab_size {vocab_size} <= base symbol count {len(base)} (no room for merges)"
        )

    words = {word: tuple(word) + (WORD_END,) for word in word_freqs}
    merges: list[tuple[str, str]] = []
    while len(base) + len(merges) < vocab_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for word, symbols in words.items():
            freq = word_freqs[word]
            for i in range(len(symbols) - 1):
                pair_counts[(symbols[i], symbols[i + 1])] += freq
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        merged = best[0] + best[1]
        for word, symbols in words.items():
            if merged not in word + WORD_END:
                continue
            out = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            words[word] = tuple(out)

    vocab = {tok: i for i, tok in enumerate(base)}
    for left, right in merges:
        sym = left + right
        if sym not in vocab:
            vocab[sym] = len(vocab)
    return BpeModel(merges=merges, vocab=vocab, vocab_size=vocab_size)


def reference_checkpoint_mean(tensor_sets: list[dict]) -> dict:
    """Per element: sort the k values as Python floats, add them up one by
    one, divide by k and round to f32."""
    k = len(tensor_sets)
    out = {}
    for name in tensor_sets[0]:
        arrays = [np.asarray(tensors[name], dtype=np.float32) for tensors in tensor_sets]
        means = []
        for values in zip(*(a.ravel().tolist() for a in arrays)):
            total = 0.0
            for v in sorted(values):
                total += v
            means.append(np.float32(total / k))
        out[name] = np.array(means, dtype=np.float32).reshape(arrays[0].shape)
    return out
