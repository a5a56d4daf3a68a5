"""Scalar reference implementations of the optimized layers.

These are the original one-token-at-a-time loops of `beam_search`,
`topk_sample` and `NGramScorer.next_dist`, the dict loop that counted the
grams of `ngram_train`, a number-by-number container writer for
`save_ngram_scorer` (packed with struct, not through the library's writer), a
gram -> count dict to `NGramScorer` conversion (`ngram_from_counts`), an
exhaustive search over every terminated sequence, the `next_dist`-based
loops of `sequence_logprob` and `noisy_channel_rerank`, the recount-every-pair
merge loop of `bpe_train`, a per-element loop for the checkpoint
mean of `average_checkpoint_files`, and the gram-by-gram language-id
features with the one-text classification over them, kept for the tests only. The library versions
must agree with them exactly (`==` on every float, merge and vocab id).
`reference_langid_train` is the exception: its descent sums one float at a
time, in its own order, so it agrees with the BLAS products of
`langid_train` to rounding, not bit for bit.
The reference beam always runs all max_len steps and applies the length
penalty with its own arithmetic, so it also checks the early stop of the
library version. A saturated beam must agree with `exact_search`, and so
must `bounded_exact_search`, the branch and bound that proves the top
sequences at sizes `exact_search` cannot enumerate.
`reference_score_ceiling` is the step-by-step loop that the early stop's
closed-form `_score_ceiling` must stay at or above.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import struct
import zlib
from array import array
from collections import Counter

import numpy as np

from mtkit.bpe import BOS, EOS, PAD, UNK, WORD_END, BpeModel
from mtkit.candidates import Candidate
from mtkit.corpus import _NGRAM_RANGE
from mtkit.decode import _MAX_STEP_LOGP, DecodeConfig, _log_dist
from mtkit.errors import ConfigError, EmptyInputError, NoCompletedHypothesisError
from mtkit.models import NGramScorer


def _reference_finish(entry, lam: float, alpha: float) -> Candidate:
    score, tokens, fwd_sum, lm_sum = entry
    n = len(tokens)
    return Candidate(
        tokens=tokens,
        fwd_logprob=fwd_sum,
        lm_logprob=lm_sum if lam > 0 else None,
        fused_score=score if alpha == 0 else score / ((5.0 + n) / 6.0) ** alpha,
    )


def reference_score_ceiling(score: float, steps: int, lam: float) -> float:
    """The score after `steps` steps that each add the largest log-probability
    the Scorer contract allows, with the search's own rounding.

    Rounding is monotone, so this bounds every score the search can reach
    from `score` in `steps` steps. Why decode._score_ceiling, the closed form
    score + (n*g + 2**-48 * n * (|score| + n*g)), is at or above it: write M =
    _MAX_STEP_LOGP, L = lam * M as rounded, g = M + L, u = 2**-53 and n =
    steps >= 1. A step from a float s rounds s + M to a float no further from
    s + M than s is, so it adds at most 2M, and at most M + u|s + M|; the
    same holds for adding L. So every s stays in [score, score + 2ng], one
    step adds at most g + u(2|s| + 3g), and the loop ends at most ng +
    un(2|score| + 3ng) above score. The closed form's seven roundings (no
    addition errs in the subnormal range, and no product comes near it) take
    at most about 7u off its slack 32un(|score| + ng), 4u·ng off its n*g and
    u|result| at the end, so it ends at least 23un(|score| + ng) above this
    loop, which is at least 11u|loop result|; an overflow only makes it inf.
    At n = 0 both return score.

    That margin is what the early stop's two-length check needs if float pow
    is not correctly rounded. An lp(n) one ulp off monotone moves the loop
    result divided by it by at most about 2u relative, which the margin
    absorbs, so the closed form divided by lp at the shortest or the longest
    remaining length still bounds the loop result divided by lp at any
    length between.
    """
    lm_gain = lam * _MAX_STEP_LOGP
    for _ in range(steps):
        score = score + _MAX_STEP_LOGP + lm_gain
    return score


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
                    completed.append(_reference_finish(entry, lam, cfg.length_penalty_alpha))
                else:
                    expansions.append(entry)
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beams = expansions[: cfg.beam_size]

    limit = min(cfg.n_candidates, cfg.beam_size)
    if completed:
        completed.sort(key=lambda c: (-c.fused_score, c.tokens))
        return completed[:limit]
    if beams:
        return [_reference_finish(beams[0], lam, cfg.length_penalty_alpha)]
    raise NoCompletedHypothesisError("all expansions hit zero-probability tokens")


def exact_search(fwd, lm, source, max_len: int, fusion_lambda: float = 0.0) -> Candidate:
    """Score every eos-terminated sequence of length <= max_len; return the argmax.

    Shares the beam recurrence arithmetic operation for operation, so it is
    a bit-exact oracle rather than an approximate one.
    """
    source = tuple(source)
    lam = fusion_lambda
    if lam > 0 and lm is None:
        raise ConfigError("fusion_lambda > 0 requires a language model")
    vocab_size = fwd.vocab_size
    eos = fwd.eos_id
    if vocab_size ** max_len > 10 ** 6:
        raise ConfigError(
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


def bounded_exact_search(fwd, lm, source, max_len: int, fusion_lambda: float = 0.0,
                         n_best: int = 1, budget: int = 10 ** 5) -> list[Candidate]:
    """The n_best best eos-terminated sequences of length <= max_len, best
    first, proven by a depth-first branch and bound (Stahlberg & Byrne 2019).

    Every sequence it reaches is scored with exact_search's arithmetic,
    operation for operation, and ranked by (-score, tokens), so its first
    candidate equals exact_search's. A node's children are expanded best
    first, so the first dive is greedy, and no incumbent is given from
    outside. A node is dropped only when reference_score_ceiling over its
    remaining steps, which under the Scorer contract bounds every completion
    below it, is strictly below the n_best-th completion found so far; a tie
    stays, since it can still win on tokens. The check runs when a node is
    pushed and again when it is popped, as completions found in between
    raise the bar. More than `budget` expansions raise ConfigError, so an
    unproven answer is never returned.
    """
    source = tuple(source)
    lam = fusion_lambda
    if lam > 0 and lm is None:
        raise ConfigError("fusion_lambda > 0 requires a language model")
    eos = fwd.eos_id
    best: list[Candidate] = []

    def kept(node) -> bool:
        tokens, score = node[0], node[1]
        return len(best) < n_best or reference_score_ceiling(
            score, max_len - len(tokens), lam) >= best[-1].fused_score

    # prefix (eos-free), score, fwd_sum, lm_sum
    stack = [((), 0.0, 0.0, 0.0)]
    expanded = 0
    while stack:
        node = stack.pop()
        if not kept(node):
            continue
        expanded += 1
        if expanded > budget:
            raise ConfigError(f"no proof within {budget} expansions")
        prefix, score, fwd_sum, lm_sum = node
        logf = _log_dist(fwd.next_dist(source, prefix))
        logl = _log_dist(lm.next_dist((), prefix)) if lam > 0 else None
        children = []
        for tok in range(fwd.vocab_size):
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
                best.append(Candidate(
                    tokens=tokens,
                    fwd_logprob=fwd_sum + flp,
                    lm_logprob=lm_sum + llp if lam > 0 else None,
                    fused_score=new_score,
                ))
                best.sort(key=lambda c: (-c.fused_score, c.tokens))
                del best[n_best:]
            elif len(tokens) < max_len:
                children.append((tokens, new_score, fwd_sum + flp, lm_sum + llp))
        # best first; the ceiling grows with the score, so once a child is
        # dropped every later one is too
        children.sort(key=lambda c: (-c[1], c[0]))
        stack.extend(reversed(list(itertools.takewhile(kept, children))))
    if not best:
        raise NoCompletedHypothesisError("no eos-terminated sequence has finite score")
    return best


def reference_topk_sample(fwd, source, cfg: DecodeConfig) -> Candidate:
    source = tuple(source)
    rng = random.Random(cfg.seed)
    eos = fwd.eos_id
    tokens: tuple[int, ...] = ()
    fwd_sum = 0.0
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
            break
    return Candidate(tokens=tokens, fwd_logprob=fwd_sum, fused_score=fwd_sum)


def reference_ngram_counts(corpus, order: int, eos_id: int) -> dict:
    """gram -> count of every k-gram (k <= order) of the non-empty id
    sequences, eos appended to each: the dict loop ngram_train ran before it
    counted with numpy."""
    counts: dict[tuple, int] = {}
    for seq in corpus:
        seq = list(seq)
        if not seq:
            continue
        toks = seq + [eos_id]
        for k in range(1, order + 1):
            for i in range(len(toks) - k + 1):
                gram = tuple(toks[i : i + k])
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def ngram_from_counts(order, vocab_size, eos_id, counts: dict, weights, floor) -> NGramScorer:
    """An NGramScorer over a gram -> count dict, its grams sorted into the
    per-length arrays the constructor takes."""
    grams: dict[int, tuple[array, array]] = {}
    for gram, c in sorted(counts.items()):
        ids, cnts = grams.setdefault(len(gram), (array("q"), array("q")))
        ids.extend(gram)
        cnts.append(c)
    return NGramScorer(order, vocab_size, eos_id, grams, weights, floor)


def ngram_gram_counts(model) -> dict:
    """gram -> count, read one gram at a time from a model's per-length arrays."""
    return {tuple(ids[i * k:i * k + k]): c
            for k, (ids, counts) in model.grams.items() for i, c in enumerate(counts)}


def reference_ngram_file(order, vocab_size, eos_id, counts: dict, weights, floor) -> bytes:
    """The n-gram container of a model built from a gram -> count dict,
    packed one number at a time with struct from the sorted dict: magic
    NMTC, u32 version 1, u64 header length, the compact sorted-key JSON
    header, then per gram length k the i64 tensors counts.<k> [n_k] and
    grams.<k> [n_k, k], all in sorted-name order."""
    by_len: dict[int, list] = {}
    for gram in sorted(counts):
        by_len.setdefault(len(gram), []).append(gram)
    payloads = {}
    for k, grams in by_len.items():
        payloads[f"counts.{k}"] = [len(grams)], b"".join(
            struct.pack("<q", counts[gram]) for gram in grams)
        payloads[f"grams.{k}"] = [len(grams), k], b"".join(
            struct.pack("<q", i) for gram in grams for i in gram)
    tensors, offset = [], 0
    for name in sorted(payloads):
        shape, payload = payloads[name]
        tensors.append({"dtype": "i64", "name": name, "offset": offset, "shape": shape})
        offset += len(payload)
    metadata = {"eos_id": eos_id, "floor": float(floor), "order": order,
                "vocab_size": vocab_size, "weights": [float(w) for w in weights]}
    header = json.dumps({"metadata": metadata, "tensors": tensors},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (b"NMTC" + struct.pack("<IQ", 1, len(header)) + header
            + b"".join(payloads[name][1] for name in sorted(payloads)))


def reference_ngram_next_dist(model, prefix) -> np.ndarray:
    """next_dist from count and total dicts built here from the model's grams,
    one token of the vocab at a time."""
    counts = ngram_gram_counts(model)
    totals: dict[tuple, int] = {}
    for gram, c in counts.items():
        totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
    prefix = tuple(prefix)
    interp = np.zeros(model.vocab_size)
    active = 0.0
    for k in range(1, model.order + 1):
        ctx = prefix[len(prefix) - (k - 1):] if k > 1 else ()
        total = totals.get(ctx, 0)
        if total == 0:
            continue
        w = model.weights[k - 1]
        active += w
        for tok in range(model.vocab_size):
            c = counts.get(ctx + (tok,), 0)
            if c:
                interp[tok] += w * c / total
    if active > 0:
        interp /= active
    else:
        interp[:] = 1.0 / model.vocab_size
    return (1.0 - model.floor * model.vocab_size) * interp + model.floor


def reference_sequence_logprob(scorer, source, tokens) -> float:
    """Sum of log next_dist(source, prefix)[token], reading the whole vector
    at every step; ids must lie in the scorer's vocab."""
    source = tuple(source)
    tokens = tuple(tokens)
    total = 0.0
    for i, tok in enumerate(tokens):
        p = float(scorer.next_dist(source, tokens[:i])[tok])
        total += math.log(p) if p > 0 else float("-inf")
    return total


def reference_noisy_channel_rerank(cands, rev, lm, lambda_ncr, source) -> list[tuple]:
    """(input index, rev_logprob, lm_logprob, combined score) per candidate,
    best first, ties in input order; the candidates are not modified."""
    rev_target = tuple(source) + (rev.eos_id,)
    rows = []
    for i, cand in enumerate(cands):
        rev_lp = reference_sequence_logprob(rev, cand.tokens, rev_target)
        lm_lp = reference_sequence_logprob(lm, (), cand.tokens)
        combined = cand.fwd_logprob if lambda_ncr == 0 else (
            cand.fwd_logprob + lambda_ncr * (rev_lp + lm_lp))
        rows.append((i, rev_lp, lm_lp, combined))
    return sorted(rows, key=lambda r: -r[3])


def reference_bpe_train(corpus, vocab_size: int) -> BpeModel:
    word_freqs: Counter[str] = Counter()
    for line in corpus:
        word_freqs.update(line.split())
    if not word_freqs:
        raise EmptyInputError("bpe_train: corpus contains no words")

    alphabet = sorted({ch for word in word_freqs for ch in word})
    base = [PAD, UNK, BOS, EOS, WORD_END] + alphabet
    if vocab_size <= len(base):
        raise ConfigError(
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


def reference_langid_features(text: str, n_features: int) -> np.ndarray:
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


def reference_langid_classify(model, text: str) -> tuple[str, float]:
    """langid_classify over reference_langid_features, one text at a time."""
    if not text.strip():
        raise EmptyInputError("cannot classify empty text")
    logits = reference_langid_features(text, model.n_features) @ model.weights + model.bias
    logits -= logits.max()
    exp = np.exp(logits)
    probs = exp / exp.sum()
    idx = int(probs.argmax())
    return model.langs[idx], float(probs[idx])


def reference_langid_train(labeled, seed: int, n_features: int, epochs: int, lr: float):
    """langid_train's full-batch descent over reference_langid_features,
    one float at a time, from the same default_rng weights; returns the
    sorted languages, the weights as n_features lists of one float per
    language, and the bias."""
    langs = sorted({lang for _, lang in labeled})
    rows = [reference_langid_features(text, n_features).tolist() for text, _ in labeled]
    targets = [[float(lang == code) for code in langs] for _, lang in labeled]
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=(n_features, len(langs))).tolist()
    b = [0.0] * len(langs)
    n = len(rows)
    for _ in range(epochs):
        grads = []
        for row, target in zip(rows, targets):
            logits = [sum(row[f] * w[f][j] for f in range(n_features)) + b[j]
                      for j in range(len(langs))]
            top = max(logits)
            exps = [math.exp(z - top) for z in logits]
            total = sum(exps)
            grads.append([e / total - t for e, t in zip(exps, target)])
        for f in range(n_features):
            for j in range(len(langs)):
                w[f][j] -= lr * sum(row[f] * g[j] for row, g in zip(rows, grads)) / n
        b = [b[j] - lr * sum(g[j] for g in grads) / n for j in range(len(langs))]
    return langs, w, b
