"""Corpus/sentence BLEU and oracle selection."""

import hashlib
import itertools
import math
import random

import pytest

from mtkit.bleu import (
    BleuResult,
    corpus_bleu,
    oracle_corpus_bleu,
    sentence_bleu,
)
from mtkit.candidates import strip_eos
from mtkit.errors import EmptyInputError, LengthMismatchError

# ---------------------------------------------------------------------------
# corpus_bleu


def test_perfect_match_is_100():
    refs = [["the", "cat", "sat"], ["a", "dog", "ran", "off"]]
    r = corpus_bleu(refs, refs)
    assert r.score == 100.0
    assert r.brevity_penalty == 1.0
    assert r.precisions == (1.0, 1.0, 1.0, 1.0)
    assert r.hyp_len == r.ref_len == 7


def test_short_hyp_hand_computed():
    # hyp "the cat" vs ref "the cat sat":
    #   p1 = 2/2, p2 = 1/1, p3 and p4 have no hyp n-grams -> precision 1
    #   BP = exp(1 - 3/2); score = 100 * exp(-0.5)
    r = corpus_bleu([["the", "cat"]], [["the", "cat", "sat"]])
    assert r.precisions == (1.0, 1.0, 1.0, 1.0)
    assert r.brevity_penalty == math.exp(1.0 - 3.0 / 2.0)
    assert r.score == 100.0 * math.exp(-0.5)
    assert r.score == 60.653065971263345


def test_disjoint_unigrams_score_zero():
    r = corpus_bleu([["x", "y", "z"]], [["a", "b", "c"]])
    assert r.score == 0.0
    assert r.precisions[0] == 0.0


def test_zero_score_iff_zero_precision():
    # one matched unigram, no matched bigram -> p2 = 0 -> score 0
    r = corpus_bleu([["the", "q"]], [["the", "cat", "sat"]])
    assert r.precisions[1] == 0.0 and r.score == 0.0


def test_score_recomputable_from_fields():
    hyps = [["the", "cat", "sat", "on", "the", "mat", "today"], ["a", "dog", "ran", "far"]]
    refs = [["the", "cat", "sat", "on", "the", "mat", "now"], ["a", "dog", "ran", "far", "away"]]
    r = corpus_bleu(hyps, refs)
    expect = r.brevity_penalty * math.exp(
        sum(math.log(p) for p in r.precisions) / 4.0
    ) * 100.0
    assert r.score == pytest.approx(expect, abs=1e-12)


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_empty_corpus():
    with pytest.raises(EmptyInputError):
        corpus_bleu([], [])


def test_all_empty_hyps_score_zero():
    r = corpus_bleu([[]], [["a", "b"]])
    assert r.score == 0.0 and r.brevity_penalty == 0.0 and r.hyp_len == 0


def test_permutation_invariance():
    rng = random.Random(17)
    vocab = list("abcdefg")
    hyps = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(30)]
    refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(30)]
    base = corpus_bleu(hyps, refs)
    order = list(range(30))
    for _ in range(5):
        rng.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == base


def test_corpus_aggregation_not_sentence_average():
    # two pairs where aggregate counts differ from averaging per-sentence scores
    hyps = [["a", "b"], ["c"]]
    refs = [["a", "b"], ["d"]]
    r = corpus_bleu(hyps, refs)
    # aggregate p1 = (2+0)/(2+1); the one-token pair adds no bigram slots
    assert r.precisions[0] == pytest.approx(2 / 3)
    assert r.precisions[1] == 1.0


def test_clipping_counts_repeats():
    # "the the the" vs "the cat": clipped unigram matches = 1
    r = corpus_bleu([["the", "the", "the"]], [["the", "cat"]])
    assert r.precisions[0] == pytest.approx(1 / 3)


def test_ids_work_as_tokens():
    r = corpus_bleu([[1, 2, 3]], [[1, 2, 3]])
    assert r.score == 100.0


def _random_corpora(n, seed):
    """n corpora of 1-6 id pairs over alphabets of 2-20 ids, every side 0-15
    long. Half the references edit their hypothesis (substitutions, then a
    cut or random extension), so that higher orders match too."""
    rng = random.Random(seed)
    for _ in range(n):
        alphabet = rng.randint(2, 20)
        pairs = []
        for _ in range(rng.randint(1, 6)):
            hyp = [rng.randrange(alphabet) for _ in range(rng.randint(0, 15))]
            ref = ([t if rng.random() < 0.8 else rng.randrange(alphabet) for t in hyp]
                   if rng.random() < 0.5 else [])
            ref = (ref + [rng.randrange(alphabet) for _ in range(15)])[:rng.randint(0, 15)]
            pairs.append((hyp, ref))
        yield pairs


def test_bleu_bits_match_the_golden_digest():
    # float.hex of every corpus_bleu field and of sentence_bleu for every
    # pair with a reference, over 2000 seeded corpora. The digest was
    # recorded with the earlier, separate corpus and sentence formulas, so
    # it pins their bits.
    digest = hashlib.sha256()
    seen = dict.fromkeys(("empty hyp", "ref shorter", "repeated bigram", "zero", "positive"), 0)
    for pairs in _random_corpora(2000, 37):
        r = corpus_bleu([h for h, _ in pairs], [ref for _, ref in pairs])
        fields = [*map(float.hex, (r.score, *r.precisions, r.brevity_penalty)),
                  str(r.hyp_len), str(r.ref_len)]
        digest.update(" ".join(fields).encode())
        for hyp, ref in pairs:
            if ref:
                digest.update(b" " + float.hex(sentence_bleu(hyp, ref)).encode())
        digest.update(b"\n")
        seen["empty hyp"] += sum(not h for h, _ in pairs)
        seen["ref shorter"] += sum(len(ref) < len(h) for h, ref in pairs)
        seen["repeated bigram"] += sum(len(set(zip(h, h[1:]))) < len(h) - 1 for h, _ in pairs)
        seen["zero" if r.score == 0.0 else "positive"] += 1
    assert min(seen.values()) > 100, seen
    assert digest.hexdigest() == "cb0b18533d058cb8e8d9f06f728f05639d1daf9d7c699c5d927b03e8a5b73cc8"


# ---------------------------------------------------------------------------
# sentence_bleu


def test_sentence_identity_100():
    assert sentence_bleu(["a", "b", "c"], ["a", "b", "c"]) == 100.0


def test_sentence_identity_100_randomized():
    rng = random.Random(3)
    for _ in range(50):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(1, 10))]
        assert sentence_bleu(hyp, list(hyp)) == 100.0


def test_sentence_monotone_in_bigram_matches():
    ref = ["a", "b", "c", "d"]
    better = ["a", "b", "d", "c"]  # bigram "a b" matches
    worse = ["b", "a", "d", "c"]  # same unigrams, no matching bigram
    assert sentence_bleu(better, ref) > sentence_bleu(worse, ref)


def test_sentence_empty_hyp_zero():
    assert sentence_bleu([], ["a"]) == 0.0


def test_sentence_empty_ref_raises():
    with pytest.raises(EmptyInputError):
        sentence_bleu(["a"], [])


def test_sentence_smoothed_nonzero_on_partial_match():
    score = sentence_bleu(["a", "x"], ["a", "b"])
    assert 0.0 < score < 100.0


def test_sentence_agrees_with_corpus_when_unsmoothed_defined():
    # all n-gram orders have nonzero matches: smoothing never kicks in
    hyp = ["the", "cat", "sat", "on", "the", "mat"]
    ref = ["the", "cat", "sat", "on", "a", "mat"]
    assert sentence_bleu(hyp, ref) == pytest.approx(corpus_bleu([hyp], [ref]).score, abs=1e-12)


# ---------------------------------------------------------------------------
# oracle selection


def test_oracle_picks_reference_itself():
    ref = ["a", "b", "c"]
    cands = [["a", "x", "c"], ["a", "b", "c"], ["b", "a"]]
    oracle, winners = oracle_corpus_bleu([cands], [ref])
    assert winners == [["a", "b", "c"]] and oracle.score == 100.0


def test_oracle_single_candidate():
    oracle, winners = oracle_corpus_bleu([[["q"]]], [["a", "b"]])
    assert winners == [["q"]] and oracle.score == 0.0


def test_oracle_empty_candidates():
    with pytest.raises(EmptyInputError):
        oracle_corpus_bleu([[["a"]], []], [["a"], ["b"]])


def test_oracle_first_index_wins_ties():
    ref = ["a", "b"]
    first = ["a", "b"]
    second = ["a", "b"]
    _, winners = oracle_corpus_bleu([[first, second]], [ref])
    assert winners[0] is first


def test_oracle_four_way_hand_comparison():
    ref = ["the", "cat", "sat", "down"]
    cands = [
        ["the", "dog", "sat", "down"],
        ["the", "cat", "sat", "down"],
        ["the", "cat", "ran", "down"],
        ["down", "sat", "cat", "the"],
    ]
    scores = [sentence_bleu(c, ref) for c in cands]
    assert max(range(4), key=lambda i: scores[i]) == 1
    oracle, winners = oracle_corpus_bleu([cands], [ref])
    assert winners[0] is cands[1] and oracle.score == 100.0


def test_oracle_strips_trailing_eos():
    # oracle-bleu strips one trailing eos from each candidate before scoring
    assert strip_eos((1, 2, 99), 99) == [1, 2]
    assert strip_eos([1, 99, 99], 99) == [1, 99]  # one eos only
    assert strip_eos((99, 1), 99) == [99, 1]  # not trailing
    assert strip_eos((), 99) == []
    assert strip_eos((1, 99), None) == [1, 99]  # no eos id, no strip
    ref = [1, 2]
    hyps = [strip_eos(c, 99) for c in ([1, 9, 99], [1, 2, 99], [1, 2])]
    oracle, winners = oracle_corpus_bleu([hyps], [ref])
    assert winners[0] is hyps[1] and winners[0] == [1, 2] and oracle.score == 100.0


def test_oracle_corpus_dominates_rank1():
    rng = random.Random(29)
    vocab = [0, 1, 2, 3]
    refs, cand_lists = [], []
    for _ in range(40):
        ref = [rng.choice(vocab) for _ in range(rng.randint(2, 6))]
        cands = [[rng.choice(vocab) for _ in range(rng.randint(1, 7))] for _ in range(5)]
        refs.append(ref)
        cand_lists.append(cands)
    oracle, winners = oracle_corpus_bleu(cand_lists, refs)
    rank1 = corpus_bleu([c[0] for c in cand_lists], refs)
    assert oracle.score >= rank1.score
    assert isinstance(oracle, BleuResult)
    assert oracle == corpus_bleu(winners, refs)


def test_oracle_corpus_length_mismatch():
    with pytest.raises(LengthMismatchError):
        oracle_corpus_bleu([[["a"]]], [["a"], ["b"]])


def test_per_sentence_oracle_is_not_the_corpus_optimum():
    # the per-sentence winners hold two 4-grams and match neither, so their
    # corpus BLEU is 0; the selection [1, 1, 0], [1, 2, 2] holds no 4-gram,
    # so its order 4 has precision 1 and it scores above 0. Brute force over
    # every selection finds it.
    refs = [[2, 3, 0, 1, 0, 0, 2], [1, 3, 1, 2, 2]]
    cands = [[[1, 0, 3, 0, 1], [1, 1, 0]], [[1, 2, 2, 0], [1, 2, 2]]]
    oracle, winners = oracle_corpus_bleu(cands, refs)
    assert winners == [[1, 0, 3, 0, 1], [1, 2, 2]]
    assert oracle.score == 0.0
    best = max(itertools.product(*cands), key=lambda sel: corpus_bleu(sel, refs).score)
    assert best == ([1, 1, 0], [1, 2, 2])
    assert corpus_bleu(best, refs).score == pytest.approx(27.505, abs=5e-4)
