"""Beam search, exact enumeration oracle, sampling, and noisy-channel re-ranking."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit.bleu import corpus_bleu
from mtkit.candidates import Candidate, format_candidates, parse_candidates, strip_eos
from mtkit.decode import (
    DecodeConfig,
    beam_search,
    decode_batch,
    grid_search_lambdas,
    noisy_channel_rerank,
    sample_batch,
    sequence_logprob,
    topk_sample,
)
from mtkit.errors import (
    ConfigError,
    EmptyInputError,
    InputFormatError,
    LengthMismatchError,
    NoCompletedHypothesisError,
    VocabMismatchError,
)
from mtkit.models import Scorer, TableScorer

from conftest import enumerate_prefixes, make_lm_scorer, make_table_scorer
from scalar_reference import exact_search


def _saturated(vocab_n, max_len, **kw):
    size = vocab_n ** max_len
    return DecodeConfig(beam_size=size, max_len=max_len, n_candidates=size, **kw)


def _enumerate_complete(fwd, lm, source, max_len, lam):
    """All eos-terminated sequences with the recurrence applied stepwise."""
    eos = fwd.eos_id
    results = []
    for prefix in enumerate_prefixes(fwd.vocab_size, eos, max_len):
        tokens = prefix + (eos,)
        score = 0.0
        dead = False
        for i, tok in enumerate(tokens):
            p = float(fwd.next_dist(source, tokens[:i])[tok])
            if p == 0.0:
                dead = True
                break
            step = math.log(p)
            if lam > 0:
                q = float(lm.next_dist((), tokens[:i])[tok])
                if q == 0.0:
                    dead = True
                    break
                step += lam * math.log(q)
            score += step
        if not dead:
            results.append((score, tokens))
    return results


# ---------------------------------------------------------------------------
# config validation


def test_decode_config_defaults():
    cfg = DecodeConfig()
    assert (cfg.beam_size, cfg.max_len, cfg.n_candidates) == (4, 50, 15)
    assert cfg.length_penalty_alpha == 0.0 and cfg.fusion_lambda == 0.0
    assert cfg.sample_k == 500 and cfg.seed == 0


def test_decode_config_validation():
    for bad in (
        dict(beam_size=0),
        dict(max_len=0),
        dict(n_candidates=0),
        dict(fusion_lambda=-0.1),
        dict(sample_k=0),
    ):
        with pytest.raises(ValueError):
            DecodeConfig(**bad)


def test_decode_config_rejects_length_penalty_out_of_float_range():
    # (55 / 6) ** 1000 overflows, (55 / 6) ** -2000 rounds to 0 and
    # (5 / 6) ** -5000 overflows; beam_search would divide by every one
    for alpha in (1000.0, -2000.0, -5000.0):
        with pytest.raises(ConfigError, match="length_penalty_alpha"):
            DecodeConfig(max_len=50, length_penalty_alpha=alpha)
    DecodeConfig(max_len=50, length_penalty_alpha=300.0)  # about 1e289


# ---------------------------------------------------------------------------
# beam search basics


def test_beam_requires_nonempty_source():
    rng = random.Random(40)
    fwd = make_table_scorer(3, 2, rng)
    with pytest.raises(EmptyInputError):
        beam_search(fwd, None, (), DecodeConfig(beam_size=2, max_len=2))


def test_beam_fusion_requires_lm():
    rng = random.Random(41)
    fwd = make_table_scorer(3, 2, rng)
    with pytest.raises(ValueError):
        beam_search(fwd, None, (0, 1), DecodeConfig(fusion_lambda=0.1, max_len=2))


def test_beam_fusion_vocab_mismatch():
    rng = random.Random(42)
    fwd = make_table_scorer(3, 2, rng)
    lm = make_lm_scorer(4, 2, rng)
    with pytest.raises(VocabMismatchError):
        beam_search(fwd, lm, (0, 1), DecodeConfig(fusion_lambda=0.1, max_len=2))


def test_beam_fusion_eos_mismatch():
    uniform = np.ones(3) / 3
    fwd = TableScorer(["a", "b", "eos"], {}, uniform)
    lm = TableScorer(["a", "eos", "b"], {}, uniform)
    with pytest.raises(VocabMismatchError, match=r"forward and lm eos ids differ: \[2, 1\]"):
        beam_search(fwd, lm, (0, 1), DecodeConfig(fusion_lambda=0.1, max_len=2))
    beam_search(fwd, lm, (0, 1), DecodeConfig(max_len=2))  # unfused, the lm is not read


def test_beam_candidates_well_formed():
    rng = random.Random(43)
    fwd = make_table_scorer(4, 3, rng)
    cands = beam_search(fwd, None, (0, 1), _saturated(4, 3))
    assert cands
    eos = fwd.eos_id
    for c in cands:
        assert c.tokens[-1] == eos and eos not in c.tokens[:-1]
        assert c.fwd_logprob <= 0.0
        assert c.fused_score == c.fwd_logprob  # lambda 0
        assert c.lm_logprob is None and c.rev_logprob is None
    scores = [c.fused_score for c in cands]
    assert scores == sorted(scores, reverse=True)


def test_beam_output_capped_at_beam_size():
    rng = random.Random(44)
    fwd = make_table_scorer(3, 3, rng)
    cands = beam_search(fwd, None, (0, 1), DecodeConfig(beam_size=2, max_len=3, n_candidates=15))
    assert len(cands) <= 2


def test_beam_lambda_zero_ignores_lm_argument():
    rng = random.Random(45)
    fwd = make_table_scorer(3, 3, rng)
    lm = make_lm_scorer(3, 3, rng)
    cfg = DecodeConfig(beam_size=5, max_len=3, n_candidates=5)
    assert beam_search(fwd, lm, (0, 1), cfg) == beam_search(fwd, None, (0, 1), cfg)


def test_beam_deterministic():
    rng = random.Random(47)
    fwd = make_table_scorer(4, 3, rng)
    cfg = DecodeConfig(beam_size=3, max_len=3, n_candidates=3)
    assert beam_search(fwd, None, (0, 1), cfg) == beam_search(fwd, None, (0, 1), cfg)


def test_beam_unfinished_flagged():
    # eos mass zero everywhere: nothing completes within max_len
    dead_eos = np.array([0.5, 0.5, 0.0])
    m = TableScorer(["a", "b", "eos"], {}, dead_eos)
    cands = beam_search(m, None, (0,), DecodeConfig(beam_size=4, max_len=3, n_candidates=4))
    assert len(cands) == 1
    assert cands[0].tokens[-1] != m.eos_id
    assert len(cands[0].tokens) == 3 and 2 not in cands[0].tokens


def test_exact_search_no_completion_raises():
    dead_eos = np.array([0.5, 0.5, 0.0])
    m = TableScorer(["a", "b", "eos"], {}, dead_eos)
    with pytest.raises(NoCompletedHypothesisError):
        exact_search(m, None, (0,), max_len=3)


# ---------------------------------------------------------------------------
# oracle equivalence and enumeration


def test_saturated_beam_matches_exact(random_decode_instances):
    for fwd, lm, source, max_len in random_decode_instances[:25]:
        for lam in (0.0, 0.05, 0.1):
            cfg = _saturated(fwd.vocab_size, max_len, fusion_lambda=lam)
            top = beam_search(fwd, lm, source, cfg)[0]
            oracle = exact_search(fwd, lm, source, max_len, fusion_lambda=lam)
            assert top.tokens == oracle.tokens
            assert top.fused_score == oracle.fused_score  # bit-exact shared arithmetic


def test_saturated_beam_enumerates_everything(random_decode_instances):
    # the full candidate list is exactly the finite-score complete sequences
    for fwd, lm, source, max_len in random_decode_instances[:8]:
        cands = beam_search(fwd, lm, source, _saturated(fwd.vocab_size, max_len))
        expected = _enumerate_complete(fwd, lm, source, max_len, lam=0.0)
        assert {c.tokens for c in cands} == {tokens for _, tokens in expected}


def test_beam_scores_recompute_independently(random_decode_instances):
    for fwd, lm, source, max_len in random_decode_instances[:10]:
        cands = beam_search(fwd, lm, source, _saturated(fwd.vocab_size, max_len))
        for c in cands:
            assert c.fwd_logprob == pytest.approx(
                sequence_logprob(fwd, source, c.tokens), abs=1e-9
            )


def test_beam_monotone_in_width(random_decode_instances):
    for fwd, lm, source, max_len in random_decode_instances[:15]:
        for lam in (0.0, 0.1):
            best_prev = -math.inf
            for width in range(1, 6):
                cfg = DecodeConfig(
                    beam_size=width, max_len=max_len, n_candidates=width,
                    fusion_lambda=lam,
                )
                cands = beam_search(fwd, lm, source, cfg)
                if cands and cands[0].tokens[-1] == fwd.eos_id:
                    assert cands[0].fused_score >= best_prev - 1e-12
                    best_prev = max(best_prev, cands[0].fused_score)


def test_fusion_shifts_winner_toward_lm_mass():
    # fwd slightly prefers a-paths; the lm overwhelmingly prefers b first
    fwd = TableScorer(
        ["a", "b", "eos"],
        {
            ((0,), ()): [0.46, 0.44, 0.10],
            ((0,), (0,)): [0.10, 0.10, 0.80],
            ((0,), (1,)): [0.10, 0.10, 0.80],
        },
        np.ones(3) / 3,
    )
    lm = TableScorer(
        ["a", "b", "eos"],
        {
            ((), ()): [0.005, 0.99, 0.005],
            ((), (1,)): [0.005, 0.005, 0.99],
        },
        np.ones(3) / 3,
    )
    plain = beam_search(fwd, lm, (0,), _saturated(3, 2))[0]
    fused = beam_search(fwd, lm, (0,), _saturated(3, 2, fusion_lambda=0.1))[0]
    assert plain.tokens == (0, 2)  # a eos
    assert fused.tokens == (1, 2)  # b eos

    # winner agrees with brute-force application of the recurrence
    scored = _enumerate_complete(fwd, lm, (0,), 2, lam=0.1)
    best_score, best_tokens = max(scored, key=lambda st: st[0])
    assert fused.tokens == best_tokens
    assert fused.fused_score == pytest.approx(best_score, abs=1e-12)
    # and the lm component is recorded
    assert fused.lm_logprob == pytest.approx(
        sequence_logprob(lm, (), fused.tokens), abs=1e-12
    )


def test_exact_search_single_eos_vocab():
    m = TableScorer(["eos"], {}, [1.0])
    best = exact_search(m, None, (0,), max_len=1)
    assert best.tokens == (0,)
    assert best.fused_score == 0.0  # log 1


def test_exact_search_space_budget():
    m = TableScorer([f"t{i}" for i in range(100)] + ["eos"], {}, np.ones(101) / 101)
    with pytest.raises(ConfigError):
        exact_search(m, None, (0,), max_len=3)


def test_exact_lambda_zero_is_forward_argmax(random_decode_instances):
    for fwd, lm, source, max_len in random_decode_instances[:8]:
        best = exact_search(fwd, lm, source, max_len, fusion_lambda=0.0)
        scored = _enumerate_complete(fwd, None, source, max_len, lam=0.0)
        top_score = max(s for s, _ in scored)
        assert best.fused_score == pytest.approx(top_score, abs=1e-9)
        winners = sorted(t for s, t in scored if s == pytest.approx(top_score, abs=1e-12))
        assert best.tokens == winners[0]


def test_length_penalty_reorders_by_length():
    # plain scoring prefers the short completion; alpha > 0 rewards length
    fwd = TableScorer(
        ["a", "eos"],
        {
            ((0,), ()): [0.5, 0.5],
            ((0,), (0,)): [0.187, 0.813],
        },
        np.array([0.05, 0.95]),
    )
    plain = beam_search(fwd, None, (0,), _saturated(2, 2))
    assert plain[0].tokens == (1,)  # log .5 > log .5 + log .813
    alpha = beam_search(fwd, None, (0,), _saturated(2, 2, length_penalty_alpha=3.0))
    assert alpha[0].tokens == (0, 1)
    expect = (math.log(0.5) + math.log(0.813)) / ((5 + 2) / 6) ** 3.0
    assert alpha[0].fused_score == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# top-k sampling


def test_topk_k1_is_greedy():
    fwd = TableScorer(
        ["a", "b", "eos"],
        {
            ((0,), ()): [0.2, 0.7, 0.1],
            ((0,), (1,)): [0.1, 0.2, 0.7],
        },
        np.ones(3) / 3,
    )
    for seed in range(5):
        c = topk_sample(fwd, (0,), DecodeConfig(max_len=4, sample_k=1, seed=seed))
        assert c.tokens == (1, 2) and c.tokens[-1] == fwd.eos_id


def test_topk_k1_tie_takes_lowest_id():
    fwd = TableScorer(["a", "b", "eos"], {((0,), ()): [0.45, 0.45, 0.1]},
                      np.array([0.0, 0.0, 1.0]))
    c = topk_sample(fwd, (0,), DecodeConfig(max_len=3, sample_k=1, seed=0))
    assert c.tokens[0] == 0


def test_topk_seed_determinism():
    rng = random.Random(48)
    fwd = make_table_scorer(4, 4, rng)
    cfg = DecodeConfig(max_len=4, sample_k=3, seed=11)
    assert topk_sample(fwd, (0, 1), cfg) == topk_sample(fwd, (0, 1), cfg)


def test_topk_logprob_is_raw_model_score():
    rng = random.Random(49)
    fwd = make_table_scorer(4, 4, rng)
    for seed in range(10):
        c = topk_sample(fwd, (0, 1), DecodeConfig(max_len=4, sample_k=2, seed=seed))
        assert c.fwd_logprob == pytest.approx(
            sequence_logprob(fwd, (0, 1), c.tokens), abs=1e-9
        )


def test_topk_unfinished_flag():
    dead_eos = np.array([0.6, 0.4, 0.0])
    m = TableScorer(["a", "b", "eos"], {}, dead_eos)
    c = topk_sample(m, (0,), DecodeConfig(max_len=3, sample_k=2, seed=1))
    assert c.tokens[-1] != m.eos_id and len(c.tokens) == 3


def test_topk_restricts_to_top_k():
    # k = 2 can never choose the third-ranked token
    fwd = TableScorer(["a", "b", "eos"], {((0,), ()): [0.5, 0.3, 0.2]},
                      np.array([0.0, 0.0, 1.0]))
    firsts = {
        topk_sample(fwd, (0,), DecodeConfig(max_len=2, sample_k=2, seed=s)).tokens[0]
        for s in range(200)
    }
    assert firsts <= {0, 1}
    assert firsts == {0, 1}  # both appear over 200 seeds


def test_topk_one_step_frequencies_match_table():
    probs = [0.5, 0.3, 0.2]
    fwd = TableScorer(["a", "b", "eos"], {((0,), ()): probs}, np.array([0.0, 0.0, 1.0]))
    n = 20_000
    counts = [0, 0, 0]
    for seed in range(n):
        c = topk_sample(fwd, (0,), DecodeConfig(max_len=2, sample_k=3, seed=seed))
        counts[c.tokens[0]] += 1
    for tok, p in enumerate(probs):
        assert abs(counts[tok] / n - p) <= 0.02


# ---------------------------------------------------------------------------
# sequence_logprob


def test_sequence_logprob_hand_case():
    fwd = TableScorer(
        ["a", "eos"],
        {((0,), ()): [0.25, 0.75], ((0,), (0,)): [0.5, 0.5]},
        np.ones(2) / 2,
    )
    got = sequence_logprob(fwd, (0,), (0, 1))
    assert got == math.log(0.25) + math.log(0.5)


def test_sequence_logprob_zero_prob_is_neg_inf():
    fwd = TableScorer(["a", "eos"], {((0,), ()): [1.0, 0.0]}, np.ones(2) / 2)
    assert sequence_logprob(fwd, (0,), (1,)) == -math.inf


# ---------------------------------------------------------------------------
# noisy-channel re-ranking


def _mk_cands():
    return [
        Candidate(tokens=(0, 2), fwd_logprob=-1.0),
        Candidate(tokens=(1, 2), fwd_logprob=-1.5),
        Candidate(tokens=(0, 1, 2), fwd_logprob=-2.0),
    ]


def _rev_lm_tables():
    # reverse model: conditions on candidate tokens, scores source + eos
    rev = TableScorer(
        ["s", "t", "eos"],
        {
            ((0, 2), ()): [0.9, 0.05, 0.05],
            ((0, 2), (0,)): [0.1, 0.1, 0.8],
            ((1, 2), ()): [0.2, 0.4, 0.4],
            ((1, 2), (0,)): [0.3, 0.3, 0.4],
            ((0, 1, 2), ()): [0.5, 0.25, 0.25],
            ((0, 1, 2), (0,)): [0.25, 0.25, 0.5],
        },
        np.ones(3) / 3,
    )
    lm = TableScorer(
        ["s", "t", "eos"],
        {
            ((), ()): [0.6, 0.3, 0.1],
            ((), (0,)): [0.1, 0.3, 0.6],
            ((), (1,)): [0.2, 0.2, 0.6],
            ((), (0, 1)): [0.1, 0.1, 0.8],
        },
        np.ones(3) / 3,
    )
    return rev, lm


@pytest.mark.parametrize("source, tokens", [
    ((0,), (2,)),      # token id == V
    ((0,), (0, 7)),    # token id > V
    ((0,), (-1,)),     # negative ids must not wrap to the last vocab entry
    ((2,), (0,)),      # source id == V
    ((-1,), (0,)),
])
def test_sequence_logprob_rejects_out_of_vocab_ids(source, tokens):
    fwd = TableScorer(["a", "eos"], {}, np.ones(2) / 2)
    with pytest.raises(VocabMismatchError):
        sequence_logprob(fwd, source, tokens)


def test_rerank_rejects_out_of_vocab_candidate():
    rev, lm = _rev_lm_tables()
    for bad in ((0, 3, 2), (-1, 2)):
        cands = _mk_cands() + [Candidate(tokens=bad, fwd_logprob=-1.0)]
        with pytest.raises(VocabMismatchError):
            noisy_channel_rerank(cands, rev, lm, 0.5, (0,))


def test_rerank_lambda_zero_is_forward_order():
    rev, lm = _rev_lm_tables()
    cands = _mk_cands()
    ranked = noisy_channel_rerank(cands, rev, lm, 0.0, (0,))
    assert [c.fwd_logprob for c in ranked] == [-1.0, -1.5, -2.0]
    for c in ranked:
        assert c.combined_score == c.fwd_logprob
        assert c.rev_logprob is not None and c.lm_logprob is not None


def test_rerank_hand_arithmetic_exact():
    rev, lm = _rev_lm_tables()
    cands = _mk_cands()
    source = (0,)
    ranked = noisy_channel_rerank(cands, rev, lm, 0.5, source)

    # independent recomputation with the documented component definitions
    expected = []
    for c in _mk_cands():
        rev_lp = 0.0
        rev_tgt = source + (rev.eos_id,)
        for i, tok in enumerate(rev_tgt):
            rev_lp += math.log(float(rev.next_dist(c.tokens, rev_tgt[:i])[tok]))
        lm_lp = 0.0
        for i, tok in enumerate(c.tokens):
            lm_lp += math.log(float(lm.next_dist((), c.tokens[:i])[tok]))
        expected.append((c.tokens, c.fwd_logprob + 0.5 * (rev_lp + lm_lp), rev_lp, lm_lp))
    expected.sort(key=lambda e: -e[1])

    assert [c.tokens for c in ranked] == [e[0] for e in expected]
    for c, e in zip(ranked, expected):
        assert c.combined_score == e[1]
        assert c.rev_logprob == e[2]
        assert c.lm_logprob == e[3]


def _values(cands):
    return sorted((c.tokens, c.fwd_logprob, c.fused_score) for c in cands)


def test_rerank_preserves_candidate_set():
    rev, lm = _rev_lm_tables()
    cands = _mk_cands()
    ranked = noisy_channel_rerank(cands, rev, lm, 0.6, (0,))
    assert len(ranked) == len(cands)
    assert _values(ranked) == _values(cands)
    assert cands == _mk_cands()  # the input is not modified


def test_rerank_leaves_its_input_unchanged():
    # scores read from a dump are replaced in the result, not in the input
    rev, lm = _rev_lm_tables()

    def dumped():
        return Candidate(tokens=(1, 0, 2), fwd_logprob=-3.0, lm_logprob=-9.0, rev_logprob=-9.0,
                         fused_score=-3.0, combined_score=-9.0)
    cands = [dumped()] + _mk_cands()
    ranked = noisy_channel_rerank(cands, rev, lm, 0.5, (0,))
    assert cands == [dumped()] + _mk_cands()
    assert all(c.combined_score is None for c in cands[1:])
    assert -9.0 not in [x for c in ranked for x in (c.lm_logprob, c.rev_logprob, c.combined_score)]


def test_rerank_stable_for_duplicates():
    # equal tokens and forward scores give equal combined scores; only
    # fused_score tells the two apart, so it shows the order they come back in
    rev, lm = _rev_lm_tables()
    first = Candidate(tokens=(0, 2), fwd_logprob=-1.0, fused_score=-1.0)
    second = Candidate(tokens=(0, 2), fwd_logprob=-1.0, fused_score=-2.0)
    for pair in ([first, second], [second, first]):
        ranked = noisy_channel_rerank(pair, rev, lm, 0.5, (0,))
        assert [c.fused_score for c in ranked] == [c.fused_score for c in pair]
        assert ranked[0].combined_score == ranked[1].combined_score


def test_rerank_reuses_forward_score_without_rescoring():
    rev, lm = _rev_lm_tables()
    tampered = Candidate(tokens=(1, 2), fwd_logprob=+5.0)  # impossible as a real logprob
    honest = Candidate(tokens=(0, 2), fwd_logprob=-0.1)
    ranked = noisy_channel_rerank([honest, tampered], rev, lm, 0.0, (0,))
    # the stored value was trusted verbatim
    assert (ranked[0].tokens, ranked[0].fwd_logprob) == ((1, 2), 5.0)


def test_rerank_empty_list():
    rev, lm = _rev_lm_tables()
    with pytest.raises(EmptyInputError):
        noisy_channel_rerank([], rev, lm, 0.6, (0,))


def test_rerank_rejects_negative_lambda():
    rev, lm = _rev_lm_tables()
    with pytest.raises(ValueError, match="lambda_ncr"):
        noisy_channel_rerank(_mk_cands(), rev, lm, -0.5, (0,))


# ---------------------------------------------------------------------------
# batch drivers


def test_decode_batch_order_and_threads(random_decode_instances):
    fwd, lm, source, max_len = random_decode_instances[0]
    sources = [source, (1,), source, (0, 0), source, source[:1]]
    cfg = DecodeConfig(beam_size=3, max_len=max_len, n_candidates=3, fusion_lambda=0.3)
    out = decode_batch(fwd, lm, sources, cfg)
    assert out == [beam_search(fwd, lm, s, cfg) for s in sources]
    assert len(out) == 6


def test_sample_batch_per_line_seeds():
    rng = random.Random(50)
    fwd = make_table_scorer(4, 4, rng)
    sources = [(0, 1)] * 5
    cfg = DecodeConfig(max_len=4, sample_k=3, seed=100)
    out = sample_batch(fwd, sources, cfg)
    for i, c in enumerate(out):
        solo = topk_sample(fwd, (0, 1), DecodeConfig(max_len=4, sample_k=3, seed=100 + i))
        assert c == solo


# ---------------------------------------------------------------------------
# candidate dump format


def _file_lines(lines) -> list[str]:
    """The lines as a dump file yields them, each with its newline."""
    return [line + "\n" for line in lines]


def test_candidate_dump_roundtrip(random_decode_instances):
    fwd, lm, source, max_len = random_decode_instances[1]
    cands = beam_search(fwd, lm, source, _saturated(fwd.vocab_size, max_len))
    rev = make_table_scorer(fwd.vocab_size, max_len, random.Random(51), source=source)
    ranked = noisy_channel_rerank(cands, rev, lm, 0.5, source)
    parsed = parse_candidates(_file_lines(format_candidates([ranked])))
    assert len(parsed) == 1
    for orig, back in zip(ranked, parsed[0]):
        assert back.tokens == orig.tokens
        assert back.fwd_logprob == orig.fwd_logprob
        assert back.lm_logprob == orig.lm_logprob
        assert back.rev_logprob == orig.rev_logprob
        assert back.combined_score == orig.combined_score


_score = st.floats(allow_nan=False)
_candidate = st.builds(Candidate, tokens=st.lists(st.integers(0, 2**63 - 1)).map(tuple),
                       fwd_logprob=_score, lm_logprob=st.none() | _score,
                       rev_logprob=st.none() | _score, combined_score=st.none() | _score)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_candidate, min_size=1, max_size=4), max_size=5))
def test_candidate_dump_parses_back_to_what_was_formatted(cands_per_sentence):
    # bit for bit: repr tells -0.0 from 0.0, which == does not
    parsed = parse_candidates(_file_lines(format_candidates(cands_per_sentence)))
    assert repr(parsed) == repr(cands_per_sentence)


def test_candidate_dump_none_fields():
    lines = format_candidates([[Candidate(tokens=(0, 1), fwd_logprob=-2.5)]])
    assert lines == ["0\t0\t-2.5\t-\t-\t-\t0,1"]
    parsed = parse_candidates(_file_lines(lines))
    c = parsed[0][0]
    assert c.lm_logprob is None and c.rev_logprob is None and c.combined_score is None


def test_parse_candidates_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_candidates(["1\t2\t3"])


@pytest.mark.parametrize("column", [2, 3, 4, 5])
def test_parse_candidates_rejects_a_nan_score(column):
    cols = ["0", "1", "-1.0", "-inf", "-inf", "-", "1,2"]
    first = "0\t0\t-1.0\t-\t-\t-\t1"
    assert parse_candidates(_file_lines([first, "\t".join(cols)]))[0][1].lm_logprob == -math.inf
    cols[column] = "nan"
    with pytest.raises(InputFormatError, match="^dump line 2: a score is NaN$"):
        parse_candidates(_file_lines([first, "\t".join(cols)]))


# ---------------------------------------------------------------------------
# lambda grid search


def test_grid_search_shape_and_reduction(random_decode_instances):
    # instance 1 decodes to a multi-token winner, so BLEU at (0, 0) is exact
    fwd, lm, source, max_len = random_decode_instances[1]
    rng = random.Random(52)
    rev = make_table_scorer(fwd.vocab_size, max_len, rng, source=source)
    sources = [source, source]
    cfg = DecodeConfig(beam_size=4, max_len=max_len, n_candidates=4)

    # references = winners of the (0, 0) pipeline, so that grid point is 100
    refs = []
    for src in sources:
        cands = beam_search(fwd, lm, src, cfg)
        top = noisy_channel_rerank(cands, rev, lm, 0.0, src)[0]
        body = list(top.tokens)
        if body and body[-1] == fwd.eos_id:
            body = body[:-1]
        refs.append(body)

    grid = grid_search_lambdas(
        fwd, rev, lm, sources, refs, cfg, sf_grid=[0.0, 0.1], ncr_grid=[0.0, 0.5]
    )
    assert [(sf, ncr) for sf, ncr, _ in grid] == [
        (0.0, 0.0), (0.0, 0.5), (0.1, 0.0), (0.1, 0.5)
    ]
    for _, _, bleu in grid:
        assert 0.0 <= bleu <= 100.0
    assert grid[0][2] == 100.0


def test_grid_search_matches_a_rerank_at_every_point(random_decode_instances, monkeypatch):
    # the oracle re-ranks every decode at every (lambda_sf, lambda_ncr)
    # point; the grid search scores each decode's candidates once
    import mtkit.bleu
    import mtkit.decode
    calls, winners = [], []

    def counting(*args):
        calls.append(args)
        return sequence_logprob(*args)

    def recording(hyps, refs):
        winners.append(hyps)
        return corpus_bleu(hyps, refs)
    monkeypatch.setattr(mtkit.decode, "sequence_logprob", counting)
    monkeypatch.setattr(mtkit.bleu, "corpus_bleu", recording)
    rng = random.Random(53)
    sf_grid = [0.0, 0.1, 0.3]
    varied = 0
    long = [inst for inst in random_decode_instances if inst[3] >= 3]  # several candidates
    for fwd, lm, source, max_len in long[:12]:
        sources = [source, source[:1], source]
        cfg = DecodeConfig(beam_size=4, max_len=max_len, n_candidates=4)
        decodes = [decode_batch(fwd, lm, sources, cfg._replace(fusion_lambda=lam_sf))
                   for lam_sf in sf_grid]
        # a reverse model with a peaked distribution per candidate, so the
        # winner changes along the lambda_ncr grid
        rev_table = {}
        for per_sentence in decodes:
            for src, cands in zip(sources, per_sentence):
                target = src + (fwd.eos_id,)
                for cand, i in itertools.product(cands, range(len(target))):
                    peaked = np.array([rng.random() ** 4 + 1e-3 for _ in fwd.vocab])
                    rev_table[(cand.tokens, target[:i])] = peaked / peaked.sum()
        rev = TableScorer(fwd.vocab, rev_table, fwd.default)
        refs = [strip_eos(rng.choice(cands).tokens, fwd.eos_id) or [0] for cands in decodes[0]]
        for ncr_grid in ([0.0, 0.3, 1.0, 3.0, 10.0], [1.0]):
            expected = [[strip_eos(noisy_channel_rerank(cands, rev, lm, lam_ncr, src)[0].tokens,
                                   fwd.eos_id) for src, cands in zip(sources, per_sentence)]
                        for per_sentence in decodes for lam_ncr in ncr_grid]
            calls.clear()
            winners.clear()
            got = grid_search_lambdas(fwd, rev, lm, sources, refs, cfg, sf_grid, ncr_grid)
            assert winners == expected
            assert got == [(lam_sf, lam_ncr, corpus_bleu(hyps, refs).score) for (lam_sf, lam_ncr),
                           hyps in zip(itertools.product(sf_grid, ncr_grid), expected)]
            # a rev and an lm sum per candidate of each decode, whatever len(ncr_grid)
            assert len(calls) == 2 * sum(len(c) for per_sentence in decodes for c in per_sentence)
            varied += len({str(hyps) for hyps in expected[:len(ncr_grid)]}) > 1
    assert varied >= 4  # the winner moved along the lambda_ncr grid


class _UnreadScorer(Scorer):
    vocab_size, eos_id = 3, 2

    def next_dist(self, source, prefix):
        raise AssertionError("decoded before every grid value was checked")


@pytest.mark.parametrize("sf_grid, ncr_grid", [
    pytest.param([0.0, -1.0], [0.0], id="sf"),
    pytest.param([0.0, math.inf], [0.0], id="sf inf"),
    pytest.param([0.0], [0.0, -1.0], id="ncr"),
    pytest.param([0.0], [0.0, math.nan], id="ncr nan"),
])
def test_grid_search_checks_the_grids_before_decoding(sf_grid, ncr_grid):
    s = _UnreadScorer()
    with pytest.raises(ConfigError):
        grid_search_lambdas(s, s, s, [(0,)], [[0]], DecodeConfig(), sf_grid, ncr_grid)


def test_grid_search_checks_the_reference_count_before_decoding():
    s = _UnreadScorer()
    with pytest.raises(LengthMismatchError, match="^2 sources vs 1 references$"):
        grid_search_lambdas(s, s, s, [(0,), (0,)], [[0]], DecodeConfig(), [0.0], [0.0])
