"""The vectorized beam step, top-k sampler and n-gram scorer against their
scalar references (tests/scalar_reference.py), compared with `==`, plus the
early stop of beam search and saturated-beam agreement with exact_search.
The n-gram token_prob and re-ranking, which read one probability per token,
are checked bit for bit against next_dist and its loops."""

import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit.candidates import Candidate
from mtkit.decode import (
    DecodeConfig,
    _length_penalty,
    _score_ceiling,
    beam_search,
    noisy_channel_rerank,
    topk_sample,
)
from mtkit.errors import ConfigError, EmptyInputError, NoCompletedHypothesisError
from mtkit.models import (
    Scorer,
    TableScorer,
    load_scorer,
    ngram_train,
    save_ngram_scorer,
)

from conftest import make_table_scorer
from scalar_reference import (
    exact_search,
    ngram_from_counts,
    ngram_gram_counts,
    reference_beam_search,
    reference_ngram_counts,
    reference_ngram_file,
    reference_ngram_next_dist,
    reference_noisy_channel_rerank,
    reference_score_ceiling,
    reference_topk_sample,
)


class HashScorer(Scorer):
    """Pseudo-random rows keyed on (source, prefix), drawn on first use.

    A row is uniform (all tokens tied), quantized to a few levels (many
    ties), or continuous; zero_frac plants exact zeros. `scale` multiplies
    every row, so scale = 1 + 5e-7 stays within the Scorer contract while
    letting a step raise a score.
    """

    def __init__(self, vocab_size, seed, tie_frac=0.3, zero_frac=0.0, scale=1.0):
        self.vocab_size = vocab_size
        self.eos_id = vocab_size - 1
        self.seed = seed
        self.tie_frac = tie_frac
        self.zero_frac = zero_frac
        self.scale = scale
        self._rows = {}

    def next_dist(self, source, prefix):
        key = (tuple(source), tuple(prefix))
        if key not in self._rows:
            rng = random.Random(f"{self.seed}|{key}")
            kind = rng.random()
            if kind < self.tie_frac:
                vec = np.ones(self.vocab_size)
            elif kind < 2 * self.tie_frac:
                vec = np.array([float(rng.randint(1, 3)) for _ in range(self.vocab_size)])
            else:
                vec = np.array([rng.random() + 0.01 for _ in range(self.vocab_size)])
            for tok in range(self.vocab_size):
                if rng.random() < self.zero_frac:
                    vec[tok] = 0.0
            if vec.sum() == 0.0:
                vec[rng.randrange(self.vocab_size)] = 1.0
            self._rows[key] = vec / vec.sum() * self.scale
        return self._rows[key]


def _outcome(search, *args):
    try:
        return search(*args)
    except NoCompletedHypothesisError as exc:
        return type(exc)


def _random_case(rng):
    vocab = rng.randint(3, 9)
    cfg = DecodeConfig(
        beam_size=rng.randint(1, min(vocab, 6)),
        max_len=rng.randint(1, 7),
        n_candidates=rng.randint(1, 6),
        length_penalty_alpha=rng.choice([-1.5, -0.4, 0.0, 0.0, 0.7, 2.5]),
        fusion_lambda=rng.choice([0.0, 0.3, 1.0]),
    )
    zero_frac = rng.choice([0.0, 0.2, 0.5])
    fwd = HashScorer(vocab, rng.random(), tie_frac=rng.choice([0.0, 0.3, 0.5]),
                     zero_frac=zero_frac)
    lm = HashScorer(vocab, rng.random(), zero_frac=zero_frac)
    return fwd, lm, (1, 2), cfg


# ---------------------------------------------------------------------------
# beam step


def test_beam_matches_scalar_reference_on_unsaturated_instances():
    rng = random.Random(2017)
    for _ in range(300):
        fwd, lm, source, cfg = _random_case(rng)
        assert _outcome(beam_search, fwd, lm, source, cfg) == _outcome(
            reference_beam_search, fwd, lm, source, cfg)


def test_beam_matches_reference_on_uniform_rows():
    # every row uniform: each step is one big tie broken by token order
    for vocab, beam in ((5, 3), (40, 7)):
        fwd = HashScorer(vocab, 0, tie_frac=1.0)
        for alpha in (0.0, 1.0):
            cfg = DecodeConfig(beam_size=beam, max_len=5, n_candidates=beam,
                               length_penalty_alpha=alpha)
            assert beam_search(fwd, None, (0,), cfg) == reference_beam_search(
                fwd, None, (0,), cfg)


def test_beam_matches_reference_with_zero_lm_probabilities():
    # log 0 in the lm must prune a token, never produce 0 * -inf = nan
    for seed in range(20):
        fwd = HashScorer(6, seed, tie_frac=0.3)
        lm = HashScorer(6, seed + 100, zero_frac=0.4)
        cfg = DecodeConfig(beam_size=3, max_len=6, n_candidates=3, fusion_lambda=0.5)
        got = beam_search(fwd, lm, (0,), cfg)
        assert got == reference_beam_search(fwd, lm, (0,), cfg)
        assert all(not math.isnan(c.fused_score) for c in got)


def test_beam_tie_break_uses_token_order_not_beam_order():
    # Step 1 keeps (b,) ahead of (a,) by score. At step 2, (a,a), (a,b),
    # (b,b) and (b,c) tie exactly for the last beam slot; the scalar key
    # (-score, tokens) picks (a,a), although its parent is the second beam.
    fwd = TableScorer(
        ["a", "b", "c", "eos"],
        {
            ((0,), ()): [0.25, 0.5, 0.25, 0.0],
            ((0,), (1,)): [0.5, 0.25, 0.25, 0.0],
            ((0,), (0,)): [0.5, 0.5, 0.0, 0.0],
        },
        np.ones(4) / 4,
    )
    for alpha in (0.0, 2.0):
        cfg = DecodeConfig(beam_size=2, max_len=3, n_candidates=2,
                           length_penalty_alpha=alpha)
        got = beam_search(fwd, None, (0,), cfg)
        assert got == reference_beam_search(fwd, None, (0,), cfg)
        assert [c.tokens for c in got] == [(1, 0, 3), (0, 0, 3)]


def test_completions_tied_across_steps_rank_by_tokens():
    # (b, eos) completes at step 2 and (a, a, eos) at step 3 with the same
    # score, 3 log 0.5; the later, lower token tuple ranks first
    fwd = TableScorer(
        ["a", "b", "eos"],
        {
            ((0,), ()): [0.5, 0.5, 0.0],
            ((0,), (0,)): [0.5, 0.5, 0.0],
            ((0,), (1,)): [0.375, 0.375, 0.25],
            ((0,), (0, 0)): [0.25, 0.25, 0.5],
        },
        np.ones(3) / 3,
    )
    cfg = DecodeConfig(beam_size=2, max_len=3, n_candidates=2)
    got = beam_search(fwd, None, (0,), cfg)
    assert got == reference_beam_search(fwd, None, (0,), cfg)
    assert [c.tokens for c in got] == [(0, 0, 2), (1, 2)]
    assert got[0].fused_score == got[1].fused_score


# ---------------------------------------------------------------------------
# early stop


class Counting(Scorer):
    """Counts the next_dist calls made to a wrapped scorer."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.calls = 0

    def next_dist(self, source, prefix):
        self.calls += 1
        return self.inner.next_dist(source, prefix)


def test_early_stop_equals_full_search_and_saves_steps():
    # eos takes most of the mass, so the top completions are settled early
    fwd = TableScorer(["a", "b", "eos"], {}, [0.1, 0.1, 0.8])
    cfg = DecodeConfig(beam_size=2, max_len=20, n_candidates=2)
    counted, counted_ref = Counting(fwd), Counting(fwd)
    assert beam_search(counted, None, (0,), cfg) == reference_beam_search(
        counted_ref, None, (0,), cfg)
    assert counted.calls == 3  # steps 1 and 2 only
    assert counted_ref.calls == 39


def test_early_stop_with_length_penalty():
    # the same instance under alpha = 1: each completion's score is divided
    # by its length penalty, and the search still stops long before max_len
    fwd = TableScorer(["a", "b", "eos"], {}, [0.1, 0.1, 0.8])
    cfg = DecodeConfig(beam_size=2, max_len=20, n_candidates=2, length_penalty_alpha=1.0)
    counted, counted_ref = Counting(fwd), Counting(fwd)
    assert beam_search(counted, None, (0,), cfg) == reference_beam_search(
        counted_ref, None, (0,), cfg)
    assert counted.calls == 7
    assert counted_ref.calls == 39


def test_early_stop_allows_rows_summing_above_one():
    # Rows sum to 1 + 5e-7, which the Scorer contract allows. After step 1
    # the live partial (a,) is 2.5e-7 below the completion (eos,), but its
    # eos step has probability 1 + 5e-7 > 1 and overtakes it.
    p_eos = 0.5
    p_a = p_eos * (1 - 2.5e-7)
    fwd = TableScorer(
        ["a", "b", "eos"],
        {
            ((0,), ()): [p_a, 1 + 5e-7 - p_a - p_eos, p_eos],
            ((0,), (0,)): [0.0, 0.0, 1 + 5e-7],
        },
        [0.0, 0.0, 1 + 5e-7],
    )
    cfg = DecodeConfig(beam_size=2, max_len=3, n_candidates=1)
    got = beam_search(fwd, None, (0,), cfg)
    assert got == reference_beam_search(fwd, None, (0,), cfg)
    assert got[0].tokens == (0, 2)
    assert got[0].fused_score > math.log(p_eos)


def test_early_stop_matches_reference_on_scaled_rows():
    rng = random.Random(5)
    for _ in range(100):
        vocab = rng.randint(3, 6)
        fwd = HashScorer(vocab, rng.random(), scale=1 + 5e-7)
        lm = HashScorer(vocab, rng.random(), scale=1 + 5e-7)
        cfg = DecodeConfig(beam_size=rng.randint(1, 4), max_len=rng.randint(2, 8),
                           n_candidates=rng.randint(1, 4),
                           length_penalty_alpha=rng.choice([-0.4, 0.0, 1.0]),
                           fusion_lambda=rng.choice([0.0, 0.5]))
        assert _outcome(beam_search, fwd, lm, (0,), cfg) == _outcome(
            reference_beam_search, fwd, lm, (0,), cfg)


_EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    score=st.one_of(st.sampled_from(_EDGE_SCORES), st.floats(-1e300, 1e300),
                    st.floats(-100.0, 100.0)),
    steps=st.one_of(st.integers(0, 30), st.integers(0, 10**4)),
    lam=st.one_of(st.sampled_from([0.0, 0.1, 1e6]), st.floats(0.0, 1e6)),
)
def test_score_ceiling_is_at_or_above_the_loop(score, steps, lam):
    ceiling = _score_ceiling(score, steps, lam)
    loop = reference_score_ceiling(score, steps, lam)
    assert ceiling >= loop
    if steps:
        # an lp one ulp off monotone moves loop / lp by about 2**-52 relative;
        # the closed form clears the loop by twice that, in exact arithmetic
        assert Fraction(ceiling) - Fraction(loop) >= abs(Fraction(loop)) * Fraction(4, 2**53)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    ceiling=st.one_of(st.floats(-1e300, 1e300), st.floats(-100.0, 100.0)),
    alpha=st.one_of(st.sampled_from([1e-12, -1e-12, -3.0, 299.0, 0.0, 1.0]),
                    st.floats(-3.0, 299.0)),
    max_len=st.integers(2, 2000),
    data=st.data(),
)
def test_two_end_lengths_decide_the_early_stop(ceiling, alpha, max_len, data):
    # beam_search divides the ceiling by lp at the shortest and the longest
    # length a later completion can have; the largest quotient over every
    # length between is one of those two
    while True:
        try:
            DecodeConfig(max_len=max_len, length_penalty_alpha=alpha)
            break
        except ConfigError:  # lp overflows within max_len
            max_len //= 2
    first = data.draw(st.integers(min(2, max_len), max_len))
    ends = max(ceiling / _length_penalty(n, alpha) for n in (first, max_len))
    every = max(ceiling / _length_penalty(n, alpha) for n in range(first, max_len + 1))
    assert ends == every


# ---------------------------------------------------------------------------
# saturated beam == exact search


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    vocab=st.integers(2, 4),
    max_len=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.0, 0.05, 0.1, 0.5]),
    zero_frac=st.sampled_from([0.0, 0.3]),
)
def test_saturated_beam_equals_exact_search(vocab, max_len, seed, lam, zero_frac):
    rng = random.Random(seed)
    source = (0,)
    fwd = make_table_scorer(vocab, max_len, rng, source=source, zero_frac=zero_frac)
    lm = make_table_scorer(vocab, max_len, rng, source=(), zero_frac=zero_frac)
    size = vocab ** max_len
    cfg = DecodeConfig(beam_size=size, max_len=max_len, n_candidates=size,
                       fusion_lambda=lam)
    try:
        oracle = exact_search(fwd, lm, source, max_len, fusion_lambda=lam)
    except NoCompletedHypothesisError:
        result = _outcome(beam_search, fwd, lm, source, cfg)
        assert result is NoCompletedHypothesisError or result[0].tokens[-1] != fwd.eos_id
        return
    top = beam_search(fwd, lm, source, cfg)[0]
    assert top.tokens == oracle.tokens
    assert top.fused_score == oracle.fused_score
    assert top.fwd_logprob == oracle.fwd_logprob
    assert top.lm_logprob == oracle.lm_logprob


# ---------------------------------------------------------------------------
# top-k sampling


@pytest.mark.parametrize("tie_frac", [0.0, 0.5, 1.0])
def test_topk_sample_matches_scalar_reference(tie_frac):
    fwd = HashScorer(12, 3, tie_frac=tie_frac, zero_frac=0.2)
    for k in (1, 2, 5, 12, 20):
        for seed in range(25):
            cfg = DecodeConfig(max_len=8, sample_k=k, seed=seed)
            assert topk_sample(fwd, (0,), cfg) == reference_topk_sample(fwd, (0,), cfg)


# ---------------------------------------------------------------------------
# n-gram scorer


def _bits(vec):
    return np.asarray(vec, dtype=np.float64).tobytes()


def _random_prefixes(rng, vocab, n):
    ids = list(range(vocab)) + [-1, vocab, vocab + 3]
    for length in (0, 1, 2, 3, 5):
        for _ in range(n):
            yield tuple(rng.choice(ids) if rng.random() < 0.1 else rng.randrange(vocab)
                        for _ in range(length))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_ngram_next_dist_matches_scalar_reference(order):
    rng = random.Random(order)
    corpus = [[rng.randrange(9) for _ in range(rng.randint(1, 12))] for _ in range(60)]
    weights = [rng.random() + 0.1 for _ in range(order)]
    m = ngram_train(corpus, order, vocab_size=11, eos_id=10, weights=weights)
    for prefix in _random_prefixes(rng, 11, 30):
        assert _bits(m.next_dist((), prefix)) == _bits(reference_ngram_next_dist(m, prefix))


def test_ngram_short_prefix_reuses_shorter_context():
    # an empty prefix scores every order with the unigram context
    m = ngram_train([[0, 1, 2], [1, 1]], 3, weights=[0.2, 0.3, 0.5])
    unigram = ngram_from_counts(1, m.vocab_size, m.eos_id,
                                {g: c for g, c in ngram_gram_counts(m).items() if len(g) == 1},
                                [1.0], m.floor)
    np.testing.assert_allclose(m.next_dist((), ()), unigram.next_dist((), ()),
                               rtol=1e-12)
    for prefix in ((), (1,)):
        assert _bits(m.next_dist((), prefix)) == _bits(reference_ngram_next_dist(m, prefix))


def test_ngram_model_file_with_out_of_vocab_grams(tmp_path):
    # last ids >= V (and < 0) count toward their context's total but score nothing
    path = tmp_path / "lm.ngram"
    counts = {(0,): 4, (1,): 3, (4,): 2, (7,): 5,
              (0, 1): 2, (0, 9): 3, (1, -1): 1, (2, 8): 4,
              (0, 1, 2): 1, (0, 1, 6): 2, (1, 2, 3): 0}
    path.write_bytes(reference_ngram_file(3, 5, 4, counts, [0.2, 0.3, 0.5], 0.01))
    m = load_scorer(path)
    for prefix in ((), (0,), (1,), (2,), (0, 1), (1, 2), (3, 3), (9, 0), (-1,)):
        assert _bits(m.next_dist((), prefix)) == _bits(reference_ngram_next_dist(m, prefix))


def test_ngram_lazy_index_is_safe_under_threads():
    # first next_dist calls race to build the index; every thread must see
    # the scalar reference's output
    rng = random.Random(8)
    corpus = [[rng.randrange(30) for _ in range(10)] for _ in range(200)]
    prefixes = list(_random_prefixes(rng, 31, 10))
    m = ngram_train(corpus, 3, vocab_size=31)
    expected = [_bits(reference_ngram_next_dist(m, p)) for p in prefixes]
    results = [None] * 6
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(slot):
            results[slot] = [_bits(m.next_dist((), p)) for p in prefixes]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert all(r == expected for r in results)


# ---------------------------------------------------------------------------
# one token at a time: NGramScorer.token_prob and re-ranking


@st.composite
def _ngram_args(draw, vocab=st.integers(2, 6)):
    """ngram_from_counts arguments (order, V, eos, counts, weights, floor): orders
    1-4, grams whose ids may lie outside [0, V) (so some mass scores no
    token), zero counts and zero weights."""
    order = draw(st.integers(1, 4))
    vocab = draw(vocab)
    ids = st.integers(0, vocab - 1) | st.sampled_from([-1, vocab, vocab + 2])
    counts = draw(st.dictionaries(st.lists(ids, min_size=1, max_size=order).map(tuple),
                                  st.integers(0, 5), max_size=40))
    weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0, 10),
                            min_size=order, max_size=order).filter(lambda w: sum(w) > 0))
    floor = draw(st.floats(1e-9, 0.99 / vocab))
    return order, vocab, draw(st.integers(0, vocab - 1)), counts, weights, floor


def _ngram_scorers(vocab=st.integers(2, 6)):
    return _ngram_args(vocab).map(lambda args: ngram_from_counts(*args))


_ONE_TOKEN = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_ONE_TOKEN
@given(corpus=st.lists(st.lists(st.integers(-2, 8), max_size=7), max_size=8),
       order=st.integers(1, 5), eos=st.integers(0, 5))
def test_ngram_train_counts_match_scalar_reference(corpus, order, eos):
    # empty sequences, negative ids, ids >= V and orders past a sentence's
    # length; each length's grams are sorted and paired with their counts
    if not any(corpus):
        with pytest.raises(EmptyInputError):
            ngram_train(corpus, order, vocab_size=6, eos_id=eos)
        return
    m = ngram_train(corpus, order, vocab_size=6, eos_id=eos)
    expected: dict[int, tuple[list, list]] = {}
    for gram, c in sorted(reference_ngram_counts(corpus, order, eos).items()):
        ids, counts = expected.setdefault(len(gram), ([], []))
        ids.extend(gram)
        counts.append(c)
    assert {k: (list(ids), list(counts)) for k, (ids, counts) in m.grams.items()} == expected


@_ONE_TOKEN
@given(args=_ngram_args())
def test_ngram_file_matches_scalar_writer(tmp_path_factory, args):
    path = tmp_path_factory.mktemp("ngram") / "lm.ngram"
    save_ngram_scorer(ngram_from_counts(*args), path)
    assert path.read_bytes() == reference_ngram_file(*args)


@_ONE_TOKEN
@given(m=_ngram_scorers(), data=st.data())
def test_ngram_token_prob_is_next_dist_entry(m, data):
    # and next_dist is the scalar reference's, for zero counts and
    # out-of-vocab ids too
    ids = st.integers(0, m.vocab_size - 1) | st.sampled_from([-1, m.vocab_size + 2])
    prefixes = data.draw(st.lists(st.lists(ids, max_size=5).map(tuple), max_size=6))
    seen = [gram[:-1] for gram in ngram_gram_counts(m)]  # contexts seen in training
    prefixes += [()] + seen + [(0,) + ctx for ctx in seen]
    for prefix in prefixes:
        got = [m.token_prob((1,), prefix, tok) for tok in range(m.vocab_size)]
        assert _bits(got) == _bits(m.next_dist((1,), prefix)), prefix
        assert _bits(got) == _bits(reference_ngram_next_dist(m, prefix)), prefix


@_ONE_TOKEN
@given(m=_ngram_scorers(), data=st.data())
def test_ngram_file_roundtrip_is_bit_exact(tmp_path_factory, m, data):
    # the weights in the file are the ones given to the constructor, so the
    # load normalizes them exactly as the model in memory did
    path = tmp_path_factory.mktemp("ngram") / "lm.ngram"
    save_ngram_scorer(m, path)
    loaded = load_scorer(path)
    assert (loaded.order, loaded.vocab_size, loaded.eos_id) == (m.order, m.vocab_size, m.eos_id)
    assert loaded.grams == m.grams
    assert loaded.weights == m.weights and loaded.floor == m.floor
    ids = st.integers(0, m.vocab_size - 1) | st.sampled_from([-1, m.vocab_size + 2])
    prefixes = data.draw(st.lists(st.lists(ids, max_size=5).map(tuple), max_size=4))
    prefixes += [()] + [gram[:-1] for gram in ngram_gram_counts(m)]
    for prefix in prefixes:
        assert _bits(loaded.next_dist((1,), prefix)) == _bits(m.next_dist((1,), prefix)), prefix
        assert _bits([loaded.token_prob((1,), prefix, t) for t in range(m.vocab_size)]) == \
            _bits([m.token_prob((1,), prefix, t) for t in range(m.vocab_size)]), prefix


@_ONE_TOKEN
@given(vocab=st.integers(2, 6), data=st.data())
def test_noisy_channel_rerank_matches_next_dist_oracle(vocab, data):
    rev = data.draw(_ngram_scorers(st.just(vocab)))
    lm = data.draw(_ngram_scorers(st.just(vocab)))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=4).map(tuple)
    pool = data.draw(st.lists(tokens, min_size=1, max_size=3))
    # few distinct token tuples and forward scores, so combined scores tie
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                         st.sampled_from([-0.5, -1.0, -2.5])),
                               min_size=1, max_size=8))
    cands = [Candidate(tokens=t, fwd_logprob=f) for t, f in drawn]
    lam = data.draw(st.sampled_from([0.0, 0.5, 0.6, 1.0]) | st.floats(0, 5))
    source = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=3))
    expected = reference_noisy_channel_rerank(cands, rev, lm, lam, source)
    ranked = noisy_channel_rerank(cands, rev, lm, lam, source)
    assert [(c.tokens, c.fwd_logprob, c.fused_score) for c in ranked] == \
        [(cands[row[0]].tokens, cands[row[0]].fwd_logprob, cands[row[0]].fused_score)
         for row in expected]
    assert _bits([(c.rev_logprob, c.lm_logprob, c.combined_score) for c in ranked]) == \
        _bits([row[1:] for row in expected])
