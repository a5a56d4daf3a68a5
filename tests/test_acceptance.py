"""Acceptance gate: one test per release criterion, one printed line each.

Run with -s (or read captured stdout) to see the [PASS]/[FAIL] lines.
"""

import math
import random
from contextlib import contextmanager

import numpy as np

from mtkit import bleu, bpe, corpus, domain, models, textnorm
from mtkit.candidates import Candidate, format_candidates
from mtkit.cli import run
from mtkit.decode import (
    DecodeConfig,
    beam_search,
    noisy_channel_rerank,
    topk_sample,
)
from mtkit.models import TableScorer

from conftest import make_sentence, make_table_scorer
from scalar_reference import exact_search


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _saturated(vocab_n, max_len):
    size = vocab_n ** max_len
    return DecodeConfig(beam_size=size, max_len=max_len, n_candidates=size)


# ---------------------------------------------------------------------------
# decoding criteria

def test_saturated_beam_equals_exhaustive_argmax(random_decode_instances):
    with criterion("oracle equivalence: saturated beam == exhaustive argmax, "
                   "50 instances x lambda {0, 0.05, 0.1}"):
        for fwd, lm, source, max_len in random_decode_instances:
            for lam in (0.0, 0.05, 0.1):
                cfg = DecodeConfig(
                    beam_size=fwd.vocab_size ** max_len,
                    max_len=max_len,
                    n_candidates=1,
                    fusion_lambda=lam,
                )
                got = beam_search(fwd, lm, source, cfg)[0]
                want = exact_search(fwd, lm, source, max_len, fusion_lambda=lam)
                assert got.tokens == want.tokens
                assert got.fused_score == want.fused_score


def test_lambda_zero_reductions(random_decode_instances):
    with criterion("lambda-zero reductions: fused(0) == plain beam, "
                   "rerank(0) preserves forward order"):
        for fwd, lm, source, max_len in random_decode_instances:
            cfg = DecodeConfig(beam_size=4, max_len=max_len, n_candidates=4)
            plain = beam_search(fwd, None, source, cfg)
            fused0 = beam_search(fwd, lm, source, cfg)
            assert format_candidates([plain]) == format_candidates([fused0])

            rev = fwd
            before = [c.tokens for c in fused0]
            ranked = noisy_channel_rerank(
                fused0, rev, lm, 0.0, source)
            assert [c.tokens for c in ranked] == before


def test_checkpoint_averaging_identity_and_hand_mean(tmp_path):
    with criterion("checkpoint averaging: k-identical files average to the "
                   "same tensors, two-checkpoint mean exact"):
        def average(tensor_sets, expected):
            paths = []
            for i, tensors in enumerate(tensor_sets):
                paths.append(tmp_path / f"c{i}.ckpt")
                models.save_checkpoint(tensors, paths[-1])
            models.average_checkpoint_files(paths, tmp_path / "avg.ckpt")
            models.save_checkpoint(expected, tmp_path / "expected.ckpt",
                                   {"source_count": len(paths)})
            return (tmp_path / "avg.ckpt").read_bytes() == (
                tmp_path / "expected.ckpt").read_bytes()

        rng = np.random.default_rng(12)
        tensors = {
            "enc.w": rng.normal(size=(4, 3)).astype(np.float32),
            "dec.b": rng.normal(size=(7,)).astype(np.float32),
        }
        assert average([tensors] * 5, tensors)
        assert average([{"w": [1.0, 3.0]}, {"w": [3.0, 5.0]}], {"w": [2.0, 4.0]})


def test_ensemble_identity_and_hand_mean():
    with criterion("ensemble identity: k-copies within 1e-7, "
                   "[0.8,0.2]+[0.2,0.8] -> [0.5,0.5] exact"):
        rng = random.Random(34)
        member = make_table_scorer(4, 3, rng, source=(0, 1))
        ens = models.EnsembleScorer([member, member, member])
        for prefix in ((), (0,), (0, 2), (1, 1, 3)):
            got = ens.next_dist((0, 1), prefix)
            want = member.next_dist((0, 1), prefix)
            assert np.max(np.abs(got - want)) <= 1e-7

        a = TableScorer(["a", "eos"], {((0,), ()): [0.8, 0.2]}, [0.5, 0.5])
        b = TableScorer(["a", "eos"], {((0,), ()): [0.2, 0.8]}, [0.5, 0.5])
        mean = models.EnsembleScorer([a, b]).next_dist((0,), ())
        assert mean.tolist() == [0.5, 0.5]


def test_noisy_channel_hand_arithmetic_and_set_preservation():
    with criterion("noisy-channel arithmetic: 3-candidate hand scores at "
                   "lambda 0.5 exact, candidate set preserved"):
        vocab = ["s", "t", "eos"]
        source = (0,)
        cands = [
            Candidate(tokens=(1, 2), fwd_logprob=-1.0, fused_score=-1.0),
            Candidate(tokens=(1, 1, 2), fwd_logprob=-1.5, fused_score=-1.5),
            Candidate(tokens=(2,), fwd_logprob=-2.0, fused_score=-2.0),
        ]
        rev = TableScorer(vocab, {}, [0.3, 0.2, 0.5])
        lm = TableScorer(vocab, {}, [0.25, 0.25, 0.5])
        given = list(cands)
        ranked = noisy_channel_rerank(given, rev, lm, 0.5, source)

        assert sorted((c.tokens, c.fwd_logprob, c.fused_score) for c in ranked) == \
            sorted((c.tokens, c.fwd_logprob, c.fused_score) for c in cands)
        # the input list and its candidates are unchanged
        assert given == cands
        assert all((c.lm_logprob, c.rev_logprob, c.combined_score) == (None,) * 3 for c in given)
        # rev scores source + its eos given the candidate; lm scores the
        # candidate including eos. Both tables are context-free here.
        rev_lp = math.log(0.3) + math.log(0.5)
        for cand in ranked:
            lm_lp = len(cand.tokens) * math.log(0.25) - math.log(0.25) + math.log(0.5)
            expected = cand.fwd_logprob + 0.5 * (rev_lp + lm_lp)
            assert cand.combined_score == expected
        scores = [c.combined_score for c in ranked]
        assert scores == sorted(scores, reverse=True)


def test_oracle_selection_never_scores_below_rank_one(random_decode_instances):
    with criterion("oracle BLEU dominance: oracle-selected corpus BLEU >= "
                   "rank-1 corpus BLEU on every fixture"):
        cfg_refs = []
        cands_all = []
        for fwd, lm, source, max_len in random_decode_instances:
            cfg = DecodeConfig(beam_size=4, max_len=max_len, n_candidates=4)
            cands = beam_search(fwd, None, source, cfg)
            ref = list(exact_search(fwd, None, source, max_len).tokens[:-1])
            cands_all.append(cands)
            cfg_refs.append(ref or [0])  # references must be non-empty
        hyps_all = [[list(c.tokens) for c in cands] for cands in cands_all]
        score_oracle, _ = bleu.oracle_corpus_bleu(hyps_all, cfg_refs)
        rank1 = [list(c[0].tokens) for c in cands_all]
        score_rank1 = bleu.corpus_bleu(rank1, cfg_refs).score
        assert score_oracle.score >= score_rank1

        # a word-level candidate corpus built by perturbing references
        rng = random.Random(99)
        refs = [make_sentence(rng, "en", 8).split() for _ in range(20)]
        cand_sets = []
        for ref in refs:
            variants = [list(ref)]
            for _ in range(3):
                v = [w for w in ref if rng.random() > 0.3]
                rng.shuffle(v)
                variants.append(v)
            rng.shuffle(variants)
            cand_sets.append(variants)
        oracle, _ = bleu.oracle_corpus_bleu(cand_sets, refs)
        rank1 = bleu.corpus_bleu([cs[0] for cs in cand_sets], refs)
        assert oracle.score >= rank1.score
        assert oracle.score == 100.0  # the untouched reference is recoverable


# ---------------------------------------------------------------------------
# corpus criteria

def test_filter_cascade_matches_planted_violations(planted_filter_fixture,
                                                   langid_model):
    with criterion("filter cascade: planted 1k-line fixture report "
                   "reproduced exactly"):
        pairs, expected = planted_filter_fixture
        cfg = corpus.FilterConfig(required_langs=("en", "de"))
        kept, report = corpus.filter_corpus(pairs, cfg, langid_model)
        assert report == expected
        assert len(kept) == expected.kept


def test_domain_funnel_matches_hand_recompute(domain_fixture):
    with criterion("domain funnel: two-stage selection at (0.5, 0.90) keeps "
                   "exactly the pairs with mean score >= 0.90"):
        med_en, news_en, med_ru, news_ru = domain_fixture
        clf_en = domain.domain_train(med_en[:400], news_en[:400], seed=0)
        clf_ru = domain.domain_train(med_ru[:400], news_ru[:400], seed=0)

        rng = random.Random(4242)
        rows = (
            [(med_en[i + 400], med_ru[i + 400]) for i in range(150)]
            + [(news_en[i + 400], news_ru[i + 400]) for i in range(150)]
            + [(med_en[i + 550], news_ru[i + 550]) for i in range(100)]
            + [(news_en[i + 550], med_ru[i + 550]) for i in range(100)]
        )
        rng.shuffle(rows)
        pairs = [corpus.ParallelExample(source=src, target=tgt) for src, tgt in rows]
        position = {id(p): i for i, p in enumerate(pairs)}

        cfg = domain.SelectionConfig(stage1_threshold=0.5, final_threshold=0.90)
        selected, counts = domain.bilingual_select(pairs, clf_en, clf_ru, cfg)

        expected = []
        for i, pair in enumerate(pairs):
            s_en = clf_en.score(pair.source)
            if s_en <= 0.5:
                continue
            s_ru = clf_ru.score(pair.target)
            if (s_en + s_ru) / 2 >= 0.90:
                expected.append((i, s_en, s_ru))
        got = [(position[id(p)], se, sr) for p, se, sr in selected]
        assert got == expected
        assert counts["final_kept"] == len(expected)
        assert 0 < len(expected) < len(pairs)


def test_mixing_ratios_within_tolerance():
    with criterion("mixing ratios: 6:3:1 at n=100k within +-0.01 "
                   "per provenance"):
        parts = []
        for name, weight in (("bitext", 6.0), ("backtranslated", 3.0), ("r2l_distilled", 1.0)):
            items = [corpus.ParallelExample(source=f"{name}-{i}", target=f"t{i}")
                     for i in range(50)]
            parts.append((items, weight))
        mixed = corpus.mix_sample(parts, 100_000, seed=7)
        assert len(mixed) == 100_000
        by_name = {}
        for pair in mixed:
            name = pair.source.rsplit("-", 1)[0]
            by_name[name] = by_name.get(name, 0) + 1
        assert abs(by_name["bitext"] / 100_000 - 0.6) <= 0.01
        assert abs(by_name["backtranslated"] / 100_000 - 0.3) <= 0.01
        assert abs(by_name["r2l_distilled"] / 100_000 - 0.1) <= 0.01


def test_bpe_roundtrip_and_dropout_monotonicity(trilingual_lines, fixture_bpe):
    with criterion("BPE roundtrip: 100% of 10k trilingual lines, dropout 0.1 "
                   "never shortens encodings"):
        langs = ("en", "de", "ru")
        for i, line in enumerate(trilingual_lines):
            text = " ".join(textnorm.word_tokenize(line, lang=langs[i % 3]))
            plain = bpe.bpe_encode(fixture_bpe, text)
            assert bpe.bpe_decode(fixture_bpe, plain) == text
            dropped = bpe.bpe_encode(fixture_bpe, text, dropout_p=0.1, seed=i)
            assert len(dropped) >= len(plain)


# ---------------------------------------------------------------------------
# sampling and determinism criteria

def test_topk_full_vocab_sampling_matches_distribution():
    with criterion("top-k sampling: k=vocab, 50k one-step draws within "
                   "+-0.01 per token"):
        probs = [0.5, 0.3, 0.15, 0.05]
        fwd = TableScorer(["a", "b", "c", "eos"], {((0,), ()): probs},
                          [0.0, 0.0, 0.0, 1.0])
        counts = [0, 0, 0, 0]
        n = 50_000
        for seed in range(n):
            cand = topk_sample(
                fwd, (0,), DecodeConfig(max_len=1, sample_k=4, seed=seed))
            counts[cand.tokens[0]] += 1
        for tok, p in enumerate(probs):
            assert abs(counts[tok] / n - p) <= 0.01


def _run_pipeline(base, threads):
    """normalize -> tokenize -> bpe -> filter -> mix -> decode -> rerank ->
    score, all through the CLI; returns {artifact name: bytes}."""
    base.mkdir(exist_ok=True)
    rng = random.Random(2024)
    raw = base / "raw.txt"
    raw.write_text(
        "\n".join("“" + make_sentence(rng, "en", 6) + "”  end"
                  for _ in range(40)) + "\n", encoding="utf-8")

    t = str(threads)
    norm = base / "norm.txt"
    assert run(["normalize", str(raw), "-o", str(norm)]) == 0
    tok = base / "tok.txt"
    assert run(["tokenize", str(norm), "-o", str(tok)]) == 0
    codes = base / "codes.bpe"
    assert run(["bpe-train", str(tok), "--vocab-size", "120",
                "--model-out", str(codes)]) == 0
    ids = base / "ids.txt"
    assert run(["bpe-encode", str(tok), "-o", str(ids),
                "--model", str(codes), "--seed", "5"]) == 0

    pairs = base / "pairs.tsv"
    with open(tok, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    pairs.write_text(
        "\n".join(f"{line}\t{line}\t0.9" for line in lines) + "\n",
        encoding="utf-8")
    kept = base / "kept.tsv"
    report = base / "report.txt"
    assert run(["filter", str(pairs), "-o", str(kept), "--report", str(report),
                "--threads", t]) == 0
    mixed = base / "mixed.tsv"
    assert run(["mix", "--part", f"2:bitext:{kept}",
                "--part", f"1:backtranslated:{kept}",
                "--n", "200", "--seed", "11", "-o", str(mixed)]) == 0

    fwd_path = base / "fwd.scorer"
    models.save_table_scorer(TableScorer(
        ["a", "b", "eos"],
        {
            ((0,), ()): [0.46, 0.44, 0.10],
            ((0,), (0,)): [0.10, 0.10, 0.80],
            ((0,), (1,)): [0.10, 0.10, 0.80],
        },
        np.ones(3) / 3,
    ), fwd_path)
    rev_path = base / "rev.scorer"
    models.save_table_scorer(
        TableScorer(["a", "b", "eos"], {}, [0.5, 0.3, 0.2]), rev_path)
    src = base / "src.txt"
    src.write_text("0\n" * 20, encoding="utf-8")
    hyp = base / "hyp.txt"
    dump = base / "dump.tsv"
    assert run(["decode", str(src), "-o", str(hyp), "--model", str(fwd_path),
                "--beam", "9", "--max-len", "2", "--n-candidates", "9",
                "--dump", str(dump), "--threads", t, "--seed", "5"]) == 0
    reranked = base / "reranked.txt"
    assert run(["rerank", "--dump", str(dump), "--source", str(src),
                "--rev", str(rev_path), "--lm", str(rev_path),
                "--lam", "0.5", "--top1", "-o", str(reranked)]) == 0
    score = base / "score.txt"
    assert run(["score-bleu", "--hyp", str(reranked), "--ref", str(hyp),
                "-o", str(score)]) == 0

    artifacts = (norm, tok, codes, ids, kept, report, mixed, hyp, dump,
                 reranked, score)
    return {p.name: p.read_bytes() for p in artifacts}


def test_pipeline_determinism(tmp_path):
    with criterion("determinism: same-seed pipeline reruns byte-identical, "
                   "threads 1 == threads 8"):
        first = _run_pipeline(tmp_path / "run1", threads=1)
        second = _run_pipeline(tmp_path / "run2", threads=1)
        assert first == second
        threaded = _run_pipeline(tmp_path / "run8", threads=8)
        assert first == threaded
