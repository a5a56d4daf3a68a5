"""Seeded inputs, stage sequences and output checks for the three workloads.

Every input is generated from the workload seed; nothing is downloaded.
A workload is a `Workload` object: `setup(workdir)` writes the inputs and
the models that have no CLI stage, `pipeline()` lists the CLI stages (and
the small shell-like glue steps between them) in the order a user runs
them, and `check(workdir)` returns the output-check failures per stage.

Why these workloads:

- curate: every data-side module does its work (normalize, tokenize, BPE
  train/encode/dropout, langid, filter cascade, domain selection, reversal,
  mixing) and no scorer or beam search runs, so a decoding optimisation
  must predict no change here. Words come from a Zipfian synthetic lexicon
  with thousands of types per language so BPE sees a realistic long tail.
- translate: the decoding pass (beam search with shallow fusion at V=2000,
  alpha=0, noisy-channel rerank, BLEU). The forward model is a table keyed
  on (source, reference prefix); an n-gram forward model ignores the source
  and makes every best hypothesis a bare eos.
- ensemble-sample: the same decode layers used differently: a two-member
  ensemble, alpha=1 (no early-stop certificate), one thread, small V with
  many cheap steps, and top-k sampling that visits fresh contexts.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mtkit import bleu, models


# ---------------------------------------------------------------------------
# sizes

@dataclass(frozen=True)
class CurateSize:
    pairs: int
    lexicon: int  # general word types per language
    domain_lexicon: int  # in-domain word types per language
    langid_lines: int  # training lines per language
    domain_lines: int  # positive and negative training lines per language
    bpe_vocab: int


@dataclass(frozen=True)
class DecodeSize:
    sources: int
    vocab: int
    lm_lines: int


SIZES = {
    "full": {
        "curate": CurateSize(pairs=1500, lexicon=2500, domain_lexicon=250,
                             langid_lines=300, domain_lines=200, bpe_vocab=500),
        "translate": DecodeSize(sources=8, vocab=2000, lm_lines=1500),
        "ensemble-sample": DecodeSize(sources=16, vocab=300, lm_lines=1000),
    },
    "tiny": {
        "curate": CurateSize(pairs=120, lexicon=300, domain_lexicon=40,
                             langid_lines=60, domain_lines=40, bpe_vocab=200),
        "translate": DecodeSize(sources=3, vocab=200, lm_lines=100),
        "ensemble-sample": DecodeSize(sources=3, vocab=100, lm_lines=100),
    },
}


# ---------------------------------------------------------------------------
# pipeline description

@dataclass(frozen=True)
class Stage:
    """One `mtkit` invocation: a unique label, its argv, and its output files."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def with_threads(self, threads: int) -> "Stage":
        argv = list(self.argv)
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = str(threads)
        return Stage(self.label, tuple(argv), self.outputs)


@dataclass(frozen=True)
class Glue:
    """A step a user does with cat/paste between stages; runs in the harness."""

    label: str
    fn: object  # callable(workdir: Path) -> None


def stages(wl) -> list[Stage]:
    return [step for step in wl.pipeline() if isinstance(step, Stage)]


OUT = "out"  # stage outputs live under workdir/out, inputs under workdir/in


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_inputs(workdir: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted((workdir / "in").iterdir())}


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")[:-1]


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _fresh(workdir: Path) -> Path:
    inp = workdir / "in"
    if inp.exists():
        shutil.rmtree(inp)
    inp.mkdir(parents=True)
    return inp


def _length_schedule(n: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """A fixed multiset of lengths in [lo, hi], shuffled: the total work of a
    workload does not depend on the seed, only the content does."""
    lengths = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(lengths)
    return lengths


# ---------------------------------------------------------------------------
# curate

_EN_C, _EN_V = "bcdfghklmnprstvwz", "aeiou"
_RU_C, _RU_V = "бвгджзклмнпрстфхчш", "аеиоуыэя"
_NOISE = ("quotes", "dash", "spaces", "ellipsis", "squote")


def _make_words(rng: random.Random, n: int, cons: str, vows: str, avoid=()) -> list[str]:
    words: list[str] = []
    seen = set(avoid)
    while len(words) < n:
        syl = rng.choice((1, 2, 2, 2, 3, 3))
        word = "".join(
            rng.choice(cons) + rng.choice(vows) + (rng.choice(cons) if rng.random() < 0.3 else "")
            for _ in range(syl)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Lang:
    """A synthetic language: Zipfian general lexicon plus in-domain words."""

    def __init__(self, rng: random.Random, size: CurateSize, cons: str, vows: str):
        self.general = _make_words(rng, size.lexicon, cons, vows)
        self.domain = _make_words(rng, size.domain_lexicon, cons, vows, avoid=self.general)
        self.cum = []
        acc = 0.0
        for rank in range(len(self.general)):
            acc += 1.0 / (rank + 1.5)
            self.cum.append(acc)

    def words(self, rng: random.Random, n: int, in_domain: bool) -> list[str]:
        out = rng.choices(self.general, cum_weights=self.cum, k=n)
        if in_domain:
            for i in range(n):
                if rng.random() < 0.4:
                    out[i] = rng.choice(self.domain)
        return out


def _raw_sentence(words: list[str], comma: int | None, end: str, noise: str | None) -> str:
    """Surface text with attached punctuation and optional typographic noise."""
    words = list(words)
    if comma is not None:
        words[comma] += ","
    if noise == "quotes":
        words[1] = "“" + words[1] + "”"
    elif noise == "squote":
        words[1] = "‘" + words[1] + "’"
    text = " ".join(words)
    if noise == "dash":
        mid = text.find(" ", len(text) // 2)
        if mid > 0:
            text = text[:mid] + " —" + text[mid:]
    elif noise == "spaces":
        text = text.replace(" ", "  ", 2)
    return text + ("…" if noise == "ellipsis" else end)


def _token_sentence(words: list[str], end: str = ".") -> str:
    return " ".join(words + [end])


class Curate:
    name = "curate"
    threads = 2

    def __init__(self, seed: int, size: CurateSize):
        self.seed = seed
        self.size = size
        self.sentences = size.pairs

    def setup(self, workdir: Path) -> None:
        size = self.size
        inp = _fresh(workdir)
        rng = random.Random(f"curate:{self.seed}")
        en = _Lang(rng, size, _EN_C, _EN_V)
        ru = _Lang(rng, size, _RU_C, _RU_V)

        n = size.pairs
        order = list(range(n))
        rng.shuffle(order)
        planted, start = [], 0
        for share in (30, 30, 25, 16):
            count = max(1, n // share)
            planted.append(set(order[start:start + count]))
            start += count
        wrong_src, wrong_tgt, bad_ratio, low_score = planted
        lengths = _length_schedule(n, 6, 20, rng)

        raw_en, raw_ru, scores = [], [], []
        for i in range(n):
            in_domain = rng.random() < 0.25
            len_s = lengths[i]
            len_t = len_s * 2 + 2 if i in bad_ratio else max(3, len_s + rng.choice((-1, 0, 1)))
            comma = rng.randrange(1, min(len_s, len_t) - 1) if rng.random() < 0.4 else None
            end = rng.choice((".", ".", ".", "?", "!"))
            noise = rng.choice(_NOISE) if rng.random() < 0.3 else None
            src_lang = ru if i in wrong_src else en
            tgt_lang = en if i in wrong_tgt else ru
            raw_en.append(_raw_sentence(src_lang.words(rng, len_s, in_domain), comma, end, noise))
            raw_ru.append(_raw_sentence(tgt_lang.words(rng, len_t, in_domain), comma, end, noise))
            score = rng.uniform(0.1, 0.5) if i in low_score else rng.uniform(0.62, 1.0)
            scores.append(f"{score:.3f}")
        _write_lines(inp / "raw.en", raw_en)
        _write_lines(inp / "raw.ru", raw_ru)
        _write_lines(inp / "scores", scores)

        for code, lang in (("en", en), ("ru", ru)):
            _write_lines(inp / f"lid.{code}", (
                _token_sentence(lang.words(rng, rng.randint(4, 16), rng.random() < 0.25))
                for _ in range(size.langid_lines)
            ))
            _write_lines(inp / f"dom_pos.{code}", (
                _token_sentence(lang.words(rng, rng.randint(6, 20), True))
                for _ in range(size.domain_lines)
            ))
            _write_lines(inp / f"dom_neg.{code}", (
                _token_sentence(lang.words(rng, rng.randint(6, 20), False))
                for _ in range(size.domain_lines)
            ))

    def pipeline(self):
        s = str(self.seed)
        t = str(self.threads)
        o = OUT + "/"
        return [
            Stage("normalize.en", ("normalize", "in/raw.en", "-o", o + "norm.en"), (o + "norm.en",)),
            Stage("normalize.ru", ("normalize", "in/raw.ru", "-o", o + "norm.ru"), (o + "norm.ru",)),
            Stage("tokenize.en", ("tokenize", o + "norm.en", "--lang", "en", "-o", o + "tok.en"),
                  (o + "tok.en",)),
            Stage("tokenize.ru", ("tokenize", o + "norm.ru", "--lang", "ru", "-o", o + "tok.ru"),
                  (o + "tok.ru",)),
            Glue("cat", _cat_joint),
            Stage("bpe-train", ("bpe-train", o + "joint.tok", "--vocab-size",
                                str(self.size.bpe_vocab), "--model-out", o + "bpe.model"),
                  (o + "bpe.model",)),
            Stage("bpe-encode", ("bpe-encode", o + "joint.tok", "--model", o + "bpe.model",
                                 "-o", o + "joint.ids"), (o + "joint.ids",)),
            Stage("bpe-encode.dropout", ("bpe-encode", o + "joint.tok", "--model", o + "bpe.model",
                                         "--dropout", "0.1", "--seed", s, "-o", o + "joint.drop.ids"),
                  (o + "joint.drop.ids",)),
            Stage("langid-train", ("langid-train", "en=in/lid.en", "ru=in/lid.ru",
                                   "--seed", s, "--model-out", o + "lid.model"),
                  (o + "lid.model",)),
            Glue("paste", _paste_pairs),
            Stage("filter", ("filter", o + "pairs.tsv", "--langid", o + "lid.model",
                             "--langs", "en,ru", "--report", o + "filter.report",
                             "--threads", t, "--seed", s, "-o", o + "kept.tsv"),
                  (o + "kept.tsv", o + "filter.report")),
            Stage("domain-train.en", ("domain-train", "--positives", "in/dom_pos.en",
                                      "--negatives", "in/dom_neg.en", "--lang", "en",
                                      "--seed", s, "--model-out", o + "dom.en"), (o + "dom.en",)),
            Stage("domain-train.ru", ("domain-train", "--positives", "in/dom_pos.ru",
                                      "--negatives", "in/dom_neg.ru", "--lang", "ru",
                                      "--seed", s, "--model-out", o + "dom.ru"), (o + "dom.ru",)),
            Stage("domain-select", ("domain-select", o + "kept.tsv", "--clf-en", o + "dom.en",
                                    "--clf-ru", o + "dom.ru", "-o", o + "selected.tsv"),
                  (o + "selected.tsv",)),
            Stage("reverse-target", ("reverse-target", o + "kept.tsv", "-o", o + "r2l.tsv"),
                  (o + "r2l.tsv",)),
            Stage("mix", ("mix", "--part", "0.7:bitext:" + o + "kept.tsv",
                          "--part", "0.3:r2l_distilled:" + o + "r2l.tsv",
                          "--n", str(self.size.pairs), "--seed", s, "-o", o + "mixed.tsv"),
                  (o + "mixed.tsv",)),
        ]

    def check(self, workdir: Path) -> dict[str, str]:
        """Digest-independent invariants; returns {stage label: reason}."""
        out = workdir / OUT
        bad: dict[str, str] = {}
        n = self.size.pairs
        for code in ("en", "ru"):
            norm = _lines(out / f"norm.{code}")
            if len(norm) != n:
                bad[f"normalize.{code}"] = f"{len(norm)} lines, expected {n}"
            elif any(ch in line for line in norm for ch in "“”‘’—…")\
                    or any("  " in line for line in norm):
                bad[f"normalize.{code}"] = "typographic noise left after normalization"
            if len(_lines(out / f"tok.{code}")) != n:
                bad[f"tokenize.{code}"] = "line count differs from input"
        joint = _lines(out / "joint.tok")
        model = _lines(out / "bpe.model")
        if not model or not model[0].startswith(f"bpe-v1 {self.size.bpe_vocab}"):
            bad["bpe-train"] = "model header missing"
        ids = _lines(out / "joint.ids")
        drop = _lines(out / "joint.drop.ids")
        vocab_n = model.index("") - 1 if "" in model else 0
        if len(ids) != len(joint) or any(
            int(t) >= vocab_n for line in ids for t in line.split()
        ):
            bad["bpe-encode"] = "line count or id range wrong"
        if len(drop) != len(joint) or sum(len(x.split()) for x in drop) < sum(
            len(x.split()) for x in ids
        ):
            bad["bpe-encode.dropout"] = "dropout output shorter than plain encoding"
        if not _lines(out / "lid.model")[0].startswith("langid-v1 "):
            bad["langid-train"] = "model header missing"

        report = dict(line.split("\t") for line in _lines(out / "filter.report"))
        report = {k: int(v) for k, v in report.items()}
        rejected = sum(v for k, v in report.items() if k.startswith("rejected."))
        kept = _lines(out / "kept.tsv")
        if report["total"] != n or report["malformed"] != 0:
            bad["filter"] = f"report total {report['total']} for {n} pairs"
        elif report["kept"] + rejected != report["total"]:
            bad["filter"] = "kept + rejected != total"
        elif len(kept) != report["kept"] or report["kept"] == 0:
            bad["filter"] = f"{len(kept)} kept lines vs report {report['kept']}"
        elif min(report[f"rejected.{r}"] for r in ("langid_src", "langid_tgt", "ratio", "score")) == 0:
            bad["filter"] = "a planted violation class was never rejected"

        for code in ("en", "ru"):
            if not _lines(out / f"dom.{code}")[0].startswith(f"domcls-v1 {code}"):
                bad[f"domain-train.{code}"] = "model header missing"
        selected = _lines(out / "selected.tsv")
        if not selected or len(selected) > len(kept) or any(
            (float(c[-2]) + float(c[-1])) / 2 < 0.9 - 1e-9
            for c in (line.split("\t") for line in selected)
        ):
            bad["domain-select"] = "empty selection or pair below the final threshold"
        r2l = _lines(out / "r2l.tsv")
        if len(r2l) != len(kept) or any(
            a.split("\t")[1].split()[::-1] != b.split("\t")[1].split()
            for a, b in zip(kept, r2l)
        ):
            bad["reverse-target"] = "targets are not the reversed kept targets"
        if len(_lines(out / "mixed.tsv")) != n:
            bad["mix"] = f"mix did not emit --n {n} lines"
        return bad


def _cat_joint(workdir: Path) -> None:
    out = workdir / OUT
    with open(out / "joint.tok", "wb") as dst:
        for name in ("tok.en", "tok.ru"):
            dst.write((out / name).read_bytes())


def _paste_pairs(workdir: Path) -> None:
    out = workdir / OUT
    _write_lines(out / "pairs.tsv", (
        f"{s}\t{t}\t{c}" for s, t, c in zip(
            _lines(out / "tok.en"), _lines(out / "tok.ru"), _lines(workdir / "in" / "scores"))
    ))


# ---------------------------------------------------------------------------
# decoding workloads

# Trigram interpolation weights (unigram, bigram, trigram) of the LM and the
# reverse model: the chain languages are nearly deterministic, so the higher
# orders carry the mass.
_NGRAM_WEIGHTS = (0.1, 0.3, 0.6)


class _Chain:
    """A random Markov-chain language over ids 0..V-2 (V-1 is eos)."""

    def __init__(self, rng: random.Random, vocab: int):
        content = vocab - 1
        self.starts = rng.sample(range(content), min(content, max(10, content // 7)))
        self.succ = [rng.sample(range(content), 3) for _ in range(content)]
        self.weights = (0.9, 0.07, 0.03)

    def sentence(self, rng: random.Random, length: int) -> list[int]:
        tok = rng.choice(self.starts)
        out = [tok]
        while len(out) < length:
            tok = rng.choices(self.succ[tok], weights=self.weights)[0]
            out.append(tok)
        return out

    def corpus(self, rng: random.Random, n: int) -> list[list[int]]:
        return [self.sentence(rng, rng.randint(6, 22)) for _ in range(n)]


# Inside the table, stopping before the reference ends is all but ruled out:
# with an n-gram LM in the rerank, a short hypothesis would otherwise win.
_EARLY_EOS = 1e-9


def _row(vocab: int, peaks: dict[int, float]) -> np.ndarray:
    vec = np.full(vocab, (1.0 - sum(peaks.values())) / (vocab - len(peaks)))
    for tok, p in peaks.items():
        vec[tok] = p
    return vec


def _table_scorer(rng: random.Random, vocab: int, sources, refs) -> models.TableScorer:
    """Forward model peaked along each reference.

    Up to two positions per sentence are split between the reference token
    and an alternative; the alternative path continues with the rest of the
    reference, so the n-best holds full-length variants. Contexts off these
    paths fall back to the uniform default.
    """
    eos = vocab - 1
    table = {}
    for src, ref in zip(sources, refs):
        n = len(ref)
        splits = {}
        for j in rng.sample(range(n), 2):
            if rng.random() < 0.6:
                alt = rng.randrange(vocab - 1)
                while alt == ref[j]:
                    alt = rng.randrange(vocab - 1)
                splits[j] = alt
        paths = [(ref, splits)] + [
            (ref[:j] + [alt] + ref[j + 1:], {}) for j, alt in splits.items()
        ]
        for path, path_splits in paths:
            for j in range(n + 1):
                key = (tuple(src), tuple(path[:j]))
                if key in table:
                    continue
                if j == n:
                    peaks = {eos: 0.8}
                elif j in path_splits:
                    peaks = {path[j]: 0.45, path_splits[j]: 0.35, eos: _EARLY_EOS}
                else:
                    peaks = {path[j]: 0.8, eos: _EARLY_EOS}
                table[key] = _row(vocab, peaks)
    vocab_tokens = [f"w{i}" for i in range(vocab - 1)] + ["eos"]
    return models.TableScorer(vocab_tokens, table, np.full(vocab, 1.0 / vocab))


def _ids(seq) -> str:
    return " ".join(str(t) for t in seq)


class _DecodeWorkload:
    name = ""
    threads = 1

    def __init__(self, seed: int, size: DecodeSize):
        self.seed = seed
        self.size = size
        self.sentences = size.sources
        self.eos = size.vocab - 1
        self.table: models.TableScorer | None = None

    def _setup_common(self, workdir: Path):
        size = self.size
        inp = _fresh(workdir)
        rng = random.Random(f"{self.name}:{self.seed}")
        src_chain = _Chain(rng, size.vocab)
        tgt_chain = _Chain(rng, size.vocab)
        sources: list[list[int]] = []
        seen = set()
        for length in _length_schedule(size.sources, 8, 20, rng):
            src = src_chain.sentence(rng, length)
            while tuple(src) in seen:
                src = src_chain.sentence(rng, length)
            seen.add(tuple(src))
            sources.append(src)
        refs = [tgt_chain.sentence(rng, n) for n in _length_schedule(size.sources, 8, 20, rng)]
        _write_lines(inp / "src.ids", map(_ids, sources))
        _write_lines(inp / "ref.ids", map(_ids, refs))
        self.table = _table_scorer(rng, size.vocab, sources, refs)
        models.save_table_scorer(self.table, inp / "fwd.table")
        # The LM has seen the references among its chain sentences, as a
        # large in-domain LM would have seen their n-grams.
        lm = models.ngram_train(tgt_chain.corpus(rng, size.lm_lines) + refs, 3,
                                vocab_size=size.vocab, eos_id=self.eos, weights=_NGRAM_WEIGHTS)
        models.save_ngram_scorer(lm, inp / "lm.ngram")
        return rng, src_chain

    def _check_lines(self, workdir: Path, bad: dict, label: str, name: str) -> list[str]:
        lines = _lines(workdir / OUT / name)
        if len(lines) != self.size.sources:
            bad[label] = f"{len(lines)} lines for {self.size.sources} sources"
        return lines

    def preflight(self, workdir: Path) -> tuple[bool, str]:
        """Greedy forward-model decode of the generated inputs.

        Guards against a degenerate workload: when most best hypotheses are
        a bare eos the decode measures nothing a user cares about.
        """
        sources = [tuple(map(int, line.split())) for line in _lines(workdir / "in" / "src.ids")]
        refs = [line.split() for line in _lines(workdir / "in" / "ref.ids")]
        hyps = []
        for src in sources:
            prefix: tuple[int, ...] = ()
            while len(prefix) < 24:
                prefix += (int(np.argmax(self.table.next_dist(src, prefix))),)
                if prefix[-1] == self.eos:
                    break
            hyps.append(prefix)
        bare = sum(1 for h in hyps if h == (self.eos,))
        bodies = [[str(t) for t in h if t != self.eos] for h in hyps]
        result = bleu.corpus_bleu(bodies, refs)
        ratio = result.hyp_len / max(result.ref_len, 1)
        msg = (f"preflight {self.name}: greedy forward top-1 BLEU {result.score:.2f}, "
               f"hyp/ref length ratio {ratio:.3f}, bare-eos {bare}/{len(hyps)}")
        return bare * 2 <= len(hyps), msg


class Translate(_DecodeWorkload):
    name = "translate"
    threads = 2

    def setup(self, workdir: Path) -> None:
        rng, src_chain = self._setup_common(workdir)
        rev = models.ngram_train(src_chain.corpus(rng, self.size.lm_lines), 3,
                                 vocab_size=self.size.vocab, eos_id=self.eos,
                                 weights=_NGRAM_WEIGHTS)
        models.save_ngram_scorer(rev, workdir / "in" / "rev.ngram")

    def pipeline(self):
        o = OUT + "/"
        return [
            Stage("decode", ("decode", "in/src.ids", "--model", "in/fwd.table", "--lm", "in/lm.ngram",
                             "--fusion-lambda", "0.1", "--beam", "5", "--n-candidates", "5",
                             "--max-len", "24", "--alpha", "0", "--dump", o + "cands.dump",
                             "--threads", str(self.threads), "--seed", str(self.seed),
                             "-o", o + "top1.txt"),
                  (o + "top1.txt", o + "cands.dump")),
            Stage("rerank", ("rerank", "--dump", o + "cands.dump", "--source", "in/src.ids",
                             "--rev", "in/rev.ngram", "--lm", "in/lm.ngram", "--lam", "0.6",
                             "--top1", "-o", o + "rerank.txt"), (o + "rerank.txt",)),
            Stage("score-bleu", ("score-bleu", "--hyp", o + "rerank.txt", "--ref", "in/ref.ids",
                                 "-o", o + "bleu.txt"), (o + "bleu.txt",)),
            Stage("oracle-bleu", ("oracle-bleu", "--dump", o + "cands.dump", "--ref", "in/ref.ids",
                                  "--eos-id", str(self.eos), "-o", o + "oracle.txt"),
                  (o + "oracle.txt",)),
        ]

    def check(self, workdir: Path) -> dict[str, str]:
        bad: dict[str, str] = {}
        top1 = self._check_lines(workdir, bad, "decode", "top1.txt")
        dump = _lines(workdir / OUT / "cands.dump")
        if {int(line.split("\t")[0]) for line in dump} != set(range(self.size.sources)):
            bad["decode"] = "candidate dump does not cover every source"
        elif sum(1 for line in top1 if not line) * 2 > len(top1):
            bad["decode"] = "most top-1 hypotheses are a bare eos"
        reranked = self._check_lines(workdir, bad, "rerank", "rerank.txt")
        if sum(1 for line in reranked if not line) * 2 > len(reranked):
            bad["rerank"] = "most reranked hypotheses are a bare eos"
        score = _lines(workdir / OUT / "bleu.txt")
        if len(score) != 1 or not score[0].startswith("BLEU ") or float(score[0].split()[1]) <= 0:
            bad["score-bleu"] = "no positive BLEU line"
        oracle = _lines(workdir / OUT / "oracle.txt")
        if len(oracle) != 1 or not oracle[0].startswith("oracle-BLEU "):
            bad["oracle-bleu"] = "no oracle-BLEU line"
        return bad

    def quality(self, workdir: Path) -> str:
        """Top-1 BLEU and length ratio of the reranked pipeline output."""
        hyps = [line.split() for line in _lines(workdir / OUT / "rerank.txt")]
        refs = [line.split() for line in _lines(workdir / "in" / "ref.ids")]
        result = bleu.corpus_bleu(hyps, refs)
        bare = sum(1 for h in hyps if not h)
        return (f"translate top-1 (reranked) BLEU {result.score:.2f}, hyp/ref length ratio "
                f"{result.hyp_len / max(result.ref_len, 1):.3f}, bare-eos {bare}/{len(hyps)}")


class EnsembleSample(_DecodeWorkload):
    name = "ensemble-sample"
    threads = 1

    def setup(self, workdir: Path) -> None:
        self._setup_common(workdir)

    def pipeline(self):
        o = OUT + "/"
        model = ("--model", "in/fwd.table", "in/lm.ngram")
        common = ("--threads", str(self.threads), "--seed", str(self.seed))
        return [
            Stage("decode", ("decode", "in/src.ids", *model, "--alpha", "1.0", "--beam", "8",
                             "--max-len", "48", *common, "-o", o + "top1.txt"), (o + "top1.txt",)),
            Stage("sample", ("sample", "in/src.ids", *model, "--k", "50", "--max-len", "48",
                             *common, "-o", o + "sample.txt"), (o + "sample.txt",)),
        ]

    def check(self, workdir: Path) -> dict[str, str]:
        bad: dict[str, str] = {}
        self._check_lines(workdir, bad, "decode", "top1.txt")
        samples = self._check_lines(workdir, bad, "sample", "sample.txt")
        limit = self.size.vocab
        if any(int(t) >= limit for line in samples for t in line.split()):
            bad["sample"] = "sampled id outside the vocabulary"
        return bad


WORKLOADS = {"curate": Curate, "translate": Translate, "ensemble-sample": EnsembleSample}


def make(name: str, seed: int, profile: str = "full"):
    return WORKLOADS[name](seed, SIZES[profile][name])
