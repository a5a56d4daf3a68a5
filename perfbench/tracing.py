"""Spans around the public functions of each mtkit module, recorded from here.

`Tracer.installed()` swaps wrappers onto the module attributes and class
methods that the CLI reaches (the modules look each other up through module
globals, so a call made inside the library is seen too) and restores the
originals on exit; `src/` is not modified. Each span records its name,
start and end (wall clock), the CPU time of its thread, its parent and its
thread, plus one attribute: the thread count of a pool driver, or whether
a `next_dist` call scored a source (a forward model) or not (a language
model). Spans are kept in memory; `layer_metrics` reduces them to the
per-layer metrics of one workload.

A span opened on a worker thread of a pool has no parent on its own thread;
its parent is the innermost span open on the harness thread, i.e. the call
that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time

from mtkit import bleu, bpe, corpus, decode, domain, models, textnorm


class Tracer:
    def __init__(self):
        # (id, parent id, thread ident, name, start, end, thread cpu seconds, attribute)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._harness: list[int] = []
        self._patches: list[tuple] = []
        self._keep: dict[int, object] = {}  # objects whose id() keys a set below
        self._contexts: set = set()
        self._words: dict[int, set] = defaultdict(set)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._harness[-1] if self._harness else 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def root(self, name: str):
        """A top-level span (one CLI stage, or set-up) on the harness thread."""
        self._harness = self._stack()
        stack, sid, parent = self._open()
        c0, t0 = thread_time(), perf_counter()
        try:
            yield
        finally:
            t1, c1 = perf_counter(), thread_time()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, c1 - c0, None))

    def _wrap(self, owner, attr: str, name, note=None, after=None) -> None:
        orig = owner.__dict__[attr]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            value = note(args, kwargs) if note is not None else None
            stack, sid, parent = tracer._open()
            c0, t0 = thread_time(), perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1, c1 = perf_counter(), thread_time()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, threading.get_ident(), span, t0, t1, c1 - c0, value)
                )
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    @contextmanager
    def installed(self):
        fn = self._wrap
        fn(textnorm, "normalize_punct", "textnorm.normalize_punct")
        fn(textnorm, "word_tokenize", "textnorm.word_tokenize")
        fn(bpe, "bpe_train", "bpe.bpe_train", after=self._after_bpe_train)
        fn(bpe, "bpe_encode", _bpe_encode_name, after=self._after_bpe_encode)
        fn(corpus, "langid_train", "corpus.langid_train")
        fn(corpus, "langid_classify", "corpus.langid_classify")
        fn(corpus, "filter_pair", "corpus.filter_pair")
        fn(corpus, "filter_corpus", "corpus.filter_corpus", _threads(3), self._after_filter)
        fn(corpus, "mix_sample", "corpus.mix_sample")
        fn(domain, "domain_train", "domain.domain_train")
        fn(domain, "bilingual_select", "domain.bilingual_select", after=self._after_select)
        fn(domain.DomainClassifier, "score", "domain.score")
        fn(models, "load_scorer", "models.load_scorer")
        fn(models, "ngram_train", "models.ngram_train")
        fn(models.NGramScorer, "next_dist", "models.ngram.next_dist", _scores_source,
           self._after_ngram)
        fn(models.TableScorer, "next_dist", "models.table.next_dist", _scores_source)
        fn(models.EnsembleScorer, "next_dist", "models.ensemble.next_dist", _scores_source)
        fn(decode, "beam_search", "decode.beam_search")
        fn(decode, "decode_batch", "decode.decode_batch", _threads(4))
        fn(decode, "topk_sample", "decode.topk_sample")
        fn(decode, "noisy_channel_rerank", "decode.noisy_channel_rerank")
        fn(decode, "sequence_logprob", "decode.sequence_logprob")
        fn(bleu, "corpus_bleu", "bleu.corpus_bleu")
        fn(bleu, "sentence_bleu", "bleu.sentence_bleu")
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)

    # -- counters taken from arguments and results, outside the timed span

    def _after_bpe_train(self, args, kwargs, model) -> None:
        self.counts["bpe.merges"] += len(model.merges)

    def _after_bpe_encode(self, args, kwargs, ids) -> None:
        model, text = args[0], args[1]
        if _dropout(args, kwargs) > 0:
            return
        self._keep[id(model)] = model
        seen = self._words[id(model)]
        for word in text.split():
            self.counts["bpe.words"] += 1
            if word in seen:
                self.counts["bpe.repeat_words"] += 1
            else:
                seen.add(word)

    def _after_filter(self, args, kwargs, result) -> None:
        report = result[1]
        self.counts["filter.total"] += report.total
        self.counts["filter.kept"] += report.kept

    def _after_select(self, args, kwargs, result) -> None:
        counts = result[1]
        self.counts["domain.input"] += counts["input"]
        self.counts["domain.stage2_scored"] += counts["stage2_scored"]

    def _after_ngram(self, args, kwargs, result) -> None:
        scorer, prefix = args[0], tuple(args[2])
        self._keep[id(scorer)] = scorer
        ctx = prefix[len(prefix) - (scorer.order - 1):] if scorer.order > 1 else ()
        self._contexts.add((id(scorer), ctx))

    @property
    def distinct_ngram_contexts(self) -> int:
        return len(self._contexts)


def _dropout(args, kwargs) -> float:
    if len(args) > 2:
        return args[2]
    return kwargs.get("dropout_p", 0.0)


def _bpe_encode_name(args, kwargs) -> str:
    return "bpe.bpe_encode_dropout" if _dropout(args, kwargs) > 0 else "bpe.bpe_encode"


def _scores_source(args, kwargs) -> bool:
    """True when next_dist(self, source, prefix) got a source: a forward model."""
    return bool(args[1])


def _threads(position: int):
    """The `threads` argument of a pool driver, for parallel_eff."""
    return lambda args, kwargs: args[position] if len(args) > position else kwargs.get("threads", 1)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Spans:
    def __init__(self, spans):
        self.by_name: dict[str, list] = defaultdict(list)
        self.children: dict[int, list] = defaultdict(list)
        for span in spans:
            self.by_name[span[3]].append(span)
            self.children[span[1]].append(span)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.named(name))

    def self_time(self, spans) -> float:
        out = 0.0
        for s in spans:
            kids = [(max(c[4], s[4]), min(c[5], s[5])) for c in self.children[s[0]]]
            out += (s[5] - s[4]) - _union((a, b) for a, b in kids if b > a)
        return out

    def parallel_eff(self, driver: str, worker: str) -> float:
        """CPU time of the worker spans / (driver wall time x threads).

        Thread CPU time, not span wall time: with the interpreter lock, a
        worker's wall time includes the time it waited for the lock.
        """
        capacity = sum((s[5] - s[4]) * s[7] for s in self.named(driver))
        busy = sum(s[6] for s in self.named(worker))
        return busy / capacity if capacity else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


METRIC_UNITS = (
    (".calls", "count"), (".merges", "count"), (".expanded_beams", "count"),
    (".us_per_call", "us"), ("_frac", "frac"), (".parallel_eff", "frac"), ("s", "s"),
)

def unit_of(metric: str) -> str:
    return next(unit for suffix, unit in METRIC_UNITS if metric.endswith(suffix))


def layer_metrics(workload: str, tracer: Tracer, subcommands, untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one workload's traced pass, prefixed by its name."""
    sp = _Spans(tracer.spans)
    c = tracer.counts
    m: dict[str, float] = {}
    for sub in subcommands:
        m[f"cli.{sub}.s"] = sp.total(f"cli.{sub}")
    m["cli.self_s"] = sp.self_time([s for s in tracer.spans if s[3].startswith("cli.")])

    if workload == "curate":
        m["textnorm.normalize_punct.s"] = sp.total("textnorm.normalize_punct")
        m["textnorm.word_tokenize.s"] = sp.total("textnorm.word_tokenize")
        m["bpe.bpe_train.s"] = sp.total("bpe.bpe_train")
        m["bpe.bpe_train.merges"] = c["bpe.merges"]
        m["bpe.bpe_encode.s"] = sp.total("bpe.bpe_encode")
        m["bpe.bpe_encode_dropout.s"] = sp.total("bpe.bpe_encode_dropout")
        m["bpe.encode.repeat_word_frac"] = _ratio(c["bpe.repeat_words"], c["bpe.words"])
        m["corpus.langid_train.s"] = sp.total("corpus.langid_train")
        m["corpus.filter_corpus.s"] = sp.total("corpus.filter_corpus")
        m["corpus.filter_corpus.parallel_eff"] = sp.parallel_eff(
            "corpus.filter_corpus", "corpus.filter_pair")
        m["corpus.langid_classify.calls"] = sp.calls("corpus.langid_classify")
        m["corpus.langid_classify.us_per_call"] = 1e6 * _ratio(
            sp.total("corpus.langid_classify"), sp.calls("corpus.langid_classify"))
        m["corpus.filter.kept_frac"] = _ratio(c["filter.kept"], c["filter.total"])
        m["corpus.mix_sample.s"] = sp.total("corpus.mix_sample")
        m["domain.domain_train.s"] = sp.total("domain.domain_train")
        m["domain.bilingual_select.s"] = sp.total("domain.bilingual_select")
        m["domain.score.calls"] = sp.calls("domain.score")
        m["domain.stage2_frac"] = _ratio(c["domain.stage2_scored"], c["domain.input"])
    else:
        m["models.load_scorer.s"] = sp.total("models.load_scorer")
        kinds = ("ngram", "table") if workload == "translate" else ("ngram", "table", "ensemble")
        for kind in kinds:
            m[f"models.{kind}.next_dist.calls"] = sp.calls(f"models.{kind}.next_dist")
            m[f"models.{kind}.next_dist.s"] = sp.total(f"models.{kind}.next_dist")
        ngram_calls = sp.calls("models.ngram.next_dist")
        m["models.ngram.next_dist.us_per_call"] = 1e6 * _ratio(
            sp.total("models.ngram.next_dist"), ngram_calls)
        m["models.ngram.next_dist.repeat_frac"] = (
            1.0 - _ratio(tracer.distinct_ngram_contexts, ngram_calls))
        m["models.ngram_train.s"] = sp.total("models.ngram_train")
        beams = sp.named("decode.beam_search")
        beam_ids = {s[0] for s in beams}
        m["decode.beam_search.calls"] = len(beams)
        m["decode.beam_search.s"] = sp.total("decode.beam_search")
        m["decode.beam_search.self_s"] = sp.self_time(beams)
        m["decode.beam_search.expanded_beams"] = sum(
            1 for s in tracer.spans
            if s[3].endswith(".next_dist") and s[7] and s[1] in beam_ids)
        m["decode.decode_batch.parallel_eff"] = sp.parallel_eff(
            "decode.decode_batch", "decode.beam_search")
        if workload == "translate":
            rerank = sp.named("decode.noisy_channel_rerank")
            m["decode.noisy_channel_rerank.s"] = sp.total("decode.noisy_channel_rerank")
            m["decode.noisy_channel_rerank.self_s"] = sp.self_time(rerank)
            m["decode.sequence_logprob.calls"] = sp.calls("decode.sequence_logprob")
            m["bleu.corpus_bleu.s"] = sp.total("bleu.corpus_bleu")
            m["bleu.sentence_bleu.calls"] = sp.calls("bleu.sentence_bleu")
            m["bleu.sentence_bleu.s"] = sp.total("bleu.sentence_bleu")
        else:
            m["decode.topk_sample.s"] = sp.total("decode.topk_sample")
            m["decode.topk_sample.self_s"] = sp.self_time(sp.named("decode.topk_sample"))
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return {f"{workload}.{k}": float(v) for k, v in m.items()}
