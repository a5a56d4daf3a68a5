"""Command-line entry point: one binary, subcommand per pipeline stage.

Conventions shared by all subcommands: input is a positional path ('-' for
stdin), data goes to --output/-o ('-' for stdout), logs go to stderr, all
randomness flows from --seed. filter, decode, sample and tune-lambda accept
--threads so existing scripts keep working, but ignore it: every stage runs
on one thread, because worker pools bound by the interpreter lock ran slower
than one thread. Every output file is written to a temporary file beside it
and renamed into place only when the subcommand succeeds, so a failed run
leaves no partial file behind and an existing file unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import bleu, bpe, corpus, decode, domain, models, textnorm
from .errors import ConfigError, ModelFormatError, MtkitError

CHUNK = 4096


@contextlib.contextmanager
def _open_in(path: str):
    if path == "-":
        yield sys.stdin
        return
    with open(path, encoding="utf-8") as fh:
        yield fh


@contextlib.contextmanager
def _staged(path: str):
    """Yield a temporary path beside `path` that replaces `path` only if the
    block completes; on failure the temporary file is removed."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        yield path  # a device or pipe such as /dev/null: nothing to replace
        return
    tmp = f"{target}.tmp{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _open_out(path: str | None):
    """Text sink for -o: stdout for None or '-', else a staged file."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with _staged(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


def _log(msg: str) -> None:
    print(f"[mtkit] {msg}", file=sys.stderr)


def _log_config(args: argparse.Namespace) -> None:
    items = sorted(
        (k, v) for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    )
    _log(args.subcommand + " config: " + " ".join(f"{k}={v!r}" for k, v in items))


def _parse_ids(line: str) -> list[int]:
    return [int(t) for t in line.split()]


def _load_forward(paths: list[str]):
    scorers = [models.load_scorer(p) for p in paths]
    return scorers[0] if len(scorers) == 1 else models.EnsembleScorer(scorers)


def _bpe_tokenizer(model: bpe.BpeModel):
    """Token-string tokenizer for domain classifiers backed by a BPE model."""
    return lambda text: [model.id_to_token[i] for i in bpe.bpe_encode(model, text)]


def _read_sources(path: str, bpe_model: bpe.BpeModel | None) -> list[list[int]]:
    with _open_in(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if bpe_model is not None:
        return [bpe.bpe_encode(bpe_model, line) for line in lines]
    return [_parse_ids(line) for line in lines]


# ---------------------------------------------------------------------------
# text commands

def cmd_normalize(args) -> int:
    rules = textnorm.load_rules(args.rules) if args.rules else None
    with _open_in(args.input) as src, _open_out(args.output) as out:
        for line in src:
            out.write(textnorm.normalize_punct(line.rstrip("\n"), rules) + "\n")
    return 0


def cmd_tokenize(args) -> int:
    with _open_in(args.input) as src, _open_out(args.output) as out:
        for line in src:
            line = line.rstrip("\n")
            if args.detok:
                text = textnorm.detokenize(line.split(), lang=args.lang)
                if args.german_quotes:
                    text = textnorm.german_quote_postprocess(text)
                out.write(text + "\n")
            else:
                out.write(" ".join(textnorm.word_tokenize(line, lang=args.lang)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# bpe commands

def cmd_bpe_train(args) -> int:
    with _open_in(args.input) as src:
        model = bpe.bpe_train((line.rstrip("\n") for line in src), args.vocab_size)
    with _staged(args.model_out) as tmp:
        bpe.save_model(model, tmp)
    _log(f"bpe-train: {len(model.merges)} merges, {len(model.vocab)} vocab entries")
    return 0


def cmd_bpe_encode(args) -> int:
    model = bpe.load_model(args.model)
    with _open_in(args.input) as src, _open_out(args.output) as out:
        for idx, line in enumerate(src):
            ids = bpe.bpe_encode(
                model, line.rstrip("\n"), dropout_p=args.dropout, seed=args.seed + idx
            )
            out.write(" ".join(str(i) for i in ids) + "\n")
    return 0


def cmd_bpe_decode(args) -> int:
    model = bpe.load_model(args.model)
    with _open_in(args.input) as src, _open_out(args.output) as out:
        for line in src:
            out.write(bpe.bpe_decode(model, _parse_ids(line)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# corpus commands

def cmd_filter(args) -> int:
    langid = corpus.load_langid(args.langid) if args.langid else None
    required = tuple(args.langs.split(",")) if args.langs else None
    if langid is not None and required is None:
        raise ValueError("--langid requires --langs src,tgt")
    cfg = corpus.FilterConfig(
        max_len_tokens=args.max_len,
        max_len_ratio=args.max_ratio,
        min_external_score=args.min_score,
        required_langs=required,
        min_len_tokens=args.min_len,
    )
    report = corpus.FilterReport()
    with _open_in(args.input) as src, _open_out(args.output) as out:
        pending: list[corpus.ParallelExample] = []

        def flush() -> None:
            kept, chunk_report = corpus.filter_corpus(pending, cfg, langid)
            nonlocal report
            report = report.merge(chunk_report)
            for pair in kept:
                if args.mono:
                    out.write(pair.source + "\n")
                else:
                    out.write(corpus.format_tsv_line(pair) + "\n")
            pending.clear()

        def on_malformed(line_no: int, why: str) -> None:
            report.malformed += 1
            _log(f"filter: malformed line {line_no}: {why}")

        if args.mono:
            seq = 0
            for line_no, line in enumerate(src, start=1):
                text = line.rstrip("\n")
                pending.append(
                    corpus.ParallelExample(source=text, target=text, sequence_no=seq)
                )
                seq += 1
                if len(pending) >= CHUNK:
                    flush()
        else:
            for pair in corpus.read_parallel_tsv(src, on_malformed=on_malformed):
                pending.append(pair)
                if len(pending) >= CHUNK:
                    flush()
        flush()
    report_lines = report.to_lines()
    if args.report:
        with _staged(args.report) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        _log("filter report: " + line.replace("\t", "="))
    return 0


def cmd_langid_train(args) -> int:
    labeled = []
    for spec_item in args.data:
        code, _, path = spec_item.partition("=")
        if not path:
            raise ValueError(f"expected CODE=PATH, got {spec_item!r}")
        with open(path, encoding="utf-8") as fh:
            labeled.extend((line.rstrip("\n"), code) for line in fh if line.strip())
    model = corpus.langid_train(
        labeled, seed=args.seed, n_features=args.features,
        epochs=args.epochs, lr=args.lr,
    )
    with _staged(args.model_out) as tmp:
        corpus.save_langid(model, tmp)
    _log(f"langid-train: {len(model.langs)} languages, {len(labeled)} lines")
    return 0


def cmd_mix(args) -> int:
    corpora = []
    for part in args.part:
        fields = part.split(":", 2)
        if len(fields) != 3:
            raise ValueError(f"expected WEIGHT:PROVENANCE:PATH, got {part!r}")
        weight = float(fields[0])
        provenance = corpus.Provenance(fields[1])
        with open(fields[2], encoding="utf-8") as fh:
            items = list(corpus.read_parallel_tsv(fh, provenance=provenance))
        corpora.append((items, weight))
    mixed = corpus.mix_sample(corpora, args.n, args.seed)
    with _open_out(args.output) as out:
        for pair in mixed:
            out.write(corpus.format_tsv_line(pair) + "\n")
    return 0


def cmd_reverse_target(args) -> int:
    with _open_in(args.input) as src, _open_out(args.output) as out:
        for pair in corpus.read_parallel_tsv(src):
            out.write(corpus.format_tsv_line(corpus.reverse_target(pair)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# domain commands

def cmd_domain_train(args) -> int:
    tokenizer = _bpe_tokenizer(bpe.load_model(args.bpe)) if args.bpe else None
    with open(args.positives, encoding="utf-8") as fh:
        positives = [line.rstrip("\n") for line in fh if line.strip()]
    with open(args.negatives, encoding="utf-8") as fh:
        negatives = [line.rstrip("\n") for line in fh if line.strip()]
    clf = domain.domain_train(
        positives, negatives, seed=args.seed, lang=args.lang,
        tokenizer=tokenizer, epochs=args.epochs, lr=args.lr,
    )
    with _staged(args.model_out) as tmp:
        domain.save_classifier(clf, tmp)
    if clf.holdout_accuracy is not None:
        _log(f"domain-train: held-out accuracy {clf.holdout_accuracy:.3f}")
    return 0


def cmd_domain_select(args) -> int:
    tokenizer = _bpe_tokenizer(bpe.load_model(args.bpe)) if args.bpe else None
    clf_en = domain.load_classifier(args.clf_en, tokenizer)
    clf_ru = domain.load_classifier(args.clf_ru, tokenizer)
    cfg = domain.SelectionConfig(
        stage1_threshold=args.stage1, final_threshold=args.final
    )
    with _open_in(args.input) as src, _open_out(args.output) as out:
        pairs = corpus.read_parallel_tsv(src)
        selected, counts = domain.bilingual_select(
            pairs, clf_en, clf_ru, cfg, english_side=args.english_side
        )
        for pair, score_en, score_ru in selected:
            out.write(
                corpus.format_tsv_line(pair, (repr(score_en), repr(score_ru))) + "\n"
            )
    _log(
        "domain-select counts: "
        + " ".join(f"{k}={counts[k]}" for k in ("input", "stage1_kept", "stage2_scored", "final_kept"))
    )
    return 0


# ---------------------------------------------------------------------------
# model commands

def cmd_avg_checkpoints(args) -> int:
    paths = list(args.checkpoints)
    if args.top_k is not None:
        if args.top_k < 1:
            raise ConfigError(f"--top-k must be at least 1, got {args.top_k}")
        scored = []
        for path in paths:
            score = models.checkpoint_metadata(path).get("validation_score", 0.0)
            # false for NaN, the infinities and ints beyond the float range
            if type(score) not in (int, float) or not abs(score) <= sys.float_info.max:
                raise ModelFormatError(
                    f"{path}: validation_score {score!r} is not a finite number")
            scored.append((float(score), path))
        scored.sort(key=lambda sp: (-sp[0], sp[1]))
        paths = [path for _, path in scored[: args.top_k]]
        _log(f"avg-checkpoints: top-{args.top_k} by validation score: {paths}")
    with _staged(args.output) as tmp:
        models.average_checkpoint_files(paths, tmp)
    _log(f"avg-checkpoints: averaged {len(paths)} checkpoints")
    return 0


# ---------------------------------------------------------------------------
# decoding commands

def _decode_config(args, fusion_lambda: float = 0.0) -> decode.DecodeConfig:
    return decode.DecodeConfig(
        beam_size=args.beam,
        max_len=args.max_len,
        n_candidates=args.n_candidates,
        length_penalty_alpha=args.alpha,
        fusion_lambda=fusion_lambda,
        seed=args.seed,
    )


def _write_bodies(out, cands_top1, eos_id: int, bpe_model) -> None:
    for cand in cands_top1:
        tokens = list(cand.tokens)
        if bpe_model is not None:
            out.write(bpe.bpe_decode(bpe_model, tokens) + "\n")
        else:
            if tokens and tokens[-1] == eos_id:
                tokens = tokens[:-1]
            out.write(" ".join(str(t) for t in tokens) + "\n")


def cmd_decode(args) -> int:
    fwd = _load_forward(args.model)
    lm = models.load_scorer(args.lm) if args.lm else None
    bpe_model = bpe.load_model(args.bpe) if args.bpe else None
    cfg = _decode_config(args, fusion_lambda=args.fusion_lambda)
    sources = _read_sources(args.input, bpe_model)
    results = decode.decode_batch(fwd, lm, sources, cfg)
    with _open_out(args.output) as out:
        _write_bodies(out, [cands[0] for cands in results], fwd.eos_id, bpe_model)
    if args.dump:
        with _staged(args.dump) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(decode.format_candidates(results)) + "\n")
    return 0


def cmd_sample(args) -> int:
    fwd = _load_forward(args.model)
    bpe_model = bpe.load_model(args.bpe) if args.bpe else None
    cfg = decode.DecodeConfig(
        max_len=args.max_len, sample_k=args.k, seed=args.seed
    )
    sources = _read_sources(args.input, bpe_model)
    cands = decode.sample_batch(fwd, sources, cfg)
    with _open_out(args.output) as out:
        _write_bodies(out, cands, fwd.eos_id, bpe_model)
    return 0


def cmd_rerank(args) -> int:
    rev = models.load_scorer(args.rev)
    lm = models.load_scorer(args.lm)
    bpe_model = bpe.load_model(args.bpe) if args.bpe else None
    sources = _read_sources(args.source, bpe_model)
    with open(args.dump, encoding="utf-8") as fh:
        cands_per_sentence = decode.parse_candidates(fh, eos_id=rev.eos_id)
    if len(cands_per_sentence) != len(sources):
        raise ValueError(
            f"{len(cands_per_sentence)} dumped sentences vs {len(sources)} sources"
        )
    ranked = [
        decode.noisy_channel_rerank(cands, rev, lm, args.lam, source)
        for cands, source in zip(cands_per_sentence, sources)
    ]
    with _open_out(args.output) as out:
        if args.top1:
            _write_bodies(out, [cands[0] for cands in ranked], rev.eos_id, bpe_model)
        else:
            out.write("\n".join(decode.format_candidates(ranked)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# scoring commands

def cmd_score_bleu(args) -> int:
    with open(args.hyp, encoding="utf-8") as fh:
        hyps = [line.rstrip("\n").split() for line in fh]
    with open(args.ref, encoding="utf-8") as fh:
        refs = [line.rstrip("\n").split() for line in fh]
    result = bleu.corpus_bleu(hyps, refs)
    if args.sentence_scores:
        with _staged(args.sentence_scores) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            for idx, (hyp, ref) in enumerate(zip(hyps, refs)):
                fh.write(f"{idx}\t{bleu.sentence_bleu(hyp, ref):.4f}\n")
    with _open_out(args.output) as out:
        out.write(
            f"BLEU {result.score:.4f} BP {result.brevity_penalty:.4f} "
            f"lens {result.hyp_len}/{result.ref_len} precisions "
            + " ".join(f"{p:.4f}" for p in result.precisions)
            + "\n"
        )
    return 0


def cmd_oracle_bleu(args) -> int:
    with open(args.dump, encoding="utf-8") as fh:
        cands_per_sentence = decode.parse_candidates(fh, eos_id=args.eos_id)
    with open(args.ref, encoding="utf-8") as fh:
        refs = [_parse_ids(line) for line in fh]
    result, winners = bleu.oracle_corpus_bleu(cands_per_sentence, refs, eos_id=args.eos_id)
    if args.selected:
        with _staged(args.selected) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            for tokens in winners:
                fh.write(" ".join(str(t) for t in tokens) + "\n")
    with _open_out(args.output) as out:
        out.write(f"oracle-BLEU {result.score:.4f}\n")
    return 0


def cmd_tune_lambda(args) -> int:
    fwd = _load_forward(args.model)
    rev = models.load_scorer(args.rev)
    lm = models.load_scorer(args.lm)
    bpe_model = bpe.load_model(args.bpe) if args.bpe else None
    sources = _read_sources(args.source, bpe_model)
    with open(args.ref, encoding="utf-8") as fh:
        refs = [_parse_ids(line) for line in fh]
    cfg = _decode_config(args)
    sf_grid = [float(v) for v in args.sf_grid.split(",")]
    ncr_grid = [float(v) for v in args.ncr_grid.split(",")]
    results = decode.grid_search_lambdas(fwd, rev, lm, sources, refs, cfg, sf_grid, ncr_grid)
    with _open_out(args.output) as out:
        for lam_sf, lam_ncr, score in results:
            out.write(f"{lam_sf!r}\t{lam_ncr!r}\t{score:.4f}\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_io(sub, input_positional: bool = True) -> None:
    if input_positional:
        sub.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored; every stage runs on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtkit",
        description="Machine translation decoding and data-curation toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", help="normalize punctuation")
    _add_io(p)
    p.add_argument("--rules", default=None, help="rules file (default built-in table)")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("tokenize", help="word tokenize (or detokenize with --detok)")
    _add_io(p)
    p.add_argument("--lang", default="en", choices=("en", "de", "ru"))
    p.add_argument("--detok", action="store_true", help="join tokens back into text")
    p.add_argument("--german-quotes", action="store_true",
                   help="with --detok: replace paired ASCII quotes with German ones")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("bpe-train", help="learn BPE merges")
    _add_io(p)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_bpe_train)

    p = sub.add_parser("bpe-encode", help="encode text to token ids")
    _add_io(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bpe_encode)

    p = sub.add_parser("bpe-decode", help="decode token ids to text")
    _add_io(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_bpe_decode)

    p = sub.add_parser("filter", help="apply the parallel-corpus filter cascade")
    _add_io(p)
    _add_common(p)
    p.add_argument("--max-len", type=int, default=250)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-ratio", type=float, default=1.3)
    p.add_argument("--min-score", type=float, default=0.6)
    p.add_argument("--langid", default=None, help="trained language-id model")
    p.add_argument("--langs", default=None, help="expected src,tgt language codes")
    p.add_argument("--report", default=None, help="write the filter report here")
    p.add_argument("--mono", action="store_true",
                   help="input is one sentence per line; apply length bounds only")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("langid-train", help="train the language-id classifier")
    p.add_argument("data", nargs="+", help="CODE=PATH labeled line files")
    p.add_argument("--model-out", required=True)
    p.add_argument("--features", type=int, default=2048)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_langid_train)

    p = sub.add_parser("domain-train", help="train an in-domain binary classifier")
    p.add_argument("--positives", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--lang", default="en")
    p.add_argument("--bpe", default=None, help="BPE model for tokenization")
    p.add_argument("--model-out", required=True)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_domain_train)

    p = sub.add_parser("domain-select", help="two-stage bilingual domain selection")
    _add_io(p)
    p.add_argument("--clf-en", required=True)
    p.add_argument("--clf-ru", required=True)
    p.add_argument("--bpe", default=None, help="BPE model for tokenization")
    p.add_argument("--stage1", type=float, default=0.5)
    p.add_argument("--final", type=float, default=0.90)
    p.add_argument("--english-side", default="source", choices=("source", "target"))
    p.set_defaults(func=cmd_domain_select)

    p = sub.add_parser("mix", help="sample a weighted mixture of corpora")
    p.add_argument("--part", action="append", required=True,
                   help="WEIGHT:PROVENANCE:PATH, repeatable")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("reverse-target", help="reverse target token order")
    _add_io(p)
    p.set_defaults(func=cmd_reverse_target)

    p = sub.add_parser("avg-checkpoints", help="average checkpoint parameters")
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--top-k", type=int, default=None,
                   help="average only the k best by validation score")
    p.set_defaults(func=cmd_avg_checkpoints)

    p = sub.add_parser("decode", help="beam search, optionally with shallow fusion")
    _add_io(p)
    _add_common(p)
    p.add_argument("--model", nargs="+", required=True,
                   help="forward scorer file(s); several form an ensemble")
    p.add_argument("--lm", default=None, help="language model for fusion")
    p.add_argument("--fusion-lambda", type=float, default=0.0)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--n-candidates", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.0, help="length penalty exponent")
    p.add_argument("--bpe", default=None, help="treat input as text via this BPE model")
    p.add_argument("--dump", default=None, help="write all candidates here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sample", help="top-k sampled generation")
    _add_io(p)
    _add_common(p)
    p.add_argument("--model", nargs="+", required=True)
    p.add_argument("--k", type=int, default=500)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--bpe", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("rerank", help="noisy-channel re-ranking of a candidate dump")
    p.add_argument("--dump", required=True, help="candidate dump from decode")
    p.add_argument("--source", required=True, help="source sentences, one per line")
    p.add_argument("--rev", required=True, help="reverse-direction scorer")
    p.add_argument("--lm", required=True, help="target-side language model")
    p.add_argument("--lam", type=float, default=0.6)
    p.add_argument("--bpe", default=None)
    p.add_argument("--top1", action="store_true", help="emit only the top candidate")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("score-bleu", help="corpus BLEU of hypothesis vs reference")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--sentence-scores", default=None, help="per-sentence TSV output")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_score_bleu)

    p = sub.add_parser("oracle-bleu", help="corpus BLEU of per-sentence best candidates")
    p.add_argument("--dump", required=True)
    p.add_argument("--ref", required=True, help="reference token ids, one line each")
    p.add_argument("--eos-id", type=int, default=None)
    p.add_argument("--selected", default=None, help="write winning token lines here")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle_bleu)

    p = sub.add_parser("tune-lambda", help="grid-search fusion and re-rank weights")
    _add_common(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--model", nargs="+", required=True)
    p.add_argument("--rev", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--bpe", default=None)
    p.add_argument("--beam", type=int, default=15)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--n-candidates", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--sf-grid", default="0,0.05,0.1,0.2")
    p.add_argument("--ncr-grid", default="0,0.2,0.4,0.6,0.8,1.0")
    p.set_defaults(func=cmd_tune_lambda)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    _log_config(args)
    try:
        return args.func(args)
    except MtkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
