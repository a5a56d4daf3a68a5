"""Command-line entry point: one binary, subcommand per pipeline stage.

Conventions shared by all subcommands: input is a positional path ('-' for
stdin), data goes to --output/-o and side outputs such as --report ('-' for
stdout), logs go to stderr, all randomness flows from --seed. filter, decode,
sample and tune-lambda accept --threads so existing scripts keep working, but
ignore it: every stage runs on one thread, because worker pools bound by the
interpreter lock ran slower than one thread. filter, decode and tune-lambda
draw no random numbers, so they accept --seed and ignore it too; the stages
that draw refuse a negative seed, which would repeat a positive one. One
writer, errors.write_lines, stages every text output and text model file,
renaming it into place only once every line is written, so a failed run
leaves no partial file behind and an existing file unchanged.

Imports: each stage runs as its own process in a pipeline, so start-up is
paid per stage, and where bytecode writing is off (PYTHONDONTWRITEBYTECODE)
that includes compiling every module the stage imports. This module imports
only argparse, contextlib, itertools, sys and mtkit.errors at the top; each
cmd_* function imports the mtkit modules it uses, so score-bleu loads bleu
alone. No mtkit module loads numpy at import either; each imports it inside
the functions that do array math, so only the stages that reach them pay for
it (rerank over n-gram models and domain-select do not). The records are
named tuples and plain classes, not data classes, whose module loads
inspect, so a stage loads inspect only with numpy. run() builds the parser
of the subcommand it is given alone, not all eighteen; with no argument,
-h/--help or an unknown name first it builds the full parser, and the usage
line of the one-subcommand parser names every subcommand, so each help and
usage text is the full parser's.

The decoding stages read and write token ids only; text goes in through
bpe-encode and comes out through bpe-decode.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import sys

from .errors import (
    ConfigError,
    EmptyInputError,
    InputFormatError,
    LengthMismatchError,
    MtkitError,
    naming,
    write_lines,
)

CHUNK = 4096


@contextlib.contextmanager
def _open_in(path: str, newline: str | None = None):
    """The one way the CLI reads a text input ('-' for stdin), held to strict
    UTF-8 whatever the locale, newline as open() takes it. An InputFormatError
    or ValueError raised in the block, from a line check, undecodable bytes or
    a field that int() or float() rejects, becomes an InputFormatError that
    starts with the path."""
    stdin = path == "-"
    with naming(path, InputFormatError), \
            open(sys.stdin.fileno() if stdin else path, encoding="utf-8", newline=newline,
                 closefd=not stdin) as fh:
        yield fh


def _write_lines(path: str | None, lines) -> None:
    """The one way the CLI writes -o and the side outputs: each line with its
    own newline, so no lines write no bytes, to stdout for None or '-', else
    through write_lines to a staged file. A generator of lines streams."""
    if path is None or path == "-":
        sys.stdout.writelines(line + "\n" for line in lines)
    else:
        write_lines(path, lines)


def _log(msg: str) -> None:
    print(f"[mtkit] {msg}", file=sys.stderr)


def _log_config(args: argparse.Namespace) -> None:
    items = sorted(
        (k, v) for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    )
    _log(args.subcommand + " config: " + " ".join(f"{k}={v!r}" for k, v in items))


def _parse_ids(line: str) -> list[int]:
    return [int(t) for t in line.split()]


def _format_ids(ids) -> str:
    return " ".join(map(str, ids))


def _load_forward(paths: list[str]):
    from . import models
    scorers = [models.load_scorer(p) for p in paths]
    return scorers[0] if len(scorers) == 1 else models.EnsembleScorer(scorers)


def _map_lines(args, convert) -> int:
    """The per-line stages: write convert(index, line), the newline stripped
    from line, for each line of args.input to args.output."""
    with _open_in(args.input) as src:
        _write_lines(args.output, (convert(idx, line.rstrip("\n")) for idx, line in enumerate(src)))
    return 0


def _read_dump(path: str, eos_id: int | None, given: str, n_sources: int | None = None):
    """The candidate lists of the dump at `path`. With `n_sources`, a dump of
    another number of sentences is a LengthMismatchError. With an eos_id, set
    by the option `given`, a non-empty dump in which no candidate ends in it
    is a ConfigError that starts with `given`: every completed candidate ends
    in the decoder's eos, so that id is not it. strip_eos refuses a negative
    eos_id before the dump is searched."""
    from . import candidates
    with _open_in(path, newline="") as fh:
        cands_per_sentence = candidates.parse_candidates(fh)
    if n_sources is not None and len(cands_per_sentence) != n_sources:
        raise LengthMismatchError(
            f"{len(cands_per_sentence)} dumped sentences vs {n_sources} sources")
    if eos_id is not None and cands_per_sentence and all(
            len(candidates.strip_eos(cand.tokens, eos_id)) == len(cand.tokens)
            for cands in cands_per_sentence for cand in cands):
        raise ConfigError(f"{given}: no candidate in the dump {path} ends in it")
    return cands_per_sentence


def _write_top1(path: str | None, cands, eos_id: int) -> None:
    """Write the tokens of each of `cands`, without a trailing eos, one line each."""
    from . import candidates
    _write_lines(path, (_format_ids(candidates.strip_eos(cand.tokens, eos_id)) for cand in cands))


def _read_text(path: str) -> list[str]:
    """The non-blank lines of `path`, newlines stripped."""
    with _open_in(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _read_tokens(path: str, parse=str.split, nonempty: str = "") -> list[list]:
    """parse(line) for each line of `path`. With `nonempty`, the kind of the
    tokens, an empty result is an EmptyInputError naming the line."""
    with _open_in(path) as fh:
        lines = [parse(line) for line in fh]
    if nonempty and [] in lines:
        raise EmptyInputError(f"{path}: line {lines.index([]) + 1} holds no {nonempty} tokens")
    return lines


def _read_ids(path: str, nonempty: str = "") -> list[list[int]]:
    """One id list per line of `path`, refused empty as _read_tokens says."""
    return _read_tokens(path, _parse_ids, nonempty)


def _read_tsv(src, stage: str, path: str, counts=None):
    """Pairs from the TSV lines of `path`; each malformed line is logged and,
    when a `counts` Counter is given, counted in counts["malformed"]."""
    from . import corpus

    def on_malformed(line_no: int, why: str) -> None:
        _log(f"{stage}: {path}: malformed line {line_no}: {why}")
        if counts is not None:
            counts["malformed"] += 1

    return corpus.read_parallel_tsv(src, on_malformed)


# ---------------------------------------------------------------------------
# text commands

def cmd_normalize(args) -> int:
    from . import textnorm
    return _map_lines(args, lambda _, line: textnorm.normalize_punct(line))


def cmd_tokenize(args) -> int:
    from . import textnorm
    if args.german_quotes and not args.detok:
        raise ConfigError("--german-quotes applies to --detok output only")
    if args.detok:
        quotes = textnorm.german_quote_postprocess if args.german_quotes else (lambda text: text)
        return _map_lines(args, lambda _, line: quotes(textnorm.detokenize(line.split())))
    return _map_lines(args, lambda _, line: " ".join(textnorm.word_tokenize(line, lang=args.lang)))


# ---------------------------------------------------------------------------
# bpe commands

def cmd_bpe_train(args) -> int:
    from . import bpe
    with _open_in(args.input) as src:
        model = bpe.bpe_train((line.rstrip("\n") for line in src), args.vocab_size)
    bpe.save_model(model, args.model_out)
    _log(f"bpe-train: {len(model.merges)} merges, {len(model.vocab)} vocab entries")
    return 0


def cmd_bpe_encode(args) -> int:
    from . import bpe
    bpe.check_dropout(args.dropout, args.seed)
    model = bpe.load_model(args.model)
    return _map_lines(args, lambda idx, line: _format_ids(bpe.bpe_encode(
        model, line, dropout_p=args.dropout, seed=args.seed + idx)))


def cmd_bpe_decode(args) -> int:
    from . import bpe
    model = bpe.load_model(args.model)
    return _map_lines(args, lambda _, line: bpe.bpe_decode(model, _parse_ids(line)))


# ---------------------------------------------------------------------------
# corpus commands

def cmd_filter(args) -> int:
    from . import corpus
    if args.mono and args.langid:
        raise ConfigError("--mono applies length bounds only and takes no --langid")
    if bool(args.langid) != bool(args.langs):
        raise ConfigError("--langid and --langs src,tgt are given together or not at all")
    langid = corpus.load_langid(args.langid) if args.langid else None
    required = tuple(args.langs.split(",")) if args.langs else None
    cfg = corpus.FilterConfig(
        max_len_tokens=args.max_len,
        max_len_ratio=args.max_ratio,
        min_external_score=args.min_score,
        required_langs=required,
        min_len_tokens=args.min_len,
    )
    if langid is not None:
        unknown = [code for code in required if code not in langid.langs]
        if unknown:
            raise ConfigError(f"--langs {args.langs}: the langid model {args.langid} knows "
                              f"{' '.join(langid.langs)}, not {' '.join(unknown)}")
    report = corpus.FilterReport()
    counts = collections.Counter()

    def kept_lines(pairs):
        nonlocal report
        while chunk := list(itertools.islice(pairs, CHUNK)):
            kept, chunk_report = corpus.filter_corpus(chunk, cfg, langid)
            report = report.merge(chunk_report)
            for pair in kept:
                yield pair.source if args.mono else corpus.format_tsv_line(pair)

    with _open_in(args.input) as src:
        if args.mono:
            pairs = (corpus.ParallelExample(t, t) for t in (line.rstrip("\n") for line in src))
        else:
            pairs = _read_tsv(src, "filter", args.input, counts)
        _write_lines(args.output, kept_lines(pairs))
    report_lines = report._replace(malformed=counts["malformed"]).to_lines()
    if args.report:
        _write_lines(args.report, report_lines)
    for line in report_lines:
        _log("filter report: " + line.replace("\t", "="))
    return 0


def cmd_langid_train(args) -> int:
    from . import corpus
    labeled = []
    for spec_item in args.data:
        code, _, path = spec_item.partition("=")
        if not path:
            raise ConfigError(f"langid-train data: expected CODE=PATH, got {spec_item!r}")
        labeled.extend((line, code) for line in _read_text(path))
    model = corpus.langid_train(
        labeled, seed=args.seed, n_features=args.features,
        epochs=args.epochs, lr=args.lr,
    )
    corpus.save_langid(model, args.model_out)
    _log(f"langid-train: {len(model.langs)} languages, {len(labeled)} lines")
    return 0


def cmd_mix(args) -> int:
    from . import corpus
    corpora = []
    for part in args.part:
        try:
            weight_text, tag, path = part.split(":", 2)
            weight = float(weight_text)
            corpus.Provenance(tag)  # checks the tag; the pairs do not carry it
        except ValueError as exc:
            raise ConfigError(
                f"--part {part!r}: expected WEIGHT:PROVENANCE:PATH ({exc})") from None
        with _open_in(path) as fh:
            corpora.append((list(_read_tsv(fh, "mix", path)), weight))
    mixed = corpus.mix_sample(corpora, args.n, args.seed)
    _write_lines(args.output, map(corpus.format_tsv_line, mixed))
    return 0


def cmd_reverse_target(args) -> int:
    from . import corpus
    with _open_in(args.input) as src:
        _write_lines(args.output, (corpus.format_tsv_line(corpus.reverse_target(pair))
                                   for pair in _read_tsv(src, "reverse-target", args.input)))
    return 0


# ---------------------------------------------------------------------------
# domain commands

def cmd_domain_train(args) -> int:
    from . import domain
    clf = domain.domain_train(
        _read_text(args.positives), _read_text(args.negatives), seed=args.seed, lang=args.lang,
        epochs=args.epochs, lr=args.lr,
    )
    domain.save_classifier(clf, args.model_out)
    if clf.holdout_accuracy is not None:
        _log(f"domain-train: held-out accuracy {clf.holdout_accuracy:.3f}")
    return 0


def cmd_domain_select(args) -> int:
    from . import corpus, domain
    clf_en = domain.load_classifier(args.clf_en)
    clf_ru = domain.load_classifier(args.clf_ru)
    for flag, path, clf, lang in (("--clf-en", args.clf_en, clf_en, "en"),
                                  ("--clf-ru", args.clf_ru, clf_ru, "ru")):
        if clf.lang != lang:
            raise ConfigError(f"{flag} {path}: holds a {clf.lang!r} classifier, not {lang!r}")
    cfg = domain.SelectionConfig(
        stage1_threshold=args.stage1, final_threshold=args.final
    )
    with _open_in(args.input) as src:
        pairs = _read_tsv(src, "domain-select", args.input)
        selected, counts = domain.bilingual_select(
            pairs, clf_en, clf_ru, cfg, english_side=args.english_side
        )
    _write_lines(args.output, (corpus.format_tsv_line(pair, (repr(score_en), repr(score_ru)))
                               for pair, score_en, score_ru in selected))
    _log(
        "domain-select counts: "
        + " ".join(f"{k}={counts[k]}" for k in ("input", "stage1_kept", "stage2_scored", "final_kept"))
    )
    return 0


# ---------------------------------------------------------------------------
# model commands

def cmd_avg_checkpoints(args) -> int:
    from . import models
    k = args.top_k
    paths = models.average_checkpoint_files(
        args.checkpoints, args.output, k,
        on_chosen=lambda chosen: _log(f"avg-checkpoints: top-{k} by validation score: {chosen}"))
    _log(f"avg-checkpoints: averaged {len(paths)} checkpoints")
    return 0


# ---------------------------------------------------------------------------
# decoding commands

def _decode_config(args, fusion_lambda: float = 0.0):
    from . import decode
    return decode.DecodeConfig(
        beam_size=args.beam,
        max_len=args.max_len,
        n_candidates=args.n_candidates,
        length_penalty_alpha=args.alpha,
        fusion_lambda=fusion_lambda,
    )


def cmd_decode(args) -> int:
    from . import candidates, decode, models
    fwd = _load_forward(args.model)
    lm = models.load_scorer(args.lm) if args.lm else None
    cfg = _decode_config(args, fusion_lambda=args.fusion_lambda)
    sources = _read_ids(args.input, nonempty="source")
    results = decode.decode_batch(fwd, lm, sources, cfg)
    _write_top1(args.output, (cands[0] for cands in results), fwd.eos_id)
    if args.dump:
        _write_lines(args.dump, candidates.format_candidates(results))
    return 0


def cmd_sample(args) -> int:
    from . import decode
    fwd = _load_forward(args.model)
    cfg = decode.DecodeConfig(
        max_len=args.max_len, sample_k=args.k, seed=args.seed
    )
    sources = _read_ids(args.input)
    _write_top1(args.output, decode.sample_batch(fwd, sources, cfg), fwd.eos_id)
    return 0


def cmd_rerank(args) -> int:
    from . import candidates, decode, models
    decode.check_lambda_ncr(args.lam)
    rev = models.load_scorer(args.rev)
    lm = models.load_scorer(args.lm)
    sources = _read_ids(args.source)
    cands_per_sentence = _read_dump(args.dump, lm.eos_id, f"--lm {args.lm} eos id {lm.eos_id}",
                                    len(sources))
    ranked = [
        decode.noisy_channel_rerank(cands, rev, lm, args.lam, source)
        for cands, source in zip(cands_per_sentence, sources)
    ]
    if args.top1:
        _write_top1(args.output, (cands[0] for cands in ranked), lm.eos_id)
    else:
        _write_lines(args.output, candidates.format_candidates(ranked))
    return 0


# ---------------------------------------------------------------------------
# scoring commands

def cmd_score_bleu(args) -> int:
    from . import bleu
    hyps = _read_tokens(args.hyp)
    # corpus BLEU is defined for an empty reference; sentence BLEU is not
    refs = _read_tokens(args.ref, nonempty="reference" if args.sentence_scores else "")
    result = bleu.corpus_bleu(hyps, refs)
    if args.sentence_scores:
        _write_lines(args.sentence_scores, (f"{idx}\t{bleu.sentence_bleu(hyp, ref):.4f}"
                                            for idx, (hyp, ref) in enumerate(zip(hyps, refs))))
    _write_lines(args.output, [
        f"BLEU {result.score:.4f} BP {result.brevity_penalty:.4f} "
        f"lens {result.hyp_len}/{result.ref_len} precisions "
        + " ".join(f"{p:.4f}" for p in result.precisions)
    ])
    return 0


def cmd_oracle_bleu(args) -> int:
    from . import bleu, candidates
    cands_per_sentence = _read_dump(args.dump, args.eos_id, f"--eos-id {args.eos_id}")
    hyps_per_sentence = [[candidates.strip_eos(cand.tokens, args.eos_id) for cand in cands]
                         for cands in cands_per_sentence]
    refs = _read_ids(args.ref, nonempty="reference")
    result, winners = bleu.oracle_corpus_bleu(hyps_per_sentence, refs)
    if args.selected:
        _write_lines(args.selected, map(_format_ids, winners))
    _write_lines(args.output, [f"oracle-BLEU {result.score:.4f}"])
    return 0


def _grid(option: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{option} {text!r}: {exc}") from None


def cmd_tune_lambda(args) -> int:
    from . import decode, models
    fwd = _load_forward(args.model)
    rev = models.load_scorer(args.rev)
    lm = models.load_scorer(args.lm)
    sources = _read_ids(args.source, nonempty="source")
    refs = _read_ids(args.ref)
    cfg = _decode_config(args)
    results = decode.grid_search_lambdas(
        fwd, rev, lm, sources, refs, cfg,
        _grid("--sf-grid", args.sf_grid), _grid("--ncr-grid", args.ncr_grid))
    _write_lines(args.output, (f"{lam_sf!r}\t{lam_ncr!r}\t{score:.4f}"
                               for lam_sf, lam_ncr, score in results))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_io(sub) -> None:
    sub.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _add_common(sub, seeded: bool = False) -> None:
    sub.add_argument("--seed", type=int, default=0, help=(
        "sentence i draws from SEED + i" if seeded else
        "accepted for compatibility and ignored; this stage draws no random numbers"))
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored; every stage runs on one thread")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The mtkit parser. When `only` names a subcommand the parser holds that
    subcommand alone, which is all a run of it reads, and its usage line still
    names every subcommand; otherwise it holds them all."""
    parser = argparse.ArgumentParser(
        prog="mtkit",
        description="Machine translation decoding and data-curation toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = []

    def add(name, func, help_text):
        """The new parser of subcommand `name`, or None when it is left out."""
        names.append(name)
        if only is not None and name != only:
            return None
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    if p := add("normalize", cmd_normalize, "normalize punctuation"):
        _add_io(p)

    if p := add("tokenize", cmd_tokenize, "word tokenize (or detokenize with --detok)"):
        _add_io(p)
        p.add_argument("--lang", default="en", choices=("en", "de", "ru"),
                       help="tokenizer language; --detok output is the same for every language")
        p.add_argument("--detok", action="store_true", help="join tokens back into text")
        p.add_argument("--german-quotes", action="store_true",
                       help="with --detok: replace paired ASCII quotes with German ones")

    if p := add("bpe-train", cmd_bpe_train, "learn BPE merges"):
        # no -o: the merges go to --model-out only
        p.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
        p.add_argument("--vocab-size", type=int, required=True)
        p.add_argument("--model-out", required=True)

    if p := add("bpe-encode", cmd_bpe_encode, "encode text to token ids"):
        _add_io(p)
        p.add_argument("--model", required=True)
        p.add_argument("--dropout", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)

    if p := add("bpe-decode", cmd_bpe_decode, "decode token ids to text"):
        _add_io(p)
        p.add_argument("--model", required=True)

    if p := add("filter", cmd_filter, "apply the parallel-corpus filter cascade"):
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

    if p := add("langid-train", cmd_langid_train, "train the language-id classifier"):
        p.add_argument("data", nargs="+", help="CODE=PATH labeled line files")
        p.add_argument("--model-out", required=True)
        p.add_argument("--features", type=int, default=2048)
        p.add_argument("--epochs", type=int, default=300)
        p.add_argument("--lr", type=float, default=2.0)
        p.add_argument("--seed", type=int, default=0)

    if p := add("domain-train", cmd_domain_train, "train an in-domain binary classifier"):
        p.add_argument("--positives", required=True)
        p.add_argument("--negatives", required=True)
        p.add_argument("--lang", default="en")
        p.add_argument("--model-out", required=True)
        p.add_argument("--epochs", type=int, default=300)
        p.add_argument("--lr", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)

    if p := add("domain-select", cmd_domain_select, "two-stage bilingual domain selection"):
        _add_io(p)
        p.add_argument("--clf-en", required=True)
        p.add_argument("--clf-ru", required=True)
        p.add_argument("--stage1", type=float, default=0.5)
        p.add_argument("--final", type=float, default=0.90)
        p.add_argument("--english-side", default="source", choices=("source", "target"))

    if p := add("mix", cmd_mix, "sample a weighted mixture of corpora"):
        p.add_argument("--part", action="append", required=True,
                       help="WEIGHT:PROVENANCE:PATH, repeatable")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", default=None)

    if p := add("reverse-target", cmd_reverse_target, "reverse target token order"):
        _add_io(p)

    if p := add("avg-checkpoints", cmd_avg_checkpoints, "average checkpoint parameters"):
        p.add_argument("checkpoints", nargs="+")
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--top-k", type=int, default=None,
                       help="average only the k best by validation score")

    if p := add("decode", cmd_decode, "beam search, optionally with shallow fusion"):
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
        p.add_argument("--dump", default=None, help="write all candidates here")

    if p := add("sample", cmd_sample, "top-k sampled generation"):
        _add_io(p)
        _add_common(p, seeded=True)
        p.add_argument("--model", nargs="+", required=True)
        p.add_argument("--k", type=int, default=500)
        p.add_argument("--max-len", type=int, default=50)

    if p := add("rerank", cmd_rerank, "noisy-channel re-ranking of a candidate dump"):
        p.add_argument("--dump", required=True, help="candidate dump from decode")
        p.add_argument("--source", required=True, help="source sentences, one per line")
        p.add_argument("--rev", required=True, help="reverse-direction scorer")
        p.add_argument("--lm", required=True, help="target-side language model")
        p.add_argument("--lam", type=float, default=0.6)
        p.add_argument("--top1", action="store_true", help="emit only the top candidate")
        p.add_argument("-o", "--output", default=None)

    if p := add("score-bleu", cmd_score_bleu, "corpus BLEU of hypothesis vs reference"):
        p.add_argument("--hyp", required=True)
        p.add_argument("--ref", required=True)
        p.add_argument("--sentence-scores", default=None, help="per-sentence TSV output")
        p.add_argument("-o", "--output", default=None)

    if p := add("oracle-bleu", cmd_oracle_bleu, "corpus BLEU of per-sentence best candidates"):
        p.add_argument("--dump", required=True)
        p.add_argument("--ref", required=True, help="reference token ids, one line each")
        p.add_argument("--eos-id", type=int, default=None)
        p.add_argument("--selected", default=None, help="write winning token lines here")
        p.add_argument("-o", "--output", default=None)

    if p := add("tune-lambda", cmd_tune_lambda, "grid-search fusion and re-rank weights"):
        _add_common(p)
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--model", nargs="+", required=True)
        p.add_argument("--rev", required=True)
        p.add_argument("--lm", required=True)
        p.add_argument("--source", required=True)
        p.add_argument("--ref", required=True)
        p.add_argument("--beam", type=int, default=15)
        p.add_argument("--max-len", type=int, default=50)
        p.add_argument("--n-candidates", type=int, default=15)
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--sf-grid", default="0,0.05,0.1,0.2")
        p.add_argument("--ncr-grid", default="0,0.2,0.4,0.6,0.8,1.0")

    if only is None:
        return parser
    if only not in names:
        return build_parser()
    # the usage line names every subcommand, as the full parser's does; the
    # full parser sets no metavar, because its errors would then call the
    # subcommand argument by it
    sub.metavar = "{" + ",".join(names) + "}"
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    _log_config(args)
    try:
        return args.func(args)
    except (MtkitError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a subclass; the staged outputs are removed
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
