"""Fuzzed data inputs through the command line: every run ends in exit 0, or
in exit 1 with a named MtkitError as the last stderr line, and a failed run
leaves no output file behind. An InputFormatError or ModelFormatError starts
with the path of the file at fault and names it once.

Model files have their own fuzz (test_model_file.py); this one covers what
the stages read as data: text, TSV pairs, id lines, candidate dumps and
references, and the --part, CODE=PATH and grid specs and numeric options.
"""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import bpe, domain, errors, models
from mtkit.cli import run

# Data lines are made of pieces. A clean line holds ids and spaces only, so
# that runs reach past the parsers; a dirty line also holds numbers the
# parsers reject or treat specially, separators, and bytes that are not UTF-8.
_CLEAN = [b"0", b"1", b"2", b" "]
_DIRTY = _CLEAN + [b"-1", b"7", b"0.5", b"x", b"nan", b"inf", b"1e999", b"\t", b",", b"-",
                   b"=", b":", b"\xff", b"\xc3", "é".encode()]


def _line(pieces):
    return st.lists(st.sampled_from(pieces), max_size=6).map(b"".join)


def _fields(*choices, widths=(7,)):
    """Tab-joined fields, each drawn from its list, cut or padded to a width."""
    return st.tuples(*(st.sampled_from(c) for c in choices), st.sampled_from(widths)).map(
        lambda t: "\t".join((t[:-1] + ("",) * 8)[: t[-1]]).encode())


_NOT_UTF8 = st.sampled_from([b"\xff", b"caf\xe9", b"a\tb\xc3"])


def _file(clean, dirty):
    """A file of up to three lines: clean lines only, or clean lines mixed
    with dirty ones and ones that are not UTF-8."""
    lines = st.lists(clean, max_size=3)
    mixed = st.lists(st.one_of(clean, dirty, _NOT_UTF8), max_size=3)
    return st.tuples(st.one_of(lines, mixed), st.booleans()).map(
        lambda t: b"\n".join(t[0]) + (b"\n" if t[1] else b""))


_IDS = _file(st.one_of(
    st.lists(st.sampled_from([b"0", b"1", b"2"]), min_size=1, max_size=4).map(b" ".join),
    _line(_CLEAN)), _line(_DIRTY))
_TSV = _file(
    st.tuples(_line(_CLEAN), _line(_CLEAN), st.sampled_from([b"", b"\t0.9", b"\t0.1"])).map(
        lambda t: t[0] + b"\t" + t[1] + t[2]),
    st.lists(_line(_DIRTY), min_size=1, max_size=4).map(b"\t".join))
_DUMP = _file(
    _fields(["0", "0", "1"], ["0", "1"], ["-1.0", "-0.5"], ["-", "-2.0"], ["-", "-3.0"],
            ["-", "-1.5"], ["0,2", "2", "1,0,2", ""]),
    st.one_of(_line(_DIRTY), _fields(
        ["0", "1", "2", "-1", "x"], ["0", "1", "x"], ["-1.0", "nan", "inf", "zz", "-"],
        ["-", "-2.0", "q"], ["-", "nan", "q"], ["-", "-1.5", "q"],
        ["0,2", "", "x", "5,2", "-1", "1,,2"], widths=(5, 6, 7, 8))))
_TEXT = _file(_line([b"a", b"b", b"c", b" ", b'"', b"'", b",", b".", b"-", "«".encode(),
                      "é".encode()]), _line(_DIRTY))
_SPEC_VALUES = ["0", "0.1", "1", "2.5", "-1", "x", "", "nan", "inf", "1e9"]
_PROBS = ["0", "0.5", "0.9", "1", "1.5", "-0.1", "nan", "inf"]
_GRID = st.lists(st.sampled_from(_SPEC_VALUES), min_size=1, max_size=3).map(",".join)


@pytest.fixture(scope="module")
def scorer_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fwd.scorer"
    models.save_table_scorer(models.TableScorer(
        ["a", "b", "eos"],
        {((0,), ()): [0.5, 0.3, 0.2], ((0,), (0,)): [0.1, 0.1, 0.8]},
        np.ones(3) / 3,
    ), path)
    return str(path)


@pytest.fixture(scope="module")
def bpe_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "codes.bpe"
    bpe.save_model(bpe.bpe_train(["a b c ab abc", "ca bc"], vocab_size=16), path)
    return str(path)


@pytest.fixture(scope="module")
def domain_paths(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    paths = []
    for lang in ("en", "ru"):
        path = work / f"{lang}.domcls"
        domain.save_classifier(domain.domain_train(
            ["a b", "b 1 2", "a a 0"], ["c", "1 0", "x y"], lang=lang, epochs=5), path)
        paths.append(str(path))
    return paths


def _run_checked(argv_for, files: dict) -> None:
    """Write `files` to a fresh directory, run argv_for(paths, out) and check
    the exit code, the last stderr line and the directory left behind."""
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, data in files.items():
            paths[name] = os.path.join(work, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        out = os.path.join(work, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(argv_for(paths, out))
        if rc == 0:
            return
        assert rc == 1
        last = err.getvalue().splitlines()[-1]
        match = re.match(r"error: (\w+): ", last)
        assert match, last
        assert issubclass(getattr(errors, match.group(1)), errors.MtkitError), last
        if match.group(1) in ("InputFormatError", "ModelFormatError"):
            assert any(last.startswith(f"{match.group()}{path}: ") and last.count(path) == 1
                       for path in paths.values()), last
        assert sorted(os.listdir(work)) == sorted(files), last


_FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_FUZZ
@given(tsv=_TSV, mono=st.booleans())
def test_fuzz_filter(tsv, mono):
    _run_checked(lambda p, out: ["filter", p["in.tsv"], "-o", out, "--report", out + ".rep",
                                 *(["--mono"] if mono else [])], {"in.tsv": tsv})


@_FUZZ
@given(tsv=_TSV)
def test_fuzz_reverse_target(tsv):
    _run_checked(lambda p, out: ["reverse-target", p["in.tsv"], "-o", out], {"in.tsv": tsv})


@_FUZZ
@given(tsvs=st.lists(_TSV, min_size=1, max_size=2),
       specs=st.lists(st.one_of(
           st.tuples(st.sampled_from(["1", "2.5"]), st.sampled_from(["bitext", "news"]),
                     st.just(True)),
           st.tuples(st.sampled_from(_SPEC_VALUES),
                     st.sampled_from(["bitext", "news", "nope", ""]), st.booleans())),
           min_size=2, max_size=2))
def test_fuzz_mix(tsvs, specs):
    def argv(p, out):
        parts = []
        for i, (weight, tag, full) in enumerate(specs[: len(tsvs)]):
            path = p[f"p{i}.tsv"]
            parts.append(f"--part={weight}:{tag}:{path}" if full else f"--part={weight}:{path}")
        return ["mix", *parts, "--n", "3", "-o", out]
    _run_checked(argv, {f"p{i}.tsv": tsv for i, tsv in enumerate(tsvs)})


@_FUZZ
@given(src=_IDS, command=st.sampled_from(["decode", "sample"]))
def test_fuzz_decode_and_sample_sources(scorer_path, src, command):
    _run_checked(lambda p, out: [command, p["src"], "--model", scorer_path, "--max-len", "2",
                                 "-o", out], {"src": src})


@_FUZZ
@given(dump=_DUMP, src=_IDS, top1=st.booleans())
def test_fuzz_rerank(scorer_path, dump, src, top1):
    _run_checked(lambda p, out: ["rerank", "--dump", p["dump"], "--source", p["src"],
                                 "--rev", scorer_path, "--lm", scorer_path, "-o", out,
                                 *(["--top1"] if top1 else [])], {"dump": dump, "src": src})


@_FUZZ
@given(dump=_DUMP, ref=_IDS)
def test_fuzz_oracle_bleu(dump, ref):
    _run_checked(lambda p, out: ["oracle-bleu", "--dump", p["dump"], "--ref", p["ref"],
                                 "--eos-id", "2", "--selected", out + ".sel", "-o", out],
                 {"dump": dump, "ref": ref})


@_FUZZ
@given(hyp=_IDS, ref=_IDS)
def test_fuzz_score_bleu(hyp, ref):
    _run_checked(lambda p, out: ["score-bleu", "--hyp", p["hyp"], "--ref", p["ref"],
                                 "--sentence-scores", out + ".sent", "-o", out],
                 {"hyp": hyp, "ref": ref})


@_FUZZ
@given(src=_IDS, ref=_IDS, sf=_GRID, ncr=_GRID)
def test_fuzz_tune_lambda(scorer_path, src, ref, sf, ncr):
    _run_checked(lambda p, out: ["tune-lambda", "--model", scorer_path, "--rev", scorer_path,
                                 "--lm", scorer_path, "--source", p["src"], "--ref", p["ref"],
                                 "--beam", "2", "--max-len", "2", f"--sf-grid={sf}",
                                 f"--ncr-grid={ncr}", "-o", out], {"src": src, "ref": ref})


@_FUZZ
@given(a=_IDS, b=_IDS, specs=st.one_of(
           st.just(["en={a}", "ru={b}"]),
           st.lists(st.sampled_from(["en={a}", "ru={b}", "{a}", "={b}", "en={b}"]), min_size=1,
                    max_size=3)),
       features=st.sampled_from(["8", "8", "1", "0", "-1"]))
def test_fuzz_langid_train(a, b, specs, features):
    _run_checked(lambda p, out: ["langid-train", *(s.format(a=p["a"], b=p["b"]) for s in specs),
                                 "--features", features, "--epochs", "2", "--model-out", out],
                 {"a": a, "b": b})


@_FUZZ
@given(pos=_IDS, neg=_IDS)
def test_fuzz_domain_train(pos, neg):
    _run_checked(lambda p, out: ["domain-train", "--positives", p["pos"], "--negatives",
                                 p["neg"], "--epochs", "2", "--model-out", out],
                 {"pos": pos, "neg": neg})


@_FUZZ
@given(text=_TEXT)
def test_fuzz_normalize(text):
    _run_checked(lambda p, out: ["normalize", p["in"], "-o", out], {"in": text})


@_FUZZ
@given(text=_TEXT, lang=st.sampled_from(["en", "de", "ru"]), detok=st.booleans(),
       german_quotes=st.booleans())
def test_fuzz_tokenize(text, lang, detok, german_quotes):
    _run_checked(lambda p, out: ["tokenize", p["in"], "--lang", lang, "-o", out,
                                 *(["--detok"] if detok else []),
                                 *(["--german-quotes"] if german_quotes else [])],
                 {"in": text})


@_FUZZ
@given(text=_TEXT, vocab_size=st.sampled_from(["0", "5", "6", "12", "40"]))
def test_fuzz_bpe_train(text, vocab_size):
    _run_checked(lambda p, out: ["bpe-train", p["in"], "--vocab-size", vocab_size,
                                 "--model-out", out], {"in": text})


@_FUZZ
@given(text=_TEXT, dropout=st.sampled_from(["0", "0.1", "0.5", "1", "-0.1", "nan", "inf"]))
def test_fuzz_bpe_encode(bpe_path, text, dropout):
    _run_checked(lambda p, out: ["bpe-encode", p["in"], "--model", bpe_path,
                                 f"--dropout={dropout}", "-o", out], {"in": text})


@_FUZZ
@given(ids=_file(_line([b"5", b"6", b"7", b" "]),
                 _line(_DIRTY + [b"3", b"99999999999999999999999"])))
def test_fuzz_bpe_decode(bpe_path, ids):
    _run_checked(lambda p, out: ["bpe-decode", p["in"], "--model", bpe_path, "-o", out],
                 {"in": ids})


@_FUZZ
@given(tsv=_TSV, stage1=st.sampled_from(_PROBS), final=st.sampled_from(_PROBS),
       side=st.sampled_from(["source", "target"]))
def test_fuzz_domain_select(domain_paths, tsv, stage1, final, side):
    _run_checked(lambda p, out: ["domain-select", p["in.tsv"], "--clf-en", domain_paths[0],
                                 "--clf-ru", domain_paths[1], f"--stage1={stage1}",
                                 f"--final={final}", "--english-side", side, "-o", out],
                 {"in.tsv": tsv})
