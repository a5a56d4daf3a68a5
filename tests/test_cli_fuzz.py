"""Fuzzed data inputs through the command line: every run ends in exit 0, or
in exit 1 with a named MtkitError as the last stderr line, and a failed run
leaves no output file behind. An InputFormatError or ModelFormatError starts
with the path of the file at fault and names it once.

Model files have their own fuzz (test_model_file.py); this one covers what
the stages read as data: text, TSV pairs, id lines, candidate dumps and
references, and the --part, CODE=PATH and grid specs and numeric options.

Every int and float option of every subcommand, found by walking the parser,
is also tried with out-of-range values on tiny valid inputs, and on empty
ones where the subcommand accepts them: -1 and 0 for an int, nan, inf and
-inf for a float. Each run exits 0, or is rejected: exit 2
(argparse's usage error) or exit 1 with a ConfigError naming the option.
A nan is always rejected. Each int option, bar the few that cost what they
ask for, is also run at 10**9 in a child with a 1 GiB address space: it
exits 0, or exits 1 with one named error, a MemoryError included.
"""

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import bpe, domain, errors, models
from mtkit.cli import build_parser, run

from conftest import run_limited

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


# ---------------------------------------------------------------------------
# numeric options


def _typed_options(type_):
    """(subcommand, option) for every option of type `type_`."""
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type is type_:
                yield name, action.option_strings[-1]


def _numeric_options():
    """(subcommand, option, value) for every int and float option."""
    for type_, values in ((int, ("-1", "0")), (float, ("nan", "inf", "-inf"))):
        for name, option in _typed_options(type_):
            for value in values:
                yield name, option, value


# Subcommands that finish with exit 0 when their data files are empty; a
# range check must still run on such a run, although no line reaches the
# function that checks it per line.
_EMPTY_OK = {"bpe-encode", "filter", "domain-select", "decode", "sample", "rerank"}


@pytest.fixture(scope="module")
def base_argv(tmp_path_factory, scorer_path, bpe_path, domain_paths):
    """Runs of each subcommand that exit 0: on tiny valid inputs, and for the
    subcommands in _EMPTY_OK also on empty ones. The option under test is
    appended, and argparse keeps the last value given."""
    files = {"text": "a b c\nb c a\n", "ids": "0\n0 1\n", "pairs": "a b\tx y\nb\ty\n",
             "en": "the cat\na dog\n", "ru": "кот\nпёс\n",
             "dump": "0\t0\t-1.0\t-\t-\t-\t0,2\n1\t0\t-2.0\t-\t-\t-\t1,2\n"}
    runs = {}
    for inputs in ("tiny", "empty"):
        work = tmp_path_factory.mktemp(f"numeric-{inputs}")
        p = {}
        for name, text in files.items():
            p[name] = str(work / name)
            (work / name).write_text(text if inputs == "tiny" else "", encoding="utf-8")
        runs[inputs] = _numeric_argv(work, p, scorer_path, bpe_path, domain_paths)
    return {name: [argv] + ([runs["empty"][name]] if name in _EMPTY_OK else [])
            for name, argv in runs["tiny"].items()}


def _numeric_argv(work, p, scorer_path, bpe_path, domain_paths):
    for i in range(2):
        p[f"ckpt{i}"] = str(work / f"c{i}.ckpt")
        models.save_checkpoint({"w": np.array([1.0, i])}, p[f"ckpt{i}"],
                               {"validation_score": float(i)})
    out = str(work / "out")
    model = ("--model", scorer_path)
    return {
        "bpe-train": ["bpe-train", p["text"], "--vocab-size", "30", "--model-out", out],
        "bpe-encode": ["bpe-encode", p["text"], "--model", bpe_path, "-o", out],
        "filter": ["filter", p["pairs"], "-o", out],
        "langid-train": ["langid-train", f"en={p['en']}", f"ru={p['ru']}", "--features", "8",
                         "--epochs", "2", "--model-out", out],
        "domain-train": ["domain-train", "--positives", p["en"], "--negatives", p["ru"],
                         "--epochs", "2", "--model-out", out],
        "domain-select": ["domain-select", p["pairs"], "--clf-en", domain_paths[0],
                          "--clf-ru", domain_paths[1], "-o", out],
        "mix": ["mix", "--part", f"1:bitext:{p['pairs']}", "--n", "2", "-o", out],
        "avg-checkpoints": ["avg-checkpoints", p["ckpt0"], p["ckpt1"], "-o", out],
        "decode": ["decode", p["ids"], *model, "--lm", scorer_path, "--fusion-lambda", "0.1",
                   "--max-len", "3", "-o", out],
        "sample": ["sample", p["ids"], *model, "--max-len", "3", "-o", out],
        "rerank": ["rerank", "--dump", p["dump"], "--source", p["ids"], "--rev", scorer_path,
                   "--lm", scorer_path, "-o", out],
        "oracle-bleu": ["oracle-bleu", "--dump", p["dump"], "--ref", p["ids"], "-o", out],
        "tune-lambda": ["tune-lambda", *model, "--rev", scorer_path, "--lm", scorer_path,
                        "--source", p["ids"], "--ref", p["ids"], "--beam", "2", "--max-len",
                        "3", "--sf-grid", "0,0.1", "--ncr-grid", "0,0.5", "-o", out],
    }


def test_numeric_option_base_runs_exit_0(base_argv):
    assert {name for name, _, _ in _numeric_options()} <= set(base_argv)
    for argvs in base_argv.values():
        for argv in argvs:
            assert run(argv) == 0, argv


@pytest.mark.parametrize("subcommand, option, value", [
    pytest.param(*case, id=f"{case[0]} {case[1]}={case[2]}") for case in _numeric_options()])
def test_numeric_option_exits_0_or_names_option(base_argv, capsys, subcommand, option, value):
    for argv in base_argv[subcommand]:
        rc = run(argv + [f"{option}={value}"])
        err = capsys.readouterr().err
        if rc == 0:
            assert value != "nan", argv
            continue
        if rc == 2:  # argparse rejected the value
            continue
        assert rc == 1
        last = err.splitlines()[-1]
        assert last.startswith("error: ConfigError: "), last
        words = option.lstrip("-").split("-")
        assert all(word in last for word in words), last


# Integer options at 10**9. Only these cost what they ask for: the training
# epochs and the mix sample size. --threads is ignored, and no test passes a
# huge thread count.
_COSTS_WHAT_IT_ASKS = {("langid-train", "--epochs"), ("domain-train", "--epochs"), ("mix", "--n")}
_HUGE_INT_CASES = [case for case in _typed_options(int)
                   if case[1] != "--threads" and case not in _COSTS_WHAT_IT_ASKS]


def _address_space_limit():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
@pytest.mark.parametrize("subcommand, option", [
    pytest.param(*case, id=" ".join(case)) for case in _HUGE_INT_CASES])
def test_huge_int_option_exits_0_or_names_error(base_argv, monkeypatch, subcommand, option):
    # each run is a child under a 1 GiB address-space limit: an allocation
    # sized by the option fails there with a MemoryError, which must be named
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # its thread buffers take address space
    for argv in base_argv[subcommand]:
        proc = run_limited(argv + [f"{option}={10 ** 9}"], preexec_fn=_address_space_limit)
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr
        errors_ = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        if proc.returncode == 1:
            assert len(errors_) == 1 and re.match(r"error: \w+Error: ", errors_[0]), proc.stderr
        else:
            assert errors_ == [], proc.stderr
