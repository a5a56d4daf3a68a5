"""End-to-end runs of the mtkit command line against small on-disk fixtures."""

import argparse
import builtins
import inspect
import json
import os
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

import mtkit
from mtkit import bpe, corpus, domain, models
from mtkit.candidates import Candidate, format_candidates, parse_candidates, strip_eos
from mtkit.cli import build_parser, run
from mtkit.decode import DecodeConfig, beam_search, noisy_channel_rerank
from mtkit.models import TableScorer

from conftest import EN_WORDS, MED_EN, MED_RU, NEWS_EN, NEWS_RU, RU_WORDS, FullDisk, \
    default_rules_text, make_domain_line, make_sentence, ngram_container, table_container


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read(path):
    return path.read_text(encoding="utf-8").splitlines()


def _fusion_fwd():
    # forward model slightly prefers a-paths from source (0,)
    return TableScorer(
        ["a", "b", "eos"],
        {
            ((0,), ()): [0.46, 0.44, 0.10],
            ((0,), (0,)): [0.10, 0.10, 0.80],
            ((0,), (1,)): [0.10, 0.10, 0.80],
        },
        np.ones(3) / 3,
    )


def _fusion_lm():
    # language model overwhelmingly prefers b first
    return TableScorer(
        ["a", "b", "eos"],
        {
            ((), ()): [0.005, 0.99, 0.005],
            ((), (1,)): [0.005, 0.005, 0.99],
        },
        np.ones(3) / 3,
    )


# ---------------------------------------------------------------------------
# argument handling

def test_no_args_is_usage_error(capsys):
    assert run([]) == 2
    assert capsys.readouterr().err.startswith(build_parser().format_usage())


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(build_parser().format_usage())
    assert err.endswith(", ".join(repr(name) for name in _OPTIONS) + ")\n")


def test_help_lists_every_subcommand(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help()
    assert {line.split()[0] for line in out.splitlines() if line.startswith("    ")} \
        >= set(_OPTIONS)


# Every subcommand's options and positionals, in parser order, without -h.
# Adding or removing a knob shows up here as a test diff.
_OPTIONS = {
    "normalize": "input -o --output --rules",
    "tokenize": "input -o --output --lang --detok --german-quotes",
    "bpe-train": "input --vocab-size --model-out",
    "bpe-encode": "input -o --output --model --dropout --seed",
    "bpe-decode": "input -o --output --model",
    "filter": "input -o --output --seed --threads --max-len --min-len --max-ratio "
              "--min-score --langid --langs --report --mono",
    "langid-train": "data --model-out --features --epochs --lr --seed",
    "domain-train": "--positives --negatives --lang --bpe --model-out --epochs --lr --seed",
    "domain-select": "input -o --output --clf-en --clf-ru --bpe --stage1 --final --english-side",
    "mix": "--part --n --seed -o --output",
    "reverse-target": "input -o --output",
    "avg-checkpoints": "checkpoints -o --output --top-k",
    "decode": "input -o --output --seed --threads --model --lm --fusion-lambda --beam "
              "--max-len --n-candidates --alpha --dump",
    "sample": "input -o --output --seed --threads --model --k --max-len",
    "rerank": "--dump --source --rev --lm --lam --top1 -o --output",
    "score-bleu": "--hyp --ref --sentence-scores -o --output",
    "oracle-bleu": "--dump --ref --eos-id --selected -o --output",
    "tune-lambda": "--seed --threads -o --output --model --rev --lm --source --ref --beam "
                   "--max-len --n-candidates --alpha --sf-grid --ncr-grid",
}


def test_option_inventory():
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    got = {
        name: " ".join(opt for action in sub._actions
                       if not isinstance(action, argparse._HelpAction)
                       for opt in action.option_strings or [action.dest])
        for name, sub in subparsers.choices.items()
    }
    assert got == _OPTIONS


@pytest.mark.parametrize("name", list(_OPTIONS))
def test_one_subcommand_parser_equals_the_full_one(name, capsys):
    # run() builds only the parser of the subcommand it is given; that parser
    # must read the same options, and print the same help and usage errors,
    # as the full one
    (lazy,) = (a for a in build_parser(name)._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(lazy.choices) == [name]
    assert " ".join(opt for action in lazy.choices[name]._actions
                    if not isinstance(action, argparse._HelpAction)
                    for opt in action.option_strings or [action.dest]) == _OPTIONS[name]
    for argv in ([name, "--help"], [name, "--no-such-option"]):
        code = run(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert (code, got.out, got.err) == (exc.value.code, want.out, want.err)


def test_missing_file_reports_error_line(tmp_path, capsys):
    rc = run(["bpe-decode", "-", "--model", str(tmp_path / "nope.bpe")])
    assert rc == 1
    err = capsys.readouterr().err
    assert any(l.startswith("error: FileNotFoundError:") for l in err.splitlines())


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"fine line\n\xff\xfe broken\n")
    out = tmp_path / "out.txt"
    assert run(["normalize", str(bad), "-o", str(out)]) == 1
    assert f"error: InputFormatError: {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()

    out.write_text("previous contents\n", encoding="utf-8")
    assert run(["normalize", str(bad), "-o", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "out.txt"]

    good = tmp_path / "good.txt"
    _write(good, ["a  b"])
    assert run(["normalize", str(good), "-o", str(out)]) == 0
    assert _read(out) == ["a b"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "good.txt", "out.txt"]


def test_stdin_is_held_to_utf8(tmp_path, capsys, monkeypatch):
    # under the C and C.UTF-8 locales Python's own stdin decodes bad bytes
    # with surrogateescape instead of failing
    raw = tmp_path / "stdin.txt"
    raw.write_bytes(b"a\xff\n")
    with open(raw, encoding="utf-8", errors="surrogateescape") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(["normalize", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(
        "error: InputFormatError: -: 'utf-8' codec can't decode byte 0xff")
    raw.write_text("café  au lait\n", encoding="utf-8")
    with open(raw, encoding="utf-8", errors="surrogateescape") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(["normalize", "-"]) == 0
    assert capsys.readouterr().out == "café au lait\n"


def test_python_dash_m_runs_the_cli(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a\xff\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mtkit.__file__))}
    proc = subprocess.run([sys.executable, "-m", "mtkit.cli", "normalize", str(bad)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith(f"error: InputFormatError: {bad}: ")


# ---------------------------------------------------------------------------
# text commands

def test_normalize_file_output(tmp_path):
    inp = tmp_path / "raw.txt"
    out = tmp_path / "norm.txt"
    _write(inp, ["“Hello”  world", "a  b"])
    assert run(["normalize", str(inp), "-o", str(out)]) == 0
    assert _read(out) == ['"Hello" world', "a b"]


def test_normalize_stdout_default(tmp_path, capsys):
    inp = tmp_path / "raw.txt"
    _write(inp, ["“Hello”  world"])
    assert run(["normalize", str(inp)]) == 0
    captured = capsys.readouterr()
    assert captured.out == '"Hello" world\n'
    assert "[mtkit] normalize config:" in captured.err


def test_normalize_custom_rules_file(tmp_path):
    rules_path = tmp_path / "rules.txt"
    rules_path.write_text(default_rules_text(), encoding="utf-8")
    inp = tmp_path / "raw.txt"
    out = tmp_path / "norm.txt"
    _write(inp, ["–dash…"])
    assert run(["normalize", str(inp), "-o", str(out), "--rules", str(rules_path)]) == 0
    ref = tmp_path / "ref.txt"
    assert run(["normalize", str(inp), "-o", str(ref)]) == 0
    assert _read(out) == _read(ref)


def test_tokenize_detokenize_roundtrip(tmp_path):
    inp = tmp_path / "text.txt"
    tok = tmp_path / "tok.txt"
    back = tmp_path / "back.txt"
    _write(inp, ["Hello, world."])
    assert run(["tokenize", str(inp), "-o", str(tok)]) == 0
    assert _read(tok) == ["Hello , world ."]
    assert run(["tokenize", str(tok), "-o", str(back), "--detok"]) == 0
    assert _read(back) == ["Hello, world."]


def test_detok_ignores_lang(tmp_path):
    # detokenize takes no language, so --lang leaves --detok output as it is
    inp = tmp_path / "tok.txt"
    _write(inp, ['Er sagte " Hallo " , ( ja ) .', "Он сказал : « да » ?", "It 's $ 5 !"])
    outputs = []
    for lang in ("en", "de", "ru"):
        out = tmp_path / f"{lang}.txt"
        assert run(["tokenize", str(inp), "-o", str(out), "--detok", "--lang", lang]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_detok_german_quotes(tmp_path):
    inp = tmp_path / "tok.txt"
    out = tmp_path / "text.txt"
    _write(inp, ['Er sagte " Hallo " zu mir'])
    rc = run(["tokenize", str(inp), "-o", str(out), "--detok", "--lang", "de",
              "--german-quotes"])
    assert rc == 0
    assert _read(out) == ["Er sagte „Hallo“ zu mir"]


# ---------------------------------------------------------------------------
# bpe commands

def test_bpe_train_encode_decode_pipeline(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    model_path = tmp_path / "codes.bpe"
    ids_path = tmp_path / "ids.txt"
    text_path = tmp_path / "restored.txt"
    lines = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "a cat and a dog sat",
    ] * 3
    _write(corpus_path, lines)
    rc = run(["bpe-train", str(corpus_path), "--vocab-size", "40",
              "--model-out", str(model_path)])
    assert rc == 0
    assert model_path.read_text(encoding="utf-8").startswith("bpe-v1")

    assert run(["bpe-encode", str(corpus_path), "-o", str(ids_path),
                "--model", str(model_path)]) == 0
    for line in _read(ids_path):
        assert all(tok.isdigit() for tok in line.split())

    assert run(["bpe-decode", str(ids_path), "-o", str(text_path),
                "--model", str(model_path)]) == 0
    assert _read(text_path) == lines


def test_bpe_encode_deterministic(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    model_path = tmp_path / "codes.bpe"
    _write(corpus_path, ["abab abba baab", "aabb bbaa abab"] * 4)
    run(["bpe-train", str(corpus_path), "--vocab-size", "12",
         "--model-out", str(model_path)])
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["bpe-encode", str(corpus_path), "--model", str(model_path),
            "--dropout", "0.5", "--seed", "7"]
    assert run(args + ["-o", str(out1)]) == 0
    assert run(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    plain = tmp_path / "plain.txt"
    run(["bpe-encode", str(corpus_path), "--model", str(model_path),
         "-o", str(plain)])
    for dropped, whole in zip(_read(out1), _read(plain)):
        assert len(dropped.split()) >= len(whole.split())


def test_bpe_train_refuses_an_output_option(tmp_path, capsys):
    # bpe-train writes only --model-out; an -o it would never write is a
    # usage error, not a silently missing file
    corpus, ignored, model = tmp_path / "t.txt", tmp_path / "ignored.txt", tmp_path / "m.bpe"
    _write(corpus, ["abab abba baab"])
    assert run(["bpe-train", str(corpus), "-o", str(ignored), "--vocab-size", "12",
                "--model-out", str(model)]) == 2
    assert "unrecognized arguments: -o" in capsys.readouterr().err
    assert not ignored.exists() and not model.exists()


@pytest.mark.parametrize("command", ["bpe-encode", "bpe-decode"])
def test_bpe_model_without_specials_is_named_error(tmp_path, capsys, command):
    model = tmp_path / "codes.bpe"
    model.write_text("bpe-v1 10\na\t0\nb\t1\n\n", encoding="utf-8")
    inp = tmp_path / "in.txt"
    _write(inp, ["0 1"])
    out = tmp_path / "out.txt"
    assert run([command, str(inp), "--model", str(model), "-o", str(out)]) == 1
    assert "error: ModelFormatError:" in capsys.readouterr().err
    assert not out.exists()


_NGRAM_ARGS = {"order": 1, "vocab_size": 3, "eos_id": 2, "weights": [1.0]}
_NGRAM = ngram_container(("counts.1", [1], [1]), ("grams.1", [1, 1], [0]), **_NGRAM_ARGS)
_TABLE_VOCAB = ["a", "b", "eos"]
_TABLE = table_container(_TABLE_VOCAB, [0.25, 0.25, 0.5])
_LANGID = "langid-v1 16\nlangs en ru\nbias 0.0 0.0\nw 1 0.5 -0.5\n"
_DOMCLS = "domcls-v1 en\nfoo\t0.5\n"


@pytest.mark.parametrize("command, good, bad", [
    pytest.param("decode", _NGRAM,
                 ngram_container(("counts.1", [1], [1]), ("grams.1", [2, 1], [0, 1]),
                                 **_NGRAM_ARGS),
                 id="ngram count missing"),
    pytest.param("decode", _NGRAM,
                 ngram_container(("counts.1", [1], [1]), ("grams.1", [1, 1], [0]),
                                 **{**_NGRAM_ARGS, "vocab_size": "x"}),
                 id="ngram header not int"),
    pytest.param("decode", _NGRAM,
                 ngram_container(("counts.1", [2], [1, -3]), ("grams.1", [2, 1], [0, 1]),
                                 **_NGRAM_ARGS),
                 id="ngram negative count"),
    pytest.param("decode", _NGRAM, "ngram-v1 1 3 2\nfloor 0.01\nweights 1.0\ncount 0 1\n",
                 id="ngram-v1 file"),
    pytest.param("decode", _NGRAM, "ngram-v2 1 3 2\nfloor 0.01\nweights 1.0\ngrams 1 0\n"
                 "counts 1 1\n", id="ngram-v2 text file"),
    pytest.param("decode", _TABLE,
                 table_container(_TABLE_VOCAB, [0.25, 0.25, 0.5], default_dtype="i64"),
                 id="table default not float"),
    pytest.param("decode", _TABLE, table_container(_TABLE_VOCAB, [0.25, 0.25, 0.5], [((0,), ())],
                                                   [[0.25, 0.125, 0.125]]),
                 id="table context sums to 0.5"),
    pytest.param("normalize", "normrules-v1 x\na\tb\n", "normrules-v1 x\n(unclosed\ty\n",
                 id="rules bad pattern"),
    pytest.param("normalize", "normrules-v1 x\na\tb\n", "normrules-v1 x\na\t\\9\n",
                 id="rules bad replacement"),
    pytest.param("filter", _LANGID, _LANGID + "w 99 1 1\n", id="langid row past n_features"),
    pytest.param("filter", _LANGID, _LANGID + "w 1 7\n", id="langid row short"),
    pytest.param("filter", _LANGID, _LANGID + "w -1 1 1\n", id="langid negative row"),
    pytest.param("filter", _LANGID, "langid-v1 0\nlangs en ru\nbias 0.0 0.0\n",
                 id="langid no features"),
    pytest.param("filter", _LANGID, _LANGID + "langs en ru\n", id="langid langs repeated"),
    pytest.param("filter", _LANGID, _LANGID + "bias 1.0 1.0\n", id="langid bias repeated"),
    pytest.param("filter", _LANGID, _LANGID + "w 1 0.0 0.0\n", id="langid row repeated"),
    pytest.param("filter", _LANGID, "langid-v1 16\nlangs\nbias\n", id="langid no languages"),
    pytest.param("filter", _LANGID, "langid-v1 16\nlangs en\nbias 0.0\n",
                 id="langid one language"),
    pytest.param("filter", _LANGID, "langid-v1 16\nlangs en en\nbias 0.0 0.0\n",
                 id="langid language repeated"),
    pytest.param("domain-select", _DOMCLS, _DOMCLS + "bar\tx\n", id="domcls weight not float"),
    pytest.param("domain-select", _DOMCLS, (_DOMCLS + "caf\xe9\t0.5\n").encode("latin-1"),
                 id="domcls not utf-8"),
    pytest.param("domain-select", _DOMCLS, _DOMCLS + "foo\t-3.0\n", id="domcls token repeated"),
    pytest.param("domain-select", _DOMCLS, _DOMCLS + "__bias__\t0.0\n__bias__\t2.0\n",
                 id="domcls bias repeated"),
])
def test_malformed_model_file_exits_1(tmp_path, capsys, command, good, bad):
    model = tmp_path / "model.txt"
    inp = tmp_path / "in.txt"
    _write(inp, ["0" if command == "decode" else "a b\tc d"])
    files = ["in.txt", "model.txt"]
    if command == "domain-select":  # --clf-ru takes a well-formed Russian classifier
        _write(tmp_path / "ru.domcls", ["domcls-v1 ru", "foo\t0.5"])
        files.append("ru.domcls")
    flag = {"decode": ["--model"], "normalize": ["--rules"],
            "filter": ["--langs", "en,ru", "--langid"],
            "domain-select": ["--clf-ru", str(tmp_path / "ru.domcls"), "--clf-en"]}[command]
    out = tmp_path / "out.txt"
    argv = [command, str(inp), *flag, str(model), "-o", str(out)]
    model.write_bytes(good if isinstance(good, bytes) else good.encode("utf-8"))
    assert run(argv) == 0  # the same command runs with the well-formed model
    out.unlink()
    capsys.readouterr()
    model.write_bytes(bad if isinstance(bad, bytes) else bad.encode("utf-8"))
    assert run(argv) == 1
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last.startswith(f"error: ModelFormatError: {model}: ") and last.count(str(model)) == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


# ---------------------------------------------------------------------------
# filter / langid / mix / reverse

def test_filter_cascade_and_report(tmp_path):
    inp = tmp_path / "pairs.tsv"
    out = tmp_path / "kept.tsv"
    rep = tmp_path / "report.txt"
    rows = [
        "a a a\tb b b\t0.9",
        "c c\td d\t0.8",
        " ".join(["s"] * 251) + "\t" + " ".join(["t"] * 251) + "\t0.9",
        " ".join(["s"] * 10) + "\t" + " ".join(["t"] * 14) + "\t0.9",
        "e e e\tf f f\t0.59",
        "malformed-single-column",
    ]
    _write(inp, rows)
    assert run(["filter", str(inp), "-o", str(out), "--report", str(rep)]) == 0
    assert _read(out) == ["a a a\tb b b\t0.9", "c c\td d\t0.8"]
    assert _read(rep) == [
        "total\t5",
        "kept\t2",
        "rejected.langid_src\t0",
        "rejected.langid_tgt\t0",
        "rejected.too_short\t0",
        "rejected.too_long\t1",
        "rejected.ratio\t1",
        "rejected.score\t1",
        "malformed\t1",
    ]


def test_filter_mono_mode(tmp_path, capsys):
    inp = tmp_path / "mono.txt"
    out = tmp_path / "kept.txt"
    _write(inp, ["hello there", "", " ".join(["x"] * 251), "fine line"])
    assert run(["filter", str(inp), "-o", str(out), "--mono"]) == 0
    assert _read(out) == ["hello there", "fine line"]
    err = capsys.readouterr().err
    assert "filter report: kept=2" in err
    assert "rejected.too_short=1" in err
    assert "rejected.too_long=1" in err


def test_filter_mono_rejects_langid(tmp_path, capsys, langid_file):
    # --mono applies the length bounds only: one sentence cannot pass both
    # sides of an en,ru language check
    rng = random.Random(6)
    inp = tmp_path / "mono.txt"
    out = tmp_path / "kept.txt"
    _write(inp, [make_sentence(rng, "en", 8) for _ in range(5)])
    rc = run(["filter", str(inp), "-o", str(out), "--mono",
              "--langid", str(langid_file), "--langs", "en,ru"])
    assert rc == 1
    assert "error: ConfigError:" in capsys.readouterr().err
    assert not out.exists()


def test_filter_threads_identical_output(tmp_path):
    inp = tmp_path / "pairs.tsv"
    rng = random.Random(3)
    rows = [f"{make_sentence(rng, 'en', 6)}\t{make_sentence(rng, 'de', 6)}\t0.9"
            for _ in range(200)]
    _write(inp, rows)
    out1 = tmp_path / "t1.tsv"
    out4 = tmp_path / "t4.tsv"
    assert run(["filter", str(inp), "-o", str(out1), "--threads", "1"]) == 0
    assert run(["filter", str(inp), "-o", str(out4), "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()


@pytest.fixture(scope="module")
def langid_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("langid")
    rng = random.Random(5)
    en_path = base / "en.txt"
    ru_path = base / "ru.txt"
    _write(en_path, [make_sentence(rng, "en") for _ in range(60)])
    _write(ru_path, [make_sentence(rng, "ru") for _ in range(60)])
    model_path = base / "langid.model"
    rc = run(["langid-train", f"en={en_path}", f"ru={ru_path}",
              "--model-out", str(model_path),
              "--features", "512", "--epochs", "150", "--lr", "5.0"])
    assert rc == 0
    return model_path


def test_filter_langid_requires_langs(tmp_path, capsys, langid_file):
    inp = tmp_path / "pairs.tsv"
    _write(inp, ["a\tb"])
    rc = run(["filter", str(inp), "--langid", str(langid_file)])
    assert rc == 1
    assert "error: ConfigError:" in capsys.readouterr().err


def test_langid_train_library_defaults_match_cli():
    # the library and `mtkit langid-train` fit the same model from the same data
    params = inspect.signature(corpus.langid_train).parameters
    args = build_parser().parse_args(["langid-train", "en=a", "ru=b", "--model-out", "m"])
    assert ([params[name].default for name in ("n_features", "epochs", "lr", "seed")]
            == [args.features, args.epochs, args.lr, args.seed])


def test_langid_train_then_filter(tmp_path, langid_file):
    rng = random.Random(17)
    inp = tmp_path / "pairs.tsv"
    out = tmp_path / "kept.tsv"
    rep = tmp_path / "report.txt"
    good = [f"{make_sentence(rng, 'en', 8)}\t{make_sentence(rng, 'ru', 8)}"
            for _ in range(2)]
    bad_src = f"{make_sentence(rng, 'ru', 8)}\t{make_sentence(rng, 'ru', 8)}"
    bad_tgt = f"{make_sentence(rng, 'en', 8)}\t{make_sentence(rng, 'en', 8)}"
    _write(inp, good + [bad_src, bad_tgt])
    rc = run(["filter", str(inp), "-o", str(out), "--report", str(rep),
              "--langid", str(langid_file), "--langs", "en,ru"])
    assert rc == 0
    assert _read(out) == good
    report = dict(line.split("\t") for line in _read(rep))
    assert report["rejected.langid_src"] == "1"
    assert report["rejected.langid_tgt"] == "1"


def test_filter_langid_rejects_blank_side(tmp_path, langid_file):
    rng = random.Random(18)
    inp = tmp_path / "pairs.tsv"
    out = tmp_path / "kept.tsv"
    rep = tmp_path / "report.txt"
    good = [f"{make_sentence(rng, 'en', 8)}\t{make_sentence(rng, 'ru', 8)}"
            for _ in range(2)]
    blank_src = f" \t{make_sentence(rng, 'ru', 8)}"
    blank_tgt = f"{make_sentence(rng, 'en', 8)}\t "
    _write(inp, [good[0], blank_src, blank_tgt, good[1]])
    rc = run(["filter", str(inp), "-o", str(out), "--report", str(rep),
              "--langid", str(langid_file), "--langs", "en,ru"])
    assert rc == 0
    assert _read(out) == good
    report = dict(line.split("\t") for line in _read(rep))
    assert report["total"] == "4"
    assert report["rejected.langid_src"] == "1"
    assert report["rejected.langid_tgt"] == "1"


def test_mix_ratio_and_determinism(tmp_path):
    part_a = tmp_path / "a.tsv"
    part_b = tmp_path / "b.tsv"
    _write(part_a, [f"srcA{i}\ttgtA{i}" for i in range(5)])
    _write(part_b, [f"srcB{i}\ttgtB{i}" for i in range(5)])
    out1 = tmp_path / "mix1.tsv"
    out2 = tmp_path / "mix2.tsv"
    args = ["mix", "--part", f"2:bitext:{part_a}",
            "--part", f"1:backtranslated:{part_b}", "--n", "600", "--seed", "3"]
    assert run(args + ["-o", str(out1)]) == 0
    assert run(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = _read(out1)
    assert len(lines) == 600
    n_a = sum(1 for line in lines if line.startswith("srcA"))
    assert abs(n_a - 400) < 45  # 2:1 weighting, ~4 sigma slack

    out3 = tmp_path / "mix3.tsv"
    assert run(args[:-1] + ["9", "-o", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


_MALFORMED_TSV = ["a b\tx y", "one column only", "c d\tz w\tnope", "e f\tu v\t0.9"]


def _assert_malformed_logged(err: str, stage: str, path) -> None:
    assert f"{stage}: {path}: malformed line 2: expected 2 or 3 tab-separated columns, got 1" in err
    assert f"{stage}: {path}: malformed line 3: could not convert string to float: 'nope'" in err
    assert "malformed line 1:" not in err and "malformed line 4:" not in err


def test_mix_logs_malformed_lines(tmp_path, capsys):
    part = tmp_path / "part.tsv"
    other = tmp_path / "other.tsv"
    _write(part, _MALFORMED_TSV)
    _write(other, _MALFORMED_TSV)
    out = tmp_path / "mix.tsv"
    assert run(["mix", "--part", f"1:bitext:{part}", "--n", "4", "-o", str(out)]) == 0
    assert _read(out) == ["a b\tx y", "e f\tu v\t0.9"] * 2
    _assert_malformed_logged(capsys.readouterr().err, "mix", part)
    # two parts with the same defect: each logged line names its own file
    assert run(["mix", "--part", f"1:bitext:{part}", "--part", f"1:news:{other}",
                "--n", "4", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    _assert_malformed_logged(err, "mix", part)
    _assert_malformed_logged(err, "mix", other)


def test_mix_bad_part_spec(tmp_path, capsys):
    rc = run(["mix", "--part", "nocolons", "--n", "5"])
    assert rc == 1
    assert "error: ConfigError:" in capsys.readouterr().err


def test_reverse_target_involution(tmp_path):
    inp = tmp_path / "pairs.tsv"
    once = tmp_path / "rev.tsv"
    twice = tmp_path / "rev2.tsv"
    _write(inp, ["a b c\tx y z\t0.5", "q r\tu v w"])
    assert run(["reverse-target", str(inp), "-o", str(once)]) == 0
    assert _read(once) == ["a b c\tz y x\t0.5", "q r\tw v u"]
    assert run(["reverse-target", str(once), "-o", str(twice)]) == 0
    assert twice.read_bytes() == inp.read_bytes()


def test_reverse_target_logs_malformed_lines(tmp_path, capsys):
    inp = tmp_path / "pairs.tsv"
    _write(inp, _MALFORMED_TSV)
    assert run(["reverse-target", str(inp)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["a b\ty x", "e f\tv u\t0.9"]
    _assert_malformed_logged(captured.err, "reverse-target", inp)


# ---------------------------------------------------------------------------
# domain commands

def test_domain_train_and_select(tmp_path, capsys):
    rng = random.Random(11)
    files = {}
    for name, markers, filler in (
        ("med_en", MED_EN, EN_WORDS), ("news_en", NEWS_EN, EN_WORDS),
        ("med_ru", MED_RU, RU_WORDS), ("news_ru", NEWS_RU, RU_WORDS),
    ):
        path = tmp_path / f"{name}.txt"
        _write(path, [make_domain_line(rng, markers, filler) for _ in range(150)])
        files[name] = path
    clf_en = tmp_path / "en.domcls"
    clf_ru = tmp_path / "ru.domcls"
    rc = run(["domain-train", "--positives", str(files["med_en"]),
              "--negatives", str(files["news_en"]), "--model-out", str(clf_en)])
    assert rc == 0
    assert "held-out accuracy" in capsys.readouterr().err
    rc = run(["domain-train", "--positives", str(files["med_ru"]),
              "--negatives", str(files["news_ru"]), "--lang", "ru",
              "--model-out", str(clf_ru)])
    assert rc == 0

    inp = tmp_path / "pairs.tsv"
    med_rows = [f"{make_domain_line(rng, MED_EN, EN_WORDS)}\t"
                f"{make_domain_line(rng, MED_RU, RU_WORDS)}" for _ in range(3)]
    news_rows = [f"{make_domain_line(rng, NEWS_EN, EN_WORDS)}\t"
                 f"{make_domain_line(rng, NEWS_RU, RU_WORDS)}" for _ in range(3)]
    _write(inp, med_rows + news_rows)
    out = tmp_path / "selected.tsv"
    rc = run(["domain-select", str(inp), "-o", str(out),
              "--clf-en", str(clf_en), "--clf-ru", str(clf_ru)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "domain-select counts: input=6" in err

    kept = _read(out)
    assert len(kept) == 3
    for line in kept:
        cols = line.split("\t")
        assert cols[0] + "\t" + cols[1] in med_rows
        score_en, score_ru = float(cols[2]), float(cols[3])
        assert score_en > 0.5
        assert (score_en + score_ru) / 2 >= 0.90 - 1e-9


def test_domain_train_and_select_with_bpe(tmp_path):
    # With --bpe the classifiers are keyed by BPE symbols, and selection
    # matches the library run with the same tokenizer.
    rng = random.Random(12)
    texts = {name: [make_domain_line(rng, markers, filler) for _ in range(60)]
             for name, markers, filler in (
                 ("med_en", MED_EN, EN_WORDS), ("news_en", NEWS_EN, EN_WORDS),
                 ("med_ru", MED_RU, RU_WORDS), ("news_ru", NEWS_RU, RU_WORDS))}
    for name, lines in texts.items():
        _write(tmp_path / f"{name}.txt", lines)
    joint, codes = tmp_path / "joint.txt", tmp_path / "codes.bpe"
    _write(joint, [line for lines in texts.values() for line in lines])
    assert run(["bpe-train", str(joint), "--vocab-size", "300", "--model-out", str(codes)]) == 0
    model = bpe.load_model(codes)

    def tokenizer(text):
        return [model.id_to_token[i] for i in bpe.bpe_encode(model, text)]

    clfs = {}
    for lang in ("en", "ru"):
        path, expected = tmp_path / f"{lang}.domcls", tmp_path / f"{lang}.expected"
        assert run(["domain-train", "--positives", str(tmp_path / f"med_{lang}.txt"),
                    "--negatives", str(tmp_path / f"news_{lang}.txt"), "--lang", lang,
                    "--bpe", str(codes), "--model-out", str(path)]) == 0
        clf = domain.domain_train(texts[f"med_{lang}"], texts[f"news_{lang}"],
                                  lang=lang, tokenizer=tokenizer)
        domain.save_classifier(clf, expected)
        assert path.read_bytes() == expected.read_bytes()
        keys = [line.split("\t")[0] for line in _read(path)[1:-1]]
        assert set(keys) <= set(model.vocab)
        assert any(key.endswith("</w>") for key in keys)
        clfs[lang] = domain.load_classifier(path, tokenizer)

    def tsv(en, ru):
        return f"{make_domain_line(rng, en, EN_WORDS)}\t{make_domain_line(rng, ru, RU_WORDS)}"

    rows = [tsv(MED_EN, MED_RU) for _ in range(3)] + [tsv(NEWS_EN, NEWS_RU) for _ in range(3)]
    inp, out = tmp_path / "pairs.tsv", tmp_path / "selected.tsv"
    _write(inp, rows)
    assert run(["domain-select", str(inp), "--clf-en", str(tmp_path / "en.domcls"),
                "--clf-ru", str(tmp_path / "ru.domcls"), "--bpe", str(codes),
                "-o", str(out)]) == 0
    selected, _ = domain.bilingual_select(
        [corpus.parse_tsv_line(row) for row in rows], clfs["en"], clfs["ru"],
        domain.SelectionConfig())
    assert 0 < len(selected) < len(rows)
    assert _read(out) == [corpus.format_tsv_line(pair, (repr(se), repr(sr)))
                          for pair, se, sr in selected]


def test_domain_select_long_out_of_domain_line(tmp_path, capsys):
    clfs = {}
    for lang in ("en", "ru"):
        clfs[lang] = tmp_path / f"{lang}.domcls"
        clfs[lang].write_text(f"domcls-v1 {lang}\ncell\t5.0\nvote\t-0.8\n__bias__\t0.0\n",
                              encoding="utf-8")
    inp = tmp_path / "pairs.tsv"
    _write(inp, [" ".join(["vote"] * 1000) + "\tvote", "cell cell\tcell cell"])
    out = tmp_path / "selected.tsv"
    rc = run(["domain-select", str(inp), "-o", str(out),
              "--clf-en", str(clfs["en"]), "--clf-ru", str(clfs["ru"])])
    assert rc == 0
    assert [line.split("\t")[:2] for line in _read(out)] == [["cell cell", "cell cell"]]
    assert "domain-select counts: input=2 stage1_kept=1 " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# model commands

def _checkpoint_bytes(tmp_path, w, metadata) -> bytes:
    path = tmp_path / "expected.nmtc"
    models.save_checkpoint({"w": w}, path, metadata)
    return path.read_bytes()


def test_avg_checkpoints_mean_and_top_k(tmp_path):
    p1 = tmp_path / "ckpt1.nmtc"
    p2 = tmp_path / "ckpt2.nmtc"
    models.save_checkpoint({"w": [1.0, 3.0]}, p1, {"validation_score": 1.0, "step": 100})
    models.save_checkpoint({"w": [3.0, 5.0]}, p2, {"validation_score": 2.0, "step": 200})

    avg = tmp_path / "avg.nmtc"
    assert run(["avg-checkpoints", str(p1), str(p2), "-o", str(avg)]) == 0
    assert avg.read_bytes() == _checkpoint_bytes(tmp_path, [2.0, 4.0], {"source_count": 2})

    best = tmp_path / "best.nmtc"
    rc = run(["avg-checkpoints", str(p1), str(p2), "-o", str(best), "--top-k", "1"])
    assert rc == 0
    assert best.read_bytes() == _checkpoint_bytes(tmp_path, [3.0, 5.0], {"source_count": 1})


@pytest.mark.parametrize("k", ["0", "-1"])
def test_avg_checkpoints_top_k_below_one_exits_1(tmp_path, capsys, k):
    paths = []
    for i, score in enumerate([1.0, 2.0, 3.0]):
        paths.append(str(tmp_path / f"c{i}.nmtc"))
        models.save_checkpoint({"w": [score]}, paths[-1], {"validation_score": score})
    out = tmp_path / "avg.nmtc"
    assert run(["avg-checkpoints", *paths, "-o", str(out), "--top-k", k]) == 1
    assert "error: ConfigError: --top-k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cut", [5, 20, -4])
def test_avg_checkpoints_truncated_input_exits_1(tmp_path, capsys, cut):
    good = tmp_path / "good.nmtc"
    models.save_checkpoint({"w": [1.0, 3.0]}, good)
    bad = tmp_path / "bad.nmtc"
    bad.write_bytes(good.read_bytes()[:cut])
    out = tmp_path / "avg.nmtc"
    assert run(["avg-checkpoints", str(good), str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: ModelFormatError:" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.nmtc", "good.nmtc"]


@pytest.mark.parametrize("score", [
    [1], None, "0.5", True, float("nan"), float("inf"), float("-inf"),
    pytest.param(10**400, id="int past float range")])
def test_avg_checkpoints_top_k_needs_numeric_score(tmp_path, capsys, score):
    # the good file comes first, so a bad score is caught wherever it sorts
    good = tmp_path / "good.nmtc"
    models.save_checkpoint({"w": [1.0, 1.0]}, good, {"validation_score": 0.5})
    path = tmp_path / "c.nmtc"
    models.save_checkpoint({"w": np.zeros(2)}, path, {"validation_score": score})
    out = tmp_path / "avg.nmtc"
    assert run(["avg-checkpoints", str(good), str(path), "-o", str(out), "--top-k", "1"]) == 1
    err = capsys.readouterr().err
    assert "error: ModelFormatError:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_avg_checkpoints_rejects_non_f32_dtype(tmp_path, capsys):
    path = tmp_path / "f16.nmtc"
    models.save_checkpoint({"w": [1.0, 3.0]}, path)
    path.write_bytes(path.read_bytes().replace(b'"dtype":"f32"', b'"dtype":"f16"'))
    out = tmp_path / "avg.nmtc"
    assert run(["avg-checkpoints", str(path), str(path), "-o", str(out)]) == 1
    assert "error: ModelFormatError:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# decoding commands

def test_decode_writes_top1_and_dump(tmp_path):
    fwd = _fusion_fwd()
    fwd_path = tmp_path / "fwd.scorer"
    models.save_table_scorer(fwd, fwd_path)
    src = tmp_path / "src.txt"
    _write(src, ["0", "0"])
    out = tmp_path / "out.txt"
    dump = tmp_path / "dump.tsv"
    rc = run(["decode", str(src), "-o", str(out), "--model", str(fwd_path),
              "--beam", "9", "--max-len", "2", "--n-candidates", "9",
              "--dump", str(dump)])
    assert rc == 0
    assert _read(out) == ["0", "0"]  # beam winner is (0, eos)

    cfg = DecodeConfig(beam_size=9, max_len=2, n_candidates=9)
    expected = [beam_search(fwd, None, [0], cfg) for _ in range(2)]
    with open(dump, encoding="utf-8") as fh:
        parsed = parse_candidates(fh)
    assert len(parsed) == 2
    for got_cands, want_cands in zip(parsed, expected):
        assert len(got_cands) == len(want_cands)
        for got, want in zip(got_cands, want_cands):
            assert got.tokens == want.tokens
            assert got.fused_score == want.fused_score


def test_decode_ensemble_of_identical_models_matches_single(tmp_path):
    fwd_path = tmp_path / "fwd.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    single = tmp_path / "single.txt"
    double = tmp_path / "double.txt"
    base = ["decode", str(src), "--beam", "4", "--max-len", "2"]
    assert run(base + ["--model", str(fwd_path), "-o", str(single)]) == 0
    rc = run(base + ["--model", str(fwd_path), str(fwd_path), "-o", str(double)])
    assert rc == 0
    assert single.read_bytes() == double.read_bytes()


def test_decode_fusion_shifts_winner(tmp_path):
    fwd_path = tmp_path / "fwd.scorer"
    lm_path = tmp_path / "lm.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    models.save_table_scorer(_fusion_lm(), lm_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    plain = tmp_path / "plain.txt"
    fused = tmp_path / "fused.txt"
    base = ["decode", str(src), "--model", str(fwd_path),
            "--beam", "9", "--max-len", "2", "--n-candidates", "9"]
    assert run(base + ["-o", str(plain)]) == 0
    rc = run(base + ["-o", str(fused), "--lm", str(lm_path),
                     "--fusion-lambda", "0.1"])
    assert rc == 0
    assert _read(plain) == ["0"]
    assert _read(fused) == ["1"]


def test_decode_lm_with_another_eos_exits_1(tmp_path, capsys):
    # the forward eos would get the lm's probability of an ordinary token
    fwd_path = tmp_path / "fwd.scorer"
    lm_path = tmp_path / "lm.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)  # eos id 2
    models.save_table_scorer(TableScorer(["a", "eos", "b"], {}, np.ones(3) / 3), lm_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    out = tmp_path / "out.txt"
    rc = run(["decode", str(src), "--model", str(fwd_path), "--lm", str(lm_path),
              "--fusion-lambda", "0.1", "-o", str(out)])
    assert rc == 1
    assert "error: VocabMismatchError: forward and lm eos ids differ: [2, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eos", ["bpe eos", "word"])
def test_text_decodes_through_bpe_encode_and_bpe_decode(tmp_path, eos):
    # The decoding stages read and write ids; text goes in through bpe-encode
    # and comes out through bpe-decode, with the scorer's eos stripped by
    # decode even where it is an ordinary BPE symbol rather than <eos>.
    lines = ["the cat sat on the mat", "the dog sat on the log", "a cat and a dog sat"]
    text, codes, src, top1, back = (tmp_path / n for n in (
        "text.txt", "codes.bpe", "src.ids", "top1.ids", "top1.txt"))
    _write(text, lines)
    assert run(["bpe-train", str(text), "--vocab-size", "40", "--model-out", str(codes)]) == 0
    model = bpe.load_model(codes)
    sources = [bpe.bpe_encode(model, line) for line in lines]
    eos_id = model.eos_id if eos == "bpe eos" else sources[0][-1]
    lm = models.ngram_train(sources, 2, vocab_size=model.vocab_size, eos_id=eos_id)
    lm_path = tmp_path / "lm.ngram"
    models.save_ngram_scorer(lm, lm_path)
    assert run(["bpe-encode", str(text), "--model", str(codes), "-o", str(src)]) == 0
    assert run(["decode", str(src), "--model", str(lm_path), "--beam", "4", "--max-len", "8",
                "-o", str(top1)]) == 0
    assert run(["bpe-decode", str(top1), "--model", str(codes), "-o", str(back)]) == 0

    cfg = DecodeConfig(beam_size=4, max_len=8)
    tops = [beam_search(lm, None, source, cfg)[0].tokens for source in sources]
    assert any(tokens[-1:] == (eos_id,) for tokens in tops)
    expected = [bpe.bpe_decode(model, strip_eos(tokens, eos_id)) for tokens in tops]
    assert _read(back) == expected
    if eos_id != model.eos_id:  # decoding the eos as a symbol would show
        assert expected != [bpe.bpe_decode(model, tokens) for tokens in tops]


def test_sample_k1_is_greedy(tmp_path):
    fwd_path = tmp_path / "fwd.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    src = tmp_path / "src.txt"
    _write(src, ["0", "0"])
    out = tmp_path / "out.txt"
    rc = run(["sample", str(src), "-o", str(out), "--model", str(fwd_path),
              "--k", "1", "--max-len", "4"])
    assert rc == 0
    assert _read(out) == ["0", "0"]  # greedy path is a, eos


def test_rerank_top1_matches_library(tmp_path):
    fwd = _fusion_fwd()
    fwd_path = tmp_path / "fwd.scorer"
    rev_path = tmp_path / "rev.scorer"
    lm_path = tmp_path / "lm.scorer"
    models.save_table_scorer(fwd, fwd_path)
    rev = TableScorer(["a", "b", "eos"], {}, [0.5, 0.3, 0.2])
    lm = TableScorer(["a", "b", "eos"], {}, [0.25, 0.25, 0.5])
    models.save_table_scorer(rev, rev_path)
    models.save_table_scorer(lm, lm_path)

    src = tmp_path / "src.txt"
    _write(src, ["0", "0"])
    dump = tmp_path / "dump.tsv"
    run(["decode", str(src), "--model", str(fwd_path), "--beam", "9",
         "--max-len", "2", "--n-candidates", "9", "--dump", str(dump),
         "-o", str(tmp_path / "ignored.txt")])

    top1 = tmp_path / "top1.txt"
    rc = run(["rerank", "--dump", str(dump), "--source", str(src),
              "--rev", str(rev_path), "--lm", str(lm_path), "--lam", "0.5",
              "--top1", "-o", str(top1)])
    assert rc == 0

    with open(dump, encoding="utf-8") as fh:
        cands_per_sentence = parse_candidates(fh)
    expected = []
    for cands in cands_per_sentence:
        best = noisy_channel_rerank(cands, rev, lm, 0.5, [0])[0]
        expected.append(" ".join(str(t) for t in best.tokens[:-1]))
    assert _read(top1) == expected


def test_rerank_top1_strips_the_target_eos(tmp_path):
    # the reverse model scores the source followed by its own (source-side)
    # eos; --top1 writes target hypotheses, so it strips the lm's eos
    rev_path, lm_path = tmp_path / "rev.ngram", tmp_path / "lm.ngram"
    models.save_ngram_scorer(models.ngram_train([[1, 2, 0]], 2, vocab_size=5, eos_id=4), rev_path)
    models.save_ngram_scorer(models.ngram_train([[1, 2]], 2, vocab_size=5, eos_id=3), lm_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    dump = tmp_path / "dump.tsv"
    _write(dump, ["0\t0\t-1.0\t-\t-\t-\t1,2,3"])
    top1 = tmp_path / "top1.txt"
    assert run(["rerank", "--dump", str(dump), "--source", str(src), "--rev", str(rev_path),
                "--lm", str(lm_path), "--lam", "0", "--top1", "-o", str(top1)]) == 0
    assert _read(top1) == ["1 2"]


def test_rerank_full_dump_output(tmp_path):
    fwd_path = tmp_path / "fwd.scorer"
    rev_path = tmp_path / "rev.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    models.save_table_scorer(
        TableScorer(["a", "b", "eos"], {}, [0.5, 0.3, 0.2]), rev_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    dump = tmp_path / "dump.tsv"
    run(["decode", str(src), "--model", str(fwd_path), "--beam", "9",
         "--max-len", "2", "--n-candidates", "9", "--dump", str(dump),
         "-o", str(tmp_path / "ignored.txt")])

    def rerank(out, *lam):
        return run(["rerank", "--dump", str(dump), "--source", str(src),
                    "--rev", str(rev_path), "--lm", str(rev_path), *lam, "-o", str(out)])

    ranked = tmp_path / "ranked.tsv"
    assert rerank(ranked, "--lam", "0.5") == 0
    with open(ranked, encoding="utf-8") as fh:
        parsed = parse_candidates(fh)
    assert len(parsed) == 1
    combined = [c.combined_score for c in parsed[0]]
    assert all(c is not None for c in combined)
    assert combined == sorted(combined, reverse=True)

    # --lam defaults to 0.6 and must not be negative
    assert rerank(tmp_path / "default.tsv") == 0
    assert rerank(tmp_path / "explicit.tsv", "--lam", "0.6") == 0
    assert (tmp_path / "default.tsv").read_bytes() == (tmp_path / "explicit.tsv").read_bytes()
    assert (tmp_path / "default.tsv").read_bytes() != ranked.read_bytes()
    assert rerank(tmp_path / "negative.tsv", "--lam", "-0.5") == 1
    assert not (tmp_path / "negative.tsv").exists()


def test_rerank_dump_source_count_mismatch(tmp_path, capsys):
    fwd_path = tmp_path / "fwd.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    dump = tmp_path / "dump.tsv"
    run(["decode", str(src), "--model", str(fwd_path), "--max-len", "2",
         "--dump", str(dump), "-o", str(tmp_path / "ignored.txt")])
    two_sources = tmp_path / "src2.txt"
    _write(two_sources, ["0", "0"])
    out = tmp_path / "ranked.tsv"
    rc = run(["rerank", "--dump", str(dump), "--source", str(two_sources),
              "--rev", str(fwd_path), "--lm", str(fwd_path), "-o", str(out)])
    assert rc == 1
    assert "error: LengthMismatchError: 1 dumped sentences vs 2 sources" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# scoring commands

def test_score_bleu_output_line(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    _write(hyp, ["the cat"])
    _write(ref, ["the cat sat"])
    out = tmp_path / "bleu.txt"
    sent = tmp_path / "sent.tsv"
    rc = run(["score-bleu", "--hyp", str(hyp), "--ref", str(ref),
              "-o", str(out), "--sentence-scores", str(sent)])
    assert rc == 0
    assert _read(out) == [
        "BLEU 60.6531 BP 0.6065 lens 2/3 precisions 1.0000 1.0000 1.0000 1.0000"
    ]
    assert _read(sent) == ["0\t60.6531"]


def test_dash_side_output_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "hyp.txt", ["the cat"])
    _write(tmp_path / "ref.txt", ["the cat sat"])
    assert run(["score-bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "-o", "bleu.txt",
                "--sentence-scores", "-"]) == 0
    assert capsys.readouterr().out == "0\t60.6531\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bleu.txt", "hyp.txt", "ref.txt"]


def test_oracle_bleu_picks_reference_match(tmp_path):
    per_sentence = [
        [
            Candidate(tokens=(1, 2), fwd_logprob=-1.0, fused_score=-1.0),
            Candidate(tokens=(0, 1, 2), fwd_logprob=-5.0, fused_score=-5.0),
        ],
        [
            Candidate(tokens=(1, 0, 2), fwd_logprob=-4.0, fused_score=-4.0),
            Candidate(tokens=(0, 2), fwd_logprob=-1.0, fused_score=-1.0),
        ],
    ]
    dump = tmp_path / "dump.tsv"
    _write(dump, format_candidates(per_sentence))
    ref = tmp_path / "ref.txt"
    _write(ref, ["0 1", "1 0"])
    out = tmp_path / "oracle.txt"
    sel = tmp_path / "selected.txt"
    rc = run(["oracle-bleu", "--dump", str(dump), "--ref", str(ref),
              "--eos-id", "2", "--selected", str(sel), "-o", str(out)])
    assert rc == 0
    assert _read(out) == ["oracle-BLEU 100.0000"]
    assert _read(sel) == ["0 1", "1 0"]


def test_tune_lambda_grid_output(tmp_path):
    fwd_path = tmp_path / "fwd.scorer"
    rev_path = tmp_path / "rev.scorer"
    lm_path = tmp_path / "lm.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    models.save_table_scorer(
        TableScorer(["a", "b", "eos"], {}, [0.5, 0.3, 0.2]), rev_path)
    models.save_table_scorer(_fusion_lm(), lm_path)
    src = tmp_path / "src.txt"
    ref = tmp_path / "ref.txt"
    _write(src, ["0"])
    _write(ref, ["0"])  # the plain beam winner, so (0, 0) scores 100
    out = tmp_path / "grid.tsv"
    rc = run(["tune-lambda", "--model", str(fwd_path), "--rev", str(rev_path),
              "--lm", str(lm_path), "--source", str(src), "--ref", str(ref),
              "--beam", "9", "--max-len", "2", "--n-candidates", "9",
              "--sf-grid", "0,0.1", "--ncr-grid", "0,0.5", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert len(lines) == 4
    assert lines[0] == "0.0\t0.0\t100.0000"
    for line in lines:
        sf, ncr, score = line.split("\t")
        assert float(sf) in (0.0, 0.1)
        assert float(ncr) in (0.0, 0.5)
        assert 0.0 <= float(score) <= 100.0


def test_rerank_out_of_vocab_dump_is_named_error(tmp_path, capsys):
    fwd_path = tmp_path / "fwd.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd_path)
    src = tmp_path / "src.txt"
    _write(src, ["0"])
    for bad in ("0,3,2", "-1,2"):
        dump = tmp_path / "dump.tsv"
        _write(dump, [f"0\t0\t-1.0\t-\t-\t-\t{bad}"])
        out = tmp_path / "out.txt"
        rc = run(["rerank", "--dump", str(dump), "--source", str(src),
                  "--rev", str(fwd_path), "--lm", str(fwd_path), "-o", str(out)])
        assert rc == 1
        assert "error: VocabMismatchError:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bad input: exit 1 with the kind of error, naming the file at fault

def _bad_input_argv(tmp_path, case, langid_file):
    """argv for `case` over small files in tmp_path, writing its output
    there too, and the start of the error line it must print."""
    out = str(tmp_path / "out.txt")
    fwd = tmp_path / "fwd.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd)
    ids = tmp_path / "ids.txt"
    _write(ids, ["0", "0"])
    dump = tmp_path / "dump.tsv"
    _write(dump, ["0\t0\t-1.0\t-\t-\t-\t0,2", "1\t0\t-1.0\t-\t-\t-\t0,2"])
    pairs = tmp_path / "pairs.tsv"
    _write(pairs, ["a\tb"])
    rerank = ["rerank", "--dump", str(dump), "--source", str(ids),
              "--rev", str(fwd), "--lm", str(fwd), "--top1", "-o", out]
    tune = ["tune-lambda", "--model", str(fwd), "--rev", str(fwd), "--lm", str(fwd),
            "--source", str(ids), "--ref", str(ids), "--beam", "2", "--max-len", "2", "-o", out]
    decode = ["decode", str(ids), "--model", str(fwd), "--max-len", "2", "-o", out]
    if case == "tokenize german-quotes without detok":
        return (["tokenize", str(pairs), "--german-quotes", "-o", out],
                "ConfigError: --german-quotes applies to --detok output only")
    if case == "filter langs without langid":
        return (["filter", str(pairs), "--langs", "en,ru", "-o", out],
                "ConfigError: --langid and --langs src,tgt are given together")
    if case == "reverse-target not utf-8":
        pairs.write_bytes(b"a b\tc d\n\xff\tx\n")
        return ["reverse-target", str(pairs), "-o", out], f"InputFormatError: {pairs}: 'utf-8' codec"
    if case == "rerank source not an int":
        _write(ids, ["1 2 x", "0"])
        return rerank, f"InputFormatError: {ids}: invalid literal for int()"
    if case == "oracle-bleu dump float":
        _write(dump, ["0\t0\tzz\t-\t-\t-\t0,2", "1\t0\t-1.0\t-\t-\t-\t0,2"])
        return (["oracle-bleu", "--dump", str(dump), "--ref", str(ids), "-o", out],
                f"InputFormatError: {dump}: could not convert string to float: 'zz'")
    if case.startswith("mix part "):
        spec = case.removeprefix("mix part ").format(pairs)
        return (["mix", "--part", spec, "--n", "2", "-o", out],
                f"ConfigError: --part {spec!r}: expected WEIGHT:PROVENANCE:PATH")
    if case == "tune-lambda grid":
        return tune + ["--sf-grid", "0,x"], "ConfigError: --sf-grid '0,x'"
    if case == "decode beam 0":
        return decode + ["--beam", "0"], "ConfigError: beam_size"
    if case.startswith(("decode alpha ", "tune-lambda alpha ")):
        argv = decode if case.startswith("decode") else tune
        value = case.split()[-1]
        return argv + ["--alpha", value], f"ConfigError: length_penalty_alpha must be finite, got {value}"
    if case == "decode fusion-lambda inf":
        return (decode + ["--fusion-lambda", "inf"],
                "ConfigError: fusion_lambda must be finite and >= 0, got inf")
    if case == "rerank lam inf":
        return rerank + ["--lam", "inf"], "ConfigError: lambda_ncr must be finite and >= 0, got inf"
    if case == "tune-lambda ncr-grid inf":
        return (tune + ["--ncr-grid", "0,inf"],
                "ConfigError: lambda_ncr must be finite and >= 0, got inf")
    if case == "mix n -1":
        return (["mix", "--part", f"1:bitext:{pairs}", "--n=-1", "-o", out],
                "ConfigError: sample size n must be >= 0, got -1")
    if case == "oracle-bleu eos-id -5":
        return (["oracle-bleu", "--dump", str(dump), "--ref", str(ids), "--eos-id=-5", "-o", out],
                "ConfigError: eos_id must be >= 0, got -5")
    if case == "avg-checkpoints table":
        return (["avg-checkpoints", str(fwd), "-o", out],
                f"ModelFormatError: {fwd}: tensor 'default': dtype f64, not f32")
    if case == "avg-checkpoints ngram":
        lm = tmp_path / "lm.ngram"
        models.save_ngram_scorer(models.ngram_train([[0, 1]], 2), lm)
        return (["avg-checkpoints", str(lm), "-o", out],
                f"ModelFormatError: {lm}: tensor 'counts.1': dtype i64, not f32")
    if case == "decode blank source line":
        _write(ids, ["0", "", "0"])
        return decode, f"EmptyInputError: {ids}: line 2 holds no source tokens"
    if case == "filter langs outside the model":  # langid_file knows en and ru
        return (["filter", str(pairs), "--langid", str(langid_file), "--langs", "en,de", "-o", out],
                f"ConfigError: --langs en,de: the langid model {langid_file} knows en ru, not de")
    if case.startswith("domain-select clf-"):
        flag, lang = case.removeprefix("domain-select ").split()
        clfs = {}
        for side in ("en", "ru"):
            clfs[side] = tmp_path / f"{side}.domcls"
            _write(clfs[side], [f"domcls-v1 {lang if flag == f'clf-{side}' else side}", "a\t1.0"])
        return (["domain-select", str(pairs), "--clf-en", str(clfs["en"]),
                 "--clf-ru", str(clfs["ru"]), "-o", out],
                f"ConfigError: --{flag} {clfs[flag[-2:]]}: holds a {lang!r} classifier")
    if case.startswith("filter langs "):
        langs = case.removeprefix("filter langs ")
        return (["filter", str(pairs), "--langid", str(langid_file), "--langs", langs, "-o", out],
                "ConfigError: required_langs needs two codes")
    if case.startswith("filter "):
        flag, value = case.removeprefix("filter ").split()
        return ["filter", str(pairs), flag, value, "-o", out], "ConfigError: min_len_tokens"
    if case == "avg-checkpoints deep header":
        deep = tmp_path / "deep.nmtc"
        deep.write_bytes(b"NMTC" + struct.pack("<IQ", 1, 200000) + b"[" * 200000)
        return (["avg-checkpoints", str(deep), "-o", out],
                f"ModelFormatError: {deep}: header JSON nests too deeply")
    if case.startswith(("langid-train code ", "domain-train lang ")):
        code = "" if case.endswith("empty") else "e n"
        if case.startswith("langid-train"):
            argv = ["langid-train", f"{code}={pairs}", f"ru={ids}"]
        else:
            argv = ["domain-train", "--positives", str(pairs), "--negatives", str(ids),
                    "--lang", code]
        return (argv + ["--model-out", out],
                f"ConfigError: language code {code!r} is empty or holds whitespace")
    command, option, value = case.split()
    if command in ("bpe-encode", "sample", "mix"):  # seed cases; bpe-encode draws with dropout only
        codes = tmp_path / "codes.bpe"
        bpe.save_model(bpe.bpe_train(["a b"], 10), codes)
        argv = {"bpe-encode": ["bpe-encode", str(pairs), "--model", str(codes), "--dropout", "0.3"],
                "sample": ["sample", str(ids), "--model", str(fwd)],
                "mix": ["mix", "--part", f"1:bitext:{pairs}", "--n", "2"]}[command]
        return argv + [f"--seed={value}", "-o", out], f"ConfigError: seed must be >= 0, got {value}"
    if command == "domain-train":
        argv = ["domain-train", "--positives", str(pairs), "--negatives", str(ids)]
    else:
        argv = ["langid-train", f"en={pairs}", f"ru={ids}"]
    argv += [f"--{option}={value}", "--model-out", out]
    if option == "features":
        return argv, "ConfigError: n_features must be positive, got 0"
    if option == "epochs":
        return argv, f"ConfigError: epochs must be at least 1, got {value}"
    if option == "seed":
        return argv, f"ConfigError: seed must be >= 0, got {value}"
    return argv, f"ConfigError: lr must be positive and finite, got {float(value)}"


@pytest.mark.parametrize("case", [
    "reverse-target not utf-8", "rerank source not an int", "oracle-bleu dump float",
    "mix part abc:bitext:{}", "mix part 1:nope:{}", "tune-lambda grid", "decode beam 0",
    "decode blank source line", "filter langs en", "filter langs en,ru,de",
    "filter --max-len -1", "filter --min-len -1", "filter --min-len 300",
    "avg-checkpoints deep header", "langid-train features 0", "langid-train epochs -1",
    "langid-train epochs 0", "langid-train lr nan", "langid-train lr 0",
    "domain-train epochs -3", "domain-train lr nan", "domain-train lr -inf",
    "decode alpha nan", "decode alpha inf", "tune-lambda alpha nan", "decode fusion-lambda inf",
    "rerank lam inf", "tune-lambda ncr-grid inf", "mix n -1", "oracle-bleu eos-id -5",
    "langid-train seed -1", "domain-train seed -1", "bpe-encode seed -2", "sample seed -1",
    "mix seed -3", "avg-checkpoints table", "avg-checkpoints ngram",
    "tokenize german-quotes without detok",
    "filter langs without langid", "filter langs outside the model",
    "domain-select clf-en ru", "domain-select clf-ru en", "domain-select clf-ru de",
    "langid-train code empty", "langid-train code with a space",
    "domain-train lang empty", "domain-train lang with a space",
])
def test_bad_input_is_named_error(tmp_path, capsys, langid_file, case):
    argv, expected = _bad_input_argv(tmp_path, case, langid_file)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {expected}")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_oracle_bleu_refuses_an_eos_id_that_ends_no_candidate(tmp_path, capsys):
    # the dump does not record the eos, but every completed candidate ends in
    # it; one candidate here has no tokens at all
    dump, ref, out = tmp_path / "dump.tsv", tmp_path / "ref.ids", tmp_path / "out.txt"
    _write(dump, ["0\t0\t-1.0\t-\t-\t-\t0,1,2", "0\t1\t-2.0\t-\t-\t-\t",
                  "1\t0\t-1.0\t-\t-\t-\t1,0,2"])
    _write(ref, ["0 1", "1 0"])
    argv = ["oracle-bleu", "--dump", str(dump), "--ref", str(ref), "-o", str(out), "--eos-id"]
    assert run(argv + ["2"]) == 0
    assert _read(out) == ["oracle-BLEU 100.0000"]
    out.unlink()
    capsys.readouterr()
    for eos in ("5", "1"):  # 1 is in the dump, but ends no candidate
        assert run(argv + [eos]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: ConfigError: --eos-id {eos}: no candidate in the dump {dump} ends in it")
        assert not out.exists()


def test_rerank_refuses_an_lm_whose_eos_ends_no_candidate(tmp_path, capsys):
    # the dump's candidates end in 3 but the lm's eos is 4: --top1 would keep
    # the dump's eos in its output, and the lm would score it as a word
    rev, lm, src = tmp_path / "rev.ngram", tmp_path / "lm.ngram", tmp_path / "src.txt"
    dump, out = tmp_path / "dump.tsv", tmp_path / "out.txt"
    models.save_ngram_scorer(models.ngram_train([[1, 2, 0]], 2, vocab_size=5, eos_id=4), rev)
    models.save_ngram_scorer(models.ngram_train([[1, 2]], 2, vocab_size=5, eos_id=4), lm)
    _write(src, ["0"])
    _write(dump, ["0\t0\t-1.0\t-\t-\t-\t1,3", "0\t1\t-2.0\t-\t-\t-\t"])
    argv = ["rerank", "--dump", str(dump), "--source", str(src), "--rev", str(rev),
            "--lm", str(lm), "-o", str(out)]
    for top1 in ([], ["--top1"]):
        assert run(argv + top1) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: ConfigError: --lm {lm} eos id 4: no candidate in the dump {dump} ends in it")
        assert not out.exists()
    _write(dump, ["0\t0\t-1.0\t-\t-\t-\t1,4"])
    assert run(argv + ["--top1"]) == 0
    assert _read(out) == ["1"]


def test_empty_input_writes_empty_dumps(tmp_path):
    # every line ends in its own newline, so no lines are no bytes, as with -o
    fwd, src, dump = tmp_path / "fwd.table", tmp_path / "src.ids", tmp_path / "dump.tsv"
    top, ranked = tmp_path / "top.txt", tmp_path / "ranked.tsv"
    models.save_table_scorer(_fusion_fwd(), fwd)
    src.write_bytes(b"")
    assert run(["decode", str(src), "--model", str(fwd), "--dump", str(dump),
                "-o", str(top)]) == 0
    assert run(["rerank", "--dump", str(dump), "--source", str(src), "--rev", str(fwd),
                "--lm", str(fwd), "-o", str(ranked)]) == 0
    assert [p.read_bytes() for p in (top, dump, ranked)] == [b"", b"", b""]


# (subcommand, output option) -> the rest of a run that succeeds, over the
# files _writer_files makes; the run writes that option's path and no other
# file. Each word is formatted after the split, so a path may hold a space.
_WRITERS = {
    ("normalize", "-o"): "normalize {text}",
    ("tokenize", "-o"): "tokenize {text}",
    ("bpe-train", "--model-out"): "bpe-train {text} --vocab-size 40",
    ("bpe-encode", "-o"): "bpe-encode {text} --model {codes}",
    ("bpe-decode", "-o"): "bpe-decode {bpe_ids} --model {codes}",
    ("filter", "-o"): "filter {pairs}",
    ("filter", "--report"): "filter {pairs}",
    ("langid-train", "--model-out"): "langid-train en={text} ru={ru} --features 64 --epochs 2",
    ("domain-train", "--model-out"): "domain-train --positives {text} --negatives {ru} --epochs 2",
    ("domain-select", "-o"): "domain-select {pairs} --clf-en {clf_en} --clf-ru {clf_ru}",
    ("mix", "-o"): "mix --part 1:bitext:{pairs} --n 3",
    ("reverse-target", "-o"): "reverse-target {pairs}",
    ("avg-checkpoints", "-o"): "avg-checkpoints {ckpt}",
    ("decode", "-o"): "decode {ids} --model {fwd} --beam 2 --max-len 3",
    ("decode", "--dump"): "decode {ids} --model {fwd} --beam 2 --max-len 3",
    ("sample", "-o"): "sample {ids} --model {fwd} --k 2 --max-len 3",
    ("rerank", "-o"): "rerank --dump {dump} --source {ids} --rev {fwd} --lm {fwd}",
    ("score-bleu", "-o"): "score-bleu --hyp {text} --ref {text}",
    ("score-bleu", "--sentence-scores"): "score-bleu --hyp {text} --ref {text}",
    ("oracle-bleu", "-o"): "oracle-bleu --dump {dump} --ref {ids}",
    ("oracle-bleu", "--selected"): "oracle-bleu --dump {dump} --ref {ids}",
    ("tune-lambda", "-o"): "tune-lambda --model {fwd} --rev {fwd} --lm {fwd} --source {ids} "
                           "--ref {ids} --beam 2 --max-len 3 --sf-grid 0 --ncr-grid 0,0.5",
}
# the streaming stages: their output option -> the input an empty file replaces
_STREAMING = {("normalize", "-o"): "text", ("tokenize", "-o"): "text",
              ("bpe-encode", "-o"): "text", ("bpe-decode", "-o"): "bpe_ids",
              ("filter", "-o"): "pairs", ("reverse-target", "-o"): "pairs"}


def _writer_files(tmp_path) -> dict:
    files = {name: tmp_path / name for name in (
        "text", "ru", "codes", "bpe_ids", "pairs", "clf_en", "clf_ru", "ckpt", "ids", "fwd",
        "dump")}
    _write(files["text"], ["the cat sat", "a dog ran"])
    _write(files["ru"], ["кошка сидит", "собака бежит"])
    model = bpe.bpe_train(["the cat sat"], 40)
    bpe.save_model(model, files["codes"])
    _write(files["bpe_ids"], [" ".join(map(str, bpe.bpe_encode(model, "the cat")))])
    _write(files["pairs"], ["the cat	cat the", "a dog	dog a"])
    _write(files["clf_en"], ["domcls-v1 en", "cat	5.0"])
    _write(files["clf_ru"], ["domcls-v1 ru", "cat	5.0"])
    models.save_checkpoint({"w": [1.0, 2.0]}, files["ckpt"])
    _write(files["ids"], ["0", "1"])
    models.save_table_scorer(_fusion_fwd(), files["fwd"])
    _write(files["dump"], ["0\t0\t-1.0\t-\t-\t-\t0,2", "1\t0\t-1.0\t-\t-\t-\t1,2"])
    return files


@pytest.mark.parametrize("command, option", list(_WRITERS),
                         ids=[f"{c} {o}" for c, o in _WRITERS])
def test_every_output_is_staged(tmp_path, capsys, monkeypatch, command, option):
    # a run whose write fails leaves no temporary file, and the path absent
    # or with its earlier bytes; a streaming stage writes no lines as 0 bytes
    files = _writer_files(tmp_path)
    out = tmp_path / "out"
    argv = [word.format(**files) for word in _WRITERS[command, option].split()]
    argv += [option, str(out)]
    before = sorted(p.name for p in tmp_path.iterdir())
    real_open = builtins.open
    staged_prefix = os.path.realpath(out) + ".tmp"

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        full = "w" in mode and str(file).startswith(staged_prefix)
        return FullDisk(fh, 1) if full else fh

    for earlier in (None, b"earlier bytes\n"):
        if earlier is not None:
            out.write_bytes(earlier)
        monkeypatch.setattr(builtins, "open", open_on_full_disk)
        assert run(argv) == 1
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: OSError: [Errno 28] No space left")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            before + ([] if earlier is None else ["out"]))
        assert (out.read_bytes() if out.exists() else None) == earlier

    assert run(argv) == 0
    assert out.read_bytes() not in (b"", b"earlier bytes\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["out"])
    if (command, option) in _STREAMING:
        files[_STREAMING[command, option]].write_bytes(b"")
        assert run(argv) == 0
        assert out.read_bytes() == b""


_OOM_SCRIPT = """\
import json, os, resource, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
limit = 512 << 20  # far above what mtkit needs here, far below 10**8 float64s
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from mtkit.cli import run
sys.exit(run(json.loads(sys.argv[1])))
"""


def _run_limited(argv):
    # runs `mtkit argv` in a child under the address-space limit and a wall-clock limit
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mtkit.__file__))}
    return subprocess.run([sys.executable, "-c", _OOM_SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=False, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
@pytest.mark.parametrize("stage", ["langid-train"])
def test_out_of_memory_is_a_named_error(tmp_path, stage):
    # Python raises MemoryError when an allocation passes the address-space
    # limit: langid-train builds a feature row of --features values
    en, ru = (str(tmp_path / n) for n in ("en.txt", "ru.txt"))
    _write(tmp_path / "en.txt", ["the cat sat"])
    _write(tmp_path / "ru.txt", ["кот сидел"])
    proc = _run_limited(["langid-train", f"en={en}", f"ru={ru}", "--features", "100000000",
                         "--model-out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: MemoryError: ")
    # no output file, staged or final
    assert sorted(p.name for p in tmp_path.iterdir()) == ["en.txt", "ru.txt"]


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
@pytest.mark.parametrize("stage", ["decode", "tune-lambda"])
def test_huge_max_len_decodes_like_a_small_one(tmp_path, stage):
    # decode cost follows the search, not --max-len: the early stop fires
    # long before 10**9 steps, and nothing is sized by --max-len
    fwd, ids = str(tmp_path / "fwd.table"), str(tmp_path / "ids")
    models.save_table_scorer(_fusion_fwd(), fwd)
    _write(tmp_path / "ids", ["0"])
    outputs = []
    for max_len in ("8", "1000000000"):
        out = tmp_path / f"out.{max_len}"
        argv = {
            "decode": ["decode", ids, "--model", fwd, "--max-len", max_len, "-o", str(out)],
            "tune-lambda": ["tune-lambda", "--model", fwd, "--rev", fwd, "--lm", fwd,
                            "--source", ids, "--ref", ids, "--max-len", max_len, "-o", str(out)],
        }[stage]
        proc = _run_limited(argv)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != b""


@pytest.mark.parametrize("n_features", [(1 << 32) + 1, 10 ** 15])
def test_langid_model_wider_than_crc32_is_named_error(tmp_path, capsys, n_features):
    # a CRC-32 hash indexes at most 2**32 features; the header is refused
    # before a weight matrix of its width is allocated
    model, pairs, out = tmp_path / "wide.langid", tmp_path / "pairs.tsv", tmp_path / "out.tsv"
    _write(model, [f"langid-v1 {n_features}", "langs en ru", "bias 0.0 0.0", "w 0 1.0 -1.0"])
    _write(pairs, ["the cat\tкот"])
    assert run(["filter", str(pairs), "--langid", str(model), "--langs", "en,ru",
                "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"error: ModelFormatError: {model}: n_features {n_features} "
                                    "exceeds 2**32, the most a CRC-32 hash can index")
    assert not out.exists()


@pytest.mark.parametrize("n_features", [(1 << 32) + 1, 10 ** 15])
def test_langid_train_wider_than_crc32_is_config_error(tmp_path, capsys, n_features):
    en, ru, out = tmp_path / "en.txt", tmp_path / "ru.txt", tmp_path / "langid.model"
    _write(en, ["the cat sat"])
    _write(ru, ["кот сидел"])
    assert run(["langid-train", f"en={en}", f"ru={ru}", "--features", str(n_features),
                "--model-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"error: ConfigError: n_features {n_features} "
                                    "exceeds 2**32, the most a CRC-32 hash can index")
    assert not out.exists()


@pytest.mark.parametrize("command", ["rerank", "oracle-bleu"])
def test_dump_indices_must_run_from_zero(tmp_path, capsys, command):
    fwd = tmp_path / "fwd.scorer"
    models.save_table_scorer(_fusion_fwd(), fwd)
    src = tmp_path / "src.txt"
    _write(src, ["0", "0"])
    dump = tmp_path / "dump.tsv"  # sentences 1 and 2 of a three-line source
    _write(dump, ["1\t0\t-1.0\t-\t-\t-\t0,2", "2\t0\t-2.0\t-\t-\t-\t1,2"])
    out = tmp_path / "out.txt"
    if command == "rerank":
        argv = ["rerank", "--dump", str(dump), "--source", str(src), "--rev", str(fwd),
                "--lm", str(fwd), "--top1"]
    else:
        argv = ["oracle-bleu", "--dump", str(dump), "--ref", str(src), "--eos-id", "2"]
    assert run(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert (f"error: InputFormatError: {dump}: dump sentence indices must run 0..n-1; "
            "0 is missing") in err
    assert not out.exists()


def test_stray_value_error_is_a_bug_not_an_exit_code(tmp_path, monkeypatch):
    # only named errors and OSError become exit 1; anything else is a defect
    # in mtkit and must surface as a traceback
    def cmd(args):
        raise ValueError("stray")

    monkeypatch.setattr("mtkit.cli.cmd_reverse_target", cmd)
    inp = tmp_path / "pairs.tsv"
    _write(inp, ["a\tb"])
    with pytest.raises(ValueError, match="stray"):
        run(["reverse-target", str(inp)])


# ---------------------------------------------------------------------------
# start-up

# A pipeline runs each stage as its own process, so a stage pays for every
# module it imports: where bytecode writing is off, each is compiled again
# per run. Each stage imports the mtkit modules it uses inside its own
# function, so a stage started in a fresh interpreter loads no other, and a
# stage that does no array math does not import numpy; rerank over n-gram
# models reads their containers straight into arrays. Only langid-train,
# which draws its initial weights from default_rng, loads numpy.random
# (about 6 MB of RSS). No stage loads dataclasses, which pulls in inspect;
# numpy imports inspect itself, so only the stages that load numpy may add it.
_TEXT, _BPE, _CORPUS = {"mtkit.textnorm"}, {"mtkit.bpe"}, {"mtkit.corpus"}
_SCORERS = {"mtkit.candidates", "mtkit.decode", "mtkit.models"}
_BLEU = {"mtkit.bleu"}
_RERANK = "rerank --dump {dump} --source {ids} --lm {lm} -o {out}"

# stage -> (argv, the mtkit modules it loads besides mtkit, mtkit.cli and
# mtkit.errors, whether it loads numpy)
_STAGES = {
    "normalize": ("normalize {text} -o {out}", _TEXT, False),
    # the nonbreaking-prefix lists are package data
    "tokenize": ("tokenize {text} -o {out}", _TEXT | {"mtkit.data"}, False),
    "bpe-train": ("bpe-train {tok} --vocab-size 40 --model-out {out}", _BPE, False),
    "bpe-encode": ("bpe-encode {tok} --model {codes} -o {out}", _BPE, False),
    "bpe-encode dropout": ("bpe-encode {tok} --model {codes} --dropout 0.1 -o {out}", _BPE, False),
    "bpe-decode": ("bpe-decode {enc} --model {codes} -o {out}", _BPE, False),
    "langid-train": ("langid-train en={text} ru={pairs} --epochs 2 --model-out {out}", _CORPUS,
                     True),
    "filter": ("filter {pairs} -o {out}", _CORPUS, False),
    "filter mono": ("filter {text} --mono -o {out}", _CORPUS, False),
    "filter langid": ("filter {pairs} --langid {langid} --langs en,ru -o {out}", _CORPUS, True),
    "domain-train": ("domain-train --positives {text} --negatives {pairs} --epochs 2 "
                     "--model-out {out}", {"mtkit.domain"}, True),
    "domain-select": ("domain-select {pairs} --clf-en {clf_en} --clf-ru {clf_ru} -o {out}",
                      _CORPUS | {"mtkit.domain"}, False),
    "domain-select final": ("domain-select {pairs} --clf-en {clf_en} --clf-ru {clf_ru} "
                            "--final 0.5 -o {out}", _CORPUS | {"mtkit.domain"}, False),
    "mix": ("mix --part 1:bitext:{pairs} --n 3 -o {out}", _CORPUS, False),
    "reverse-target": ("reverse-target {pairs} -o {out}", _CORPUS, False),
    # a table scorer is an array file
    "decode": ("decode {ids} --model {fwd} --dump {out}.dump -o {out}", _SCORERS, True),
    "decode lm": ("decode {ids} --model {fwd} --lm {lm} --fusion-lambda 0.1 --max-len 4 "
                  "--dump {out}.dump -o {out}", _SCORERS, True),
    "rerank": (_RERANK + " --rev {lm}", _SCORERS, False),
    "rerank top1": (_RERANK + " --rev {lm} --top1", _SCORERS, False),
    "rerank table rev": (_RERANK + " --rev {table}", _SCORERS, True),
    "score-bleu": ("score-bleu --hyp {text} --ref {text} -o {out}", _BLEU, False),
    "oracle-bleu": ("oracle-bleu --dump {dump} --ref {ids} --eos-id 2 -o {out}",
                    _BLEU | {"mtkit.candidates"}, False),
}


@pytest.fixture
def stage_files(tmp_path, langid_file):
    files = {name: tmp_path / name for name in (
        "text", "tok", "codes", "enc", "pairs", "ids", "dump", "fwd", "table", "lm", "clf_en",
        "clf_ru", "out")}
    _write(files["text"], ["Hello, world.", "A small test, again."])
    _write(files["tok"], ["Hello , world .", "A small test , again ."])
    model = bpe.bpe_train(["Hello , world .", "A small test , again ."], 40)
    bpe.save_model(model, files["codes"])
    _write(files["enc"], [" ".join(map(str, bpe.bpe_encode(model, "A small test")))])
    _write(files["pairs"], ["the cat sat\tкот сидел", "a dog\tпёс"])
    _write(files["ids"], ["0", "1"])
    _write(files["dump"], ["0\t0\t-1.0\t-\t-\t-\t0,2", "1\t0\t-1.0\t-\t-\t-\t1,2"])
    models.save_table_scorer(_fusion_fwd(), files["fwd"])
    models.save_table_scorer(TableScorer(["a", "b", "eos"], {}, np.ones(3) / 3), files["table"])
    models.save_ngram_scorer(models.ngram_train([[0, 0, 1], [1]], 3, vocab_size=3, eos_id=2),
                             files["lm"])
    for lang in ("en", "ru"):
        _write(files[f"clf_{lang}"], [f"domcls-v1 {lang}", "a\t2.0", "u\t1.5", "__bias__\t-0.5"])
    return {"langid": langid_file, **files}


@pytest.mark.parametrize("stage", list(_STAGES))
def test_stage_loads_only_its_modules(stage_files, stage):
    argv, modules, numpy = _STAGES[stage]
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "from mtkit.cli import run\n"
              "code = run(json.loads(sys.argv[1]))\n"
              "added = set(sys.modules) - before\n"
              "print(code, *(m in added for m in\n"
              "              ('numpy', 'numpy.random', 'inspect', 'dataclasses')),\n"
              "      *sorted(m for m in added if m.split('.')[0] == 'mtkit'))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mtkit.__file__))}
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(argv.format(**stage_files).split())],
                          capture_output=True, text=True, env=env, check=True)
    code, numpy_, numpy_random, inspect_, dataclasses, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert loaded == sorted({"mtkit", "mtkit.cli", "mtkit.errors", *modules})
    assert numpy_ == str(numpy)
    assert numpy_random == str(stage == "langid-train")
    assert dataclasses == "False"
    assert inspect_ == numpy_
