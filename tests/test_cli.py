"""End-to-end runs of the mtkit command line against small on-disk fixtures."""

import random

import numpy as np
import pytest

from mtkit import models, textnorm
from mtkit.cli import run
from mtkit.decode import (
    Candidate,
    DecodeConfig,
    beam_search,
    format_candidates,
    noisy_channel_rerank,
    parse_candidates,
)
from mtkit.models import TableScorer

from conftest import EN_WORDS, MED_EN, MED_RU, NEWS_EN, NEWS_RU, RU_WORDS, \
    make_domain_line, make_sentence


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

def test_no_args_is_usage_error():
    assert run([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


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
    assert "error: UnicodeDecodeError:" in capsys.readouterr().err
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
    textnorm.save_rules(textnorm.NormalizationRules.default(), rules_path)
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


_NGRAM = "ngram-v1 1 3 2\nfloor 0.01\nweights 1.0\ncount 0 1\n"
_TABLE = "tablescorer-v1\nvocab a b eos\neos eos\ndefault 0.25 0.25 0.5\n"
_LANGID = "langid-v1 16\nlangs en ru\nbias 0.0 0.0\nw 1 0.5 -0.5\n"
_DOMCLS = "domcls-v1 en\nfoo\t0.5\n"


@pytest.mark.parametrize("command, good, bad", [
    pytest.param("decode", _NGRAM, _NGRAM + "count 1\n", id="ngram count missing"),
    pytest.param("decode", _NGRAM, _NGRAM.replace("ngram-v1 1 3 2", "ngram-v1 3 x 4"),
                 id="ngram header not int"),
    pytest.param("decode", _NGRAM, _NGRAM + "count 1 -3\n", id="ngram negative count"),
    pytest.param("decode", _TABLE, _TABLE.replace("default 0.25 0.25 0.5", "default 0.5 zz"),
                 id="table default not float"),
    pytest.param("decode", _TABLE, _TABLE + "ctx 0|- 0.25 0.125 0.125\n",
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
    pytest.param("domain-select", _DOMCLS, _DOMCLS + "bar\tx\n", id="domcls weight not float"),
    pytest.param("domain-select", _DOMCLS, (_DOMCLS + "caf\xe9\t0.5\n").encode("latin-1"),
                 id="domcls not utf-8"),
])
def test_malformed_model_file_exits_1(tmp_path, capsys, command, good, bad):
    model = tmp_path / "model.txt"
    inp = tmp_path / "in.txt"
    _write(inp, ["0" if command == "decode" else "a b\tc d"])
    flag = {"decode": ["--model"], "normalize": ["--rules"],
            "filter": ["--langs", "en,ru", "--langid"],
            "domain-select": ["--clf-ru", str(model), "--clf-en"]}[command]
    out = tmp_path / "out.txt"
    argv = [command, str(inp), *flag, str(model), "-o", str(out)]
    model.write_text(good, encoding="utf-8")
    assert run(argv) == 0  # the same command runs with the well-formed model
    out.unlink()
    capsys.readouterr()
    model.write_bytes(bad if isinstance(bad, bytes) else bad.encode("utf-8"))
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "error: ModelFormatError:" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "model.txt"]


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
    assert "error: ValueError:" in capsys.readouterr().err


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


def test_mix_bad_part_spec(tmp_path, capsys):
    rc = run(["mix", "--part", "nocolons", "--n", "5"])
    assert rc == 1
    assert "error: ValueError:" in capsys.readouterr().err


def test_reverse_target_involution(tmp_path):
    inp = tmp_path / "pairs.tsv"
    once = tmp_path / "rev.tsv"
    twice = tmp_path / "rev2.tsv"
    _write(inp, ["a b c\tx y z\t0.5", "q r\tu v w"])
    assert run(["reverse-target", str(inp), "-o", str(once)]) == 0
    assert _read(once) == ["a b c\tz y x\t0.5", "q r\tw v u"]
    assert run(["reverse-target", str(once), "-o", str(twice)]) == 0
    assert twice.read_bytes() == inp.read_bytes()


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


def test_domain_select_long_out_of_domain_line(tmp_path, capsys):
    clf = tmp_path / "clf.domcls"
    clf.write_text("domcls-v1 en\ncell\t5.0\nvote\t-0.8\n__bias__\t0.0\n", encoding="utf-8")
    inp = tmp_path / "pairs.tsv"
    _write(inp, [" ".join(["vote"] * 1000) + "\tvote", "cell cell\tcell cell"])
    out = tmp_path / "selected.tsv"
    rc = run(["domain-select", str(inp), "-o", str(out),
              "--clf-en", str(clf), "--clf-ru", str(clf)])
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
        parsed = parse_candidates(fh, eos_id=fwd.eos_id)
    assert len(parsed) == 2
    for got_cands, want_cands in zip(parsed, expected):
        for got, want in zip(got_cands, want_cands):
            assert got.tokens == want.tokens
            assert got.fused_score == want.fused_score
            assert got.completed == want.completed


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
        cands_per_sentence = parse_candidates(fh, eos_id=rev.eos_id)
    expected = []
    for cands in cands_per_sentence:
        best = noisy_channel_rerank(cands, rev, lm, 0.5, [0])[0]
        expected.append(" ".join(str(t) for t in best.tokens[:-1]))
    assert _read(top1) == expected


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
        parsed = parse_candidates(fh, eos_id=2)
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
    rc = run(["rerank", "--dump", str(dump), "--source", str(two_sources),
              "--rev", str(fwd_path), "--lm", str(fwd_path)])
    assert rc == 1
    assert "error: ValueError:" in capsys.readouterr().err


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
