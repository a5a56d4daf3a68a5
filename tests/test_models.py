"""Checkpoint files and averaging, table and n-gram scorers, ensembling."""

import random
import struct
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit.errors import (
    EmptyInputError,
    ModelFormatError,
    NameSetMismatchError,
    ShapeMismatchError,
    VocabMismatchError,
)
from mtkit.models import (
    EnsembleScorer,
    NGramScorer,
    TableScorer,
    _read_header,
    average_checkpoint_files,
    load_scorer,
    ngram_train,
    save_checkpoint,
    save_ngram_scorer,
    save_table_scorer,
)

from conftest import (fuzz_variants, loads_or_names_file, make_table_scorer, nmtc_bytes,
                      table_container)
from scalar_reference import exact_search, ngram_from_counts, reference_checkpoint_mean


def _random_tensors(rng, names=("enc.w", "dec.w", "emb")):
    return {
        n: np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(2)], dtype=np.float32)
        for n in names
    }


def _save_all(tmp_path, tensor_sets, metadata=None):
    paths = []
    for i, tensors in enumerate(tensor_sets):
        path = tmp_path / f"c{i}.ckpt"
        save_checkpoint(tensors, path, metadata)
        paths.append(path)
    return paths


def _average_bytes(tmp_path, paths) -> bytes:
    out = tmp_path / "avg.ckpt"
    average_checkpoint_files(paths, out)
    return out.read_bytes()


def _saved_bytes(tmp_path, tensors, metadata=None) -> bytes:
    path = tmp_path / "expected.ckpt"
    save_checkpoint(tensors, path, metadata)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# checkpoint averaging


def test_average_hand_mean(tmp_path):
    paths = _save_all(tmp_path, [{"w": [1.0, 3.0]}, {"w": [3.0, 5.0]}])
    assert _average_bytes(tmp_path, paths) == _saved_bytes(
        tmp_path, {"w": np.array([2.0, 4.0], dtype=np.float32)}, {"source_count": 2})


def test_average_identical_checkpoints(tmp_path):
    rng = random.Random(0)
    tensors = _random_tensors(rng)
    paths = _save_all(tmp_path, [tensors] * 4, {"step": 7})
    assert _average_bytes(tmp_path, paths) == _saved_bytes(
        tmp_path, tensors, {"source_count": 4})


def test_average_single_checkpoint_identity(tmp_path):
    rng = random.Random(1)
    (path,) = _save_all(tmp_path, [_random_tensors(rng)], {"source_count": 1})
    assert _average_bytes(tmp_path, [path]) == path.read_bytes()


def test_average_permutation_invariance_bit_exact(tmp_path):
    rng = random.Random(2)
    paths = _save_all(tmp_path, [_random_tensors(rng) for _ in range(5)])
    base = _average_bytes(tmp_path, paths)
    order = list(range(5))
    for _ in range(6):
        rng.shuffle(order)
        assert _average_bytes(tmp_path, [paths[i] for i in order]) == base


def test_average_matches_scalar_reference(tmp_path):
    """An independent per-element loop gives the same output bytes."""
    rng = np.random.default_rng(5)
    shapes = {"a": (), "b": (1,), "c": (7,), "d": (3, 1), "e": (2, 3, 4), "f": (129,),
              "g": (16, 33)}
    for k in (1, 2, 3, 5, 8, 23):
        tensor_sets = [
            {name: (rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, shape))
             .astype(np.float32) for name, shape in shapes.items()}
            for _ in range(k)
        ]
        paths = _save_all(tmp_path, tensor_sets)
        expected = reference_checkpoint_mean(tensor_sets)
        assert _average_bytes(tmp_path, paths) == _saved_bytes(
            tmp_path, expected, {"source_count": k})


_SCORES = st.one_of(st.none(), st.integers(-3, 3),
                    st.sampled_from([-0.0, 0.0, 0.5, 2.5, -1e300]))


@settings(max_examples=30, deadline=None)
@given(scores=st.lists(_SCORES, min_size=1, max_size=6), top_k=st.integers(1, 8))
def test_average_top_k_is_the_best_by_score_then_path(tmp_path_factory, scores, top_k):
    # a missing score counts 0.0 and ties go to the smaller path; the chosen
    # files average to the bytes of averaging them alone, and on_chosen hears
    # them before the output exists
    tmp_path = tmp_path_factory.mktemp("top_k")
    rng = random.Random(len(scores))
    paths = [tmp_path / f"c{rng.randrange(3)}{i}.ckpt" for i in range(len(scores))]
    for path, score in zip(paths, scores):
        save_checkpoint(_random_tensors(rng), path,
                        None if score is None else {"validation_score": score})
    expected = sorted(paths, key=lambda p: (-float(scores[paths.index(p)] or 0.0), p))[:top_k]
    out, heard = tmp_path / "top.ckpt", []
    assert average_checkpoint_files(
        paths, out, top_k, on_chosen=lambda chosen: heard.append((chosen, out.exists()))
    ) == expected
    assert heard == [(expected, False)]
    assert out.read_bytes() == _average_bytes(tmp_path, expected)


def test_average_without_top_k_ignores_scores(tmp_path):
    paths = _save_all(tmp_path, [{"w": [1.0]}, {"w": [3.0]}], {"validation_score": "n/a"})
    heard = []
    assert average_checkpoint_files(paths, tmp_path / "avg.ckpt", on_chosen=heard.append) == paths
    assert heard == []


def test_average_shape_mismatch_names_tensor(tmp_path):
    paths = _save_all(tmp_path, [{"w": np.zeros(2)}, {"w": np.zeros(3)}])
    with pytest.raises(ShapeMismatchError) as err:
        average_checkpoint_files(paths, tmp_path / "avg.ckpt")
    assert "w" in str(err.value)


def test_average_name_set_mismatch(tmp_path):
    paths = _save_all(tmp_path, [{"w": np.zeros(2)}, {"v": np.zeros(2)}])
    with pytest.raises(NameSetMismatchError):
        average_checkpoint_files(paths, tmp_path / "avg.ckpt")


def test_average_empty_list(tmp_path):
    with pytest.raises(EmptyInputError):
        average_checkpoint_files([], tmp_path / "x.ckpt")


@pytest.mark.parametrize("earlier", [None, b"earlier output"])
def test_rejected_average_leaves_output_untouched(tmp_path, earlier):
    # the table's f64 payloads are rejected while the output is being written
    table = tmp_path / "fwd.table"
    save_table_scorer(make_table_scorer(3, 2, random.Random(3)), table)
    out = tmp_path / "avg.ckpt"
    if earlier is not None:
        out.write_bytes(earlier)
    with pytest.raises(ModelFormatError, match="dtype f64"):
        average_checkpoint_files([table], out)
    assert (out.read_bytes() if out.exists() else None) == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["fwd.table"] + (["avg.ckpt"] if earlier else []))


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_checkpoint_rejects_non_finite(tmp_path):
    path = tmp_path / "c.ckpt"
    # 1e39 is finite in f64 but not once converted to f32
    for value in (np.nan, np.inf, -np.inf, 1e39):
        with pytest.raises(ModelFormatError, match="non-finite"):
            save_checkpoint({"w": np.array([1.0, value])}, path)
        assert not path.exists()


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_file_roundtrip(tmp_path):
    rng = random.Random(3)
    tensors = _random_tensors(rng)
    tensors["scalar"] = np.float32(2.5).reshape(())
    metadata = {"step": 3, "validation_score": 0.75}
    (path,) = _save_all(tmp_path, [tensors], metadata)
    with open(path, "rb") as fh:
        assert _read_header(fh)[0] == metadata
    assert _average_bytes(tmp_path, [path]) == _saved_bytes(
        tmp_path, tensors, {"source_count": 1})


def test_checkpoint_save_deterministic(tmp_path):
    rng = random.Random(4)
    tensors = _random_tensors(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(tensors, p1, {"step": 3})
    save_checkpoint(tensors, p2, {"step": 3})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    for read in _checkpoint_readers(path, tmp_path):
        with pytest.raises(ModelFormatError):
            read()


def test_checkpoint_truncated_payload(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint({"w": np.zeros(8)}, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ModelFormatError, match="truncated"):
        average_checkpoint_files([path], tmp_path / "avg.ckpt")


def _checkpoint_readers(path, tmp_path):
    return [
        lambda: average_checkpoint_files([path, path], tmp_path / "avg.ckpt"),
        lambda: load_scorer(path),
        lambda: average_checkpoint_files([path, path], tmp_path / "avg.ckpt", top_k=1),
    ]


def test_non_f32_dtype_rejected_by_every_reader(tmp_path):
    entry = {"name": "w", "shape": [2], "dtype": "f16", "offset": 0}
    path = tmp_path / "f16.ckpt"
    path.write_bytes(nmtc_bytes({"metadata": {}, "tensors": [entry]}, b"\0" * 8))
    with pytest.raises(ModelFormatError, match="dtype"):
        average_checkpoint_files([path, path], tmp_path / "avg.ckpt")


def _entry(**changes):
    entry = {"name": "w", "shape": [2], "dtype": "f32", "offset": 0}
    entry.update(changes)
    return {k: v for k, v in entry.items() if v is not _MISSING}


_MISSING = object()

_BAD_CONTAINERS = {
    "magic only": b"NMTC",
    "short version": b"NMTC\x01",
    "short length": b"NMTC" + struct.pack("<I", 1) + b"\x05\x00",
    "length past end": b"NMTC" + struct.pack("<IQ", 1, 2**63) + b"{}",
    "version 2": nmtc_bytes({"tensors": []}, version=2),
    "not utf-8": nmtc_bytes(b'{"tensors": [], "x": "\xff"}'),
    "not json": nmtc_bytes(b'{"tensors": ['),
    "deep nesting": nmtc_bytes(b"[" * 200000),
    "json list": nmtc_bytes([]),
    "no tensors": nmtc_bytes({"metadata": {}}),
    "tensors not a list": nmtc_bytes({"tensors": {"w": 1}}),
    "metadata not an object": nmtc_bytes({"metadata": [1], "tensors": []}),
    "entry not an object": nmtc_bytes({"tensors": ["w"]}),
    "missing name": nmtc_bytes({"tensors": [_entry(name=_MISSING)]}),
    "int name": nmtc_bytes({"tensors": [_entry(name=3)]}),
    "missing shape": nmtc_bytes({"tensors": [_entry(shape=_MISSING)]}),
    "string shape": nmtc_bytes({"tensors": [_entry(shape="2")]}),
    "negative dim": nmtc_bytes({"tensors": [_entry(shape=[-2])]}),
    "float dim": nmtc_bytes({"tensors": [_entry(shape=[2.0])]}),
    "bool dim": nmtc_bytes({"tensors": [_entry(shape=[True])]}),
    "missing dtype": nmtc_bytes({"tensors": [_entry(dtype=_MISSING)]}),
    "null dtype": nmtc_bytes({"tensors": [_entry(dtype=None)]}),
    "missing offset": nmtc_bytes({"tensors": [_entry(offset=_MISSING)]}),
    "negative offset": nmtc_bytes({"tensors": [_entry(offset=-4)]}),
    "string offset": nmtc_bytes({"tensors": [_entry(offset="0")]}),
    "duplicate name": nmtc_bytes({"tensors": [_entry(), _entry(offset=8)]}, b"\0" * 16),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONTAINERS))
def test_malformed_header_raises_model_format_error(tmp_path, case):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_BAD_CONTAINERS[case])
    for read in _checkpoint_readers(path, tmp_path):
        with pytest.raises(ModelFormatError):
            read()


def test_huge_shape_is_a_truncated_payload(tmp_path):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(nmtc_bytes({"tensors": [_entry(shape=[2**40, 2**40])]}, b"\0" * 8))
    with pytest.raises(ModelFormatError, match="truncated"):
        average_checkpoint_files([path], tmp_path / "avg.ckpt")


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "nan.ckpt"
    for value in (np.nan, np.inf, -np.inf):
        payload = np.array([1, value], "<f4").tobytes()
        path.write_bytes(nmtc_bytes({"tensors": [_entry()]}, payload))
        with pytest.raises(ModelFormatError, match="non-finite"):
            average_checkpoint_files([path], tmp_path / "avg.ckpt")


def test_load_fuzzed_checkpoint_files(tmp_path):
    """Truncated or garbled checkpoint and table files are read or raise
    ModelFormatError, which starts with the path and names it once, in
    every reader."""
    rng = random.Random(12)
    tensors = _random_tensors(rng)
    tensors["scalar"] = np.float32(0.5)
    tensors["empty"] = np.zeros((0, 3), dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(tensors, path, {"step": 12, "validation_score": 0.5})
    checkpoint = path.read_bytes()
    save_table_scorer(make_table_scorer(3, 2, rng), path)
    table = path.read_bytes()
    readers = _checkpoint_readers(path, tmp_path)
    for data, loads in ((checkpoint, readers[0]), (table, readers[1])):
        variants = fuzz_variants(data, rng, b'0123456789-.,[]{}":fe', 400)
        succeeded = {read: 0 for read in readers}
        for blob in variants:
            path.write_bytes(blob)
            for read in readers:
                succeeded[read] += loads_or_names_file(read, path)
        # the reader the file was written for loads some variants, not all
        assert 0 < succeeded[loads] < len(variants)


# ---------------------------------------------------------------------------
# ensembling


class _FixedScorer:
    def __init__(self, vec, eos_id=None):
        self.vec = np.asarray(vec, dtype=np.float64)
        self.vocab_size = len(self.vec)
        self.eos_id = self.vocab_size - 1 if eos_id is None else eos_id

    def next_dist(self, source, prefix):
        return self.vec


def test_ensemble_single_scorer_identity():
    s = _FixedScorer([0.3, 0.7])
    out = EnsembleScorer([s]).next_dist((), ())
    assert np.allclose(out, [0.3, 0.7], atol=1e-7)


def test_ensemble_hand_mean():
    a = _FixedScorer([0.8, 0.2])
    b = _FixedScorer([0.2, 0.8])
    out = EnsembleScorer([a, b]).next_dist((), ())
    assert np.array_equal(out, np.array([0.5, 0.5]))


def test_ensemble_copies_equal_member():
    rng = random.Random(6)
    s = make_table_scorer(4, 2, rng)
    ens = EnsembleScorer([s, s, s])
    for prefix in [(), (0,), (1, 2)]:
        assert np.allclose(ens.next_dist((0, 1), prefix), s.next_dist((0, 1), prefix), atol=1e-7)


def test_ensemble_output_normalized_randomized():
    rng = random.Random(7)
    scorers = [make_table_scorer(5, 2, rng) for _ in range(3)]
    for prefix in [(), (0,), (2,), (0, 3)]:
        out = EnsembleScorer(scorers).next_dist((0, 1), prefix)
        assert abs(float(out.sum()) - 1.0) <= 1e-6
        assert np.all(out >= 0)


def test_ensemble_can_change_argmax():
    # ensembling does not commute with argmax for k >= 2
    a = _FixedScorer([0.6, 0.4, 0.0])
    b = _FixedScorer([0.0, 0.45, 0.55])
    out = EnsembleScorer([a, b]).next_dist((), ())
    assert int(np.argmax(a.vec)) == 0
    assert int(np.argmax(b.vec)) == 2
    assert int(np.argmax(out)) == 1


def test_ensemble_vocab_mismatch():
    with pytest.raises(VocabMismatchError):
        EnsembleScorer([_FixedScorer([1.0]), _FixedScorer([0.5, 0.5])])


def test_ensemble_empty():
    with pytest.raises(EmptyInputError):
        EnsembleScorer([])


def test_ensemble_scorer_eos_mismatch():
    a = _FixedScorer([0.5, 0.5], eos_id=0)
    b = _FixedScorer([0.5, 0.5], eos_id=1)
    with pytest.raises(VocabMismatchError, match="eos"):
        EnsembleScorer([a, b])


# ---------------------------------------------------------------------------
# table scorer


def test_table_listed_context_verbatim():
    vec = np.array([0.25, 0.25, 0.5])
    m = TableScorer(["a", "b", "eos"], {((0,), (1,)): vec}, np.ones(3) / 3)
    assert np.array_equal(m.next_dist((0,), (1,)), vec)
    assert np.array_equal(m.next_dist([0], [1]), vec)  # list keys work too


def test_table_unlisted_context_default():
    m = TableScorer(["a", "b", "eos"], {}, [0.2, 0.3, 0.5])
    assert np.array_equal(m.next_dist((9,), ()), np.array([0.2, 0.3, 0.5]))


def test_table_zero_eos_context_never_terminates_there():
    # eos mass 0 right after the empty prefix: no complete one-token
    # hypothesis (eos,) can exist; enumeration confirms
    from mtkit.decode import DecodeConfig, beam_search

    vocab = ["t0", "t1", "eos"]
    eos_id = 2
    table = {
        ((0,), ()): [0.5, 0.5, 0.0],
    }
    m = TableScorer(vocab, table, np.array([0.1, 0.1, 0.8]))
    cands = beam_search(m, None, (0,), DecodeConfig(beam_size=9, max_len=3, n_candidates=9))
    assert all(c.tokens != (eos_id,) for c in cands)
    best = exact_search(m, None, (0,), max_len=3)
    assert best.tokens != (eos_id,)


def test_table_validation_errors():
    with pytest.raises(ModelFormatError):
        TableScorer(["a", "a", "eos"], {}, [0.5, 0.0, 0.5])  # dup vocab
    with pytest.raises(ModelFormatError):
        TableScorer(["a", "b"], {}, [0.5, 0.5])  # no eos token
    with pytest.raises(ModelFormatError):
        TableScorer(["a", "eos"], {}, [0.9, 0.2])  # not normalized
    with pytest.raises(ModelFormatError):
        TableScorer(["a", "eos"], {}, [-0.1, 1.1])  # negative
    with pytest.raises(ModelFormatError):
        TableScorer(["a", "eos"], {((), ()): [1.0]}, [0.5, 0.5])  # wrong length


def test_table_save_load_roundtrip(tmp_path):
    rng = random.Random(8)
    m = make_table_scorer(4, 3, rng)
    path = tmp_path / "table.txt"
    save_table_scorer(m, path)
    loaded = load_scorer(path)
    assert loaded.vocab == m.vocab
    assert loaded.eos_id == m.eos_id
    assert set(loaded.table) == set(m.table)
    for key in m.table:
        assert np.array_equal(loaded.table[key], m.table[key])
    assert np.array_equal(loaded.default, m.default)


def test_load_scorer_dispatch(tmp_path):
    rng = random.Random(9)
    tpath = tmp_path / "t.txt"
    save_table_scorer(make_table_scorer(3, 2, rng), tpath)
    assert isinstance(load_scorer(tpath), TableScorer)

    npath = tmp_path / "n.txt"
    save_ngram_scorer(ngram_train([[0, 1, 2]], 2), npath)
    assert isinstance(load_scorer(npath), NGramScorer)

    bad = tmp_path / "bad.txt"
    bad.write_text("mystery-v9\n")
    with pytest.raises(ModelFormatError):
        load_scorer(bad)


def test_loaders_refuse_a_container_of_another_kind(tmp_path):
    # every scorer file is an NMTC container, so load_scorer tells the kinds
    # apart by the metadata and names the file it cannot read
    ckpt, text = tmp_path / "w.ckpt", tmp_path / "lm.txt"
    save_checkpoint({"w": [1.0, 2.0]}, ckpt)
    text.write_text("ngram-v2 1 3 2\nfloor 0.01\nweights 1.0\ngrams 1 0\ncounts 1 1\n")
    cases = [
        (ckpt, "metadata describes neither an n-gram model (order) nor a table scorer (vocab)"),
        (text, "bad magic b'ngra'"),
    ]
    for path, why in cases:
        with pytest.raises(ModelFormatError) as err:
            load_scorer(path)
        assert str(err.value) == f"{path}: {why}"


@pytest.fixture(scope="module")
def big_ngram(tmp_path_factory):
    """A trigram model of over 200,000 grams and its saved file."""
    rng = random.Random(5)
    m = ngram_train([[rng.randrange(50000) for _ in range(20)] for _ in range(5000)], 3)
    assert sum(len(counts) for _, counts in m.grams.values()) >= 200_000
    path = tmp_path_factory.mktemp("big") / "lm.ngram"
    save_ngram_scorer(m, path)
    return m, path


def _traced_peak(work):
    """work()'s result and the peak of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        result = work()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _gram_bytes(m) -> int:
    return sum(a.itemsize * len(a) for pair in m.grams.values() for a in pair)


def test_ngram_load_memory_follows_the_arrays(big_ngram):
    # each payload is read straight into its array('q') and the sort check
    # stops at the first gram out of order without copying the ids, so a
    # load allocates little beyond the arrays it returns (1.002x here; the
    # text loader took 5.9x, and a sort check that copies the id columns
    # takes about 1.9x)
    m, path = big_ngram
    loaded, peak = _traced_peak(lambda: load_scorer(path))
    assert loaded.grams == m.grams
    assert peak <= 1.5 * _gram_bytes(loaded), (peak, _gram_bytes(loaded))


def test_ngram_scoring_allocates_no_copy_of_the_grams(big_ngram):
    # scoring reads the loaded arrays through strided views, so the first
    # token_prob and next_dist allocate their spans and one vocab-sized
    # result, not a copy of the grams (about 0.2x here; a model that copies
    # its id columns and counts on first use takes about 1.8x)
    m, path = big_ngram
    loaded = load_scorer(path)
    ids = m.grams[3][0]
    prefix = tuple(ids[:2])  # a context with counts at every order
    (p, dist), peak = _traced_peak(
        lambda: (loaded.token_prob((1,), prefix, ids[2]), loaded.next_dist((1,), prefix)))
    assert p == dist[ids[2]] > m.floor
    assert peak <= 0.5 * _gram_bytes(loaded), (peak, _gram_bytes(loaded))
    with pytest.raises(BufferError):  # the views share the arrays' storage
        loaded.grams[3][1].append(0)


def _dists(n: int, vocab_n: int):
    """n probability vectors over vocab_n tokens, each normalized by numpy."""
    weights = st.lists(st.floats(0.0, 1.0), min_size=vocab_n, max_size=vocab_n)
    return st.lists(weights.filter(lambda w: sum(w) > 0), min_size=n, max_size=n).map(
        lambda rows: [np.array(w) / np.sum(w) for w in rows])


@st.composite
def _tables(draw):
    vocab_n = draw(st.integers(1, 5))
    ids = st.lists(st.integers(0, 2**31), max_size=3).map(tuple)
    contexts = draw(st.lists(st.tuples(ids, ids), max_size=6, unique=True))
    rows = draw(_dists(len(contexts) + 1, vocab_n))
    vocab = [f"w{i} \u00e9\"" for i in range(vocab_n - 1)] + ["eos"]
    return TableScorer(vocab, dict(zip(contexts, rows)), rows[-1])


@settings(max_examples=100, deadline=None)
@given(table=_tables())
def test_table_container_roundtrip_is_bit_exact(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.table"
    save_table_scorer(table, path)
    loaded = load_scorer(path)
    assert isinstance(loaded, TableScorer)
    assert (loaded.vocab, loaded.eos_id) == (table.vocab, table.eos_id)
    assert loaded.default.tobytes() == table.default.tobytes()
    assert list(loaded.table) == sorted(table.table)
    for key, row in table.table.items():
        assert loaded.table[key].tobytes() == row.tobytes()


def test_empty_table_roundtrip(tmp_path):
    path = tmp_path / "empty.table"
    save_table_scorer(TableScorer(["eos"], {}, [1.0]), path)
    loaded = load_scorer(path)
    assert loaded.table == {} and loaded.default.tobytes() == np.array([1.0]).tobytes()


_VOCAB = ["a", "eos"]
_ROW = [0.5, 0.5]
_CTX = [((0,), ())]

# case -> (file bytes, what the error names)
_BAD_TABLES = {
    "rows miss a context": (table_container(_VOCAB, _ROW, _CTX, []), "rows of shape"),
    "row for no context": (table_container(_VOCAB, _ROW, [], [_ROW]), "rows of shape"),
    "rows not a matrix": (nmtc_bytes({"metadata": {"vocab": _VOCAB, "eos": "eos", "contexts": []},
                                      "tensors": [_entry(name="default", dtype="f64"),
                                                  _entry(name="rows", dtype="f64", offset=16)]},
                                     np.array(_ROW * 2).tobytes()), "rows of shape"),
    "nan in a row": (table_container(_VOCAB, _ROW, _CTX, [[0.5, np.nan]]), "non-finite"),
    "inf in default": (table_container(_VOCAB, [np.inf, 0.5]), "non-finite"),
    "row sums to 0.75": (table_container(_VOCAB, _ROW, _CTX, [[0.5, 0.25]]), "sums to"),
    "row too short": (table_container(_VOCAB, _ROW, _CTX, [[1.0]]), "vector length"),
    "eos missing from vocab": (table_container(["a", "b"], _ROW), "missing from vocab"),
    "duplicate vocab token": (table_container(["a", "a", "eos"], [0.25, 0.25, 0.5]), "duplicate"),
    "duplicate context": (table_container(_VOCAB, _ROW, _CTX * 2, [_ROW, _ROW]), "duplicate"),
    "vocab not a list": (table_container("a eos", _ROW), "vocab"),
    "int token": (table_container(["a", 1], _ROW), "vocab"),
    "no eos": (table_container(_VOCAB, _ROW, eos=None), "eos"),
    "context not a pair": (table_container(_VOCAB, _ROW, [((0,), (), ())], [_ROW]), "contexts"),
    "float id": (table_container(_VOCAB, _ROW, [((0.0,), ())], [_ROW]), "contexts"),
    "f16 default": (table_container(_VOCAB, _ROW, default_dtype="f16"), "dtype"),
    # a table reads f64 only, the dtype save_table_scorer writes
    "f32 table": (nmtc_bytes({"metadata": {"vocab": _VOCAB, "eos": "eos", "contexts": []},
                              "tensors": [_entry(name="default"),
                                          _entry(name="rows", shape=[0, 2], offset=8)]},
                             np.array(_ROW, "<f4").tobytes()),
                  "tensor 'default': dtype f32, not f64"),
    "extra tensor": (nmtc_bytes({"metadata": {"vocab": _VOCAB, "eos": "eos", "contexts": []},
                                 "tensors": [_entry(name=n, dtype="f64")
                                             for n in ("default", "rows", "x")]},
                                np.array(_ROW).tobytes()), "expected tensors"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TABLES))
def test_malformed_table_container_raises_model_format_error(tmp_path, case):
    data, what = _BAD_TABLES[case]
    path = tmp_path / "bad.table"
    path.write_bytes(data)
    with pytest.raises(ModelFormatError, match=what) as info:
        load_scorer(path)
    assert str(info.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# n-gram scorer


def test_ngram_count_dominance():
    # corpus of repeated "a b c" (ids 0 1 2): b follows a every time
    m = ngram_train([[0, 1, 2]] * 20, order=2)
    dist = m.next_dist((), (0,))
    assert int(np.argmax(dist)) == 1
    assert all(dist[1] > dist[x] for x in range(m.vocab_size) if x != 1)


def test_ngram_conditionals_normalized():
    rng = random.Random(10)
    corpus = [[rng.randrange(5) for _ in range(rng.randint(1, 8))] for _ in range(60)]
    m = ngram_train(corpus, order=3)
    for _ in range(40):
        prefix = tuple(rng.randrange(m.vocab_size) for _ in range(rng.randint(0, 4)))
        dist = m.next_dist((), prefix)
        assert abs(float(dist.sum()) - 1.0) <= 1e-6
        assert np.all(dist >= 0)


def test_ngram_unseen_context_full_support():
    m = ngram_train([[0, 1, 2]] * 5, order=2)
    dist = m.next_dist((), (2, 2, 2))  # bigram context (2,) seen, but check floor anyway
    assert np.all(dist >= m.floor)
    never_seen = m.next_dist((), (m.vocab_size - 1,))
    assert np.all(never_seen >= m.floor)
    assert abs(float(never_seen.sum()) - 1.0) <= 1e-6


def test_ngram_eos_appended():
    m = ngram_train([[0, 1]] * 10, order=2)
    assert m.eos_id == 2
    dist = m.next_dist((), (1,))
    assert int(np.argmax(dist)) == m.eos_id


def test_ngram_train_validation():
    with pytest.raises(EmptyInputError):
        ngram_train([], order=2)
    with pytest.raises(EmptyInputError):
        ngram_train([[]], order=2)
    with pytest.raises(ValueError):
        ngram_train([[0, 1]], order=0)
    with pytest.raises(ModelFormatError):
        ngram_from_counts(2, 4, 3, {}, [0.5, 0.5], floor=0.5)  # floor * V >= 1
    with pytest.raises(ModelFormatError):
        ngram_from_counts(2, 4, 3, {}, [0.5], floor=1e-4)  # weight count != order
    with pytest.raises(ModelFormatError):
        ngram_from_counts(2, 4, 3, {}, [1e308, 1e308], floor=1e-4)  # weight sum overflows
    with pytest.raises(ValueError):
        ngram_train([[0, 2 ** 63]], order=2)  # id outside int64
    with pytest.raises(ValueError):
        ngram_train([[0, 1.5]], order=2)  # not an integer id


@pytest.mark.parametrize("grams, why", [
    pytest.param({1: (array("q", [0, 1]), array("q", [-5, 2]))}, "tensor 'counts.1': negative count",
                 id="negative count"),
    pytest.param({3: (array("q", [0, 1, 2]), array("q", [1]))}, "gram length 3 outside [1, 2]",
                 id="gram length above order"),
    pytest.param({-1: (array("q"), array("q", [1]))}, "gram length -1 outside [1, 2]",
                 id="negative gram length"),
    pytest.param({0: (array("q"), array("q", [1]))}, "gram length 0 outside [1, 2]",
                 id="empty gram"),
    pytest.param({2: (array("q", [0, 1, 2]), array("q", [1]))}, "3 ids for 1 2-grams, not 2 per gram",
                 id="ids not k per count"),
])
def test_ngram_constructor_checks_the_layout(grams, why):
    # a negative count would give next_dist entries below 0 and above 1,
    # against the Scorer contract that beam search's early stop relies on
    with pytest.raises(ModelFormatError) as err:
        NGramScorer(2, 4, 3, grams, [0.5, 0.5], 1e-3)
    assert str(err.value) == why


def test_ngram_save_load_roundtrip(tmp_path):
    rng = random.Random(11)
    corpus = [[rng.randrange(4) for _ in range(rng.randint(1, 6))] for _ in range(30)]
    m = ngram_train(corpus, order=3)
    path = tmp_path / "lm.txt"
    save_ngram_scorer(m, path)
    loaded = load_scorer(path)
    assert (loaded.order, loaded.vocab_size, loaded.eos_id) == (m.order, m.vocab_size, m.eos_id)
    assert loaded.floor == m.floor and loaded.weights == m.weights
    assert loaded.grams == m.grams
    for _ in range(20):
        prefix = tuple(rng.randrange(m.vocab_size) for _ in range(rng.randint(0, 3)))
        assert np.array_equal(loaded.next_dist((), prefix), m.next_dist((), prefix))


def test_ngram_train_deterministic():
    corpus = [[0, 1, 2, 1], [1, 2], [0, 0, 1]]
    a = ngram_train(corpus, order=2)
    b = ngram_train([list(s) for s in corpus], order=2)
    assert a.grams == b.grams and a.weights == b.weights and a.floor == b.floor
