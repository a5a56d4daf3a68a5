"""Scorers, checkpoint storage and averaging, and probability ensembling.

Neural forward passes are out of scope. Two deterministic scorers realize
the next-token interface instead: TableScorer (explicit conditional
distributions, enumerable by brute force) and NGramScorer (interpolated
count model over a monolingual corpus). Everything a decoder consumes goes
through Scorer.next_dist (the whole distribution, for beam search and
sampling) or Scorer.token_prob (one entry of it, for re-ranking), so the
decoders never know which kind of model is behind them.

Every model file is an NMTC container: checkpoints (f32), table scorers
(f64) and n-gram models (i64), each payload read by _read_array straight
into an array. numpy is imported inside the functions that do array math.
Training and saving an n-gram model use numpy; loading one and its
token_prob do not, so `mtkit rerank` over n-gram models starts without
loading numpy.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, compress, count
from operator import lt, not_
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    EmptyInputError,
    ModelFormatError,
    NameSetMismatchError,
    ShapeMismatchError,
    VocabMismatchError,
    naming,
    staged,
)

if TYPE_CHECKING:
    import numpy as np

_NORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# checkpoints

# Container: magic NMTC, u32 version, u64 header length, a JSON header
# {"metadata": {...}, "tensors": [{"name", "shape", "dtype", "offset"}, ...]},
# then raw little-endian payloads of one dtype in _DTYPES, in sorted-name
# order; offsets count from the end of the header.
_MAGIC = b"NMTC"
_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")
# dtype -> (numpy dtype string of the file's bytes, array typecode in memory)
_DTYPES = {"f32": ("<f4", "f"), "f64": ("<f8", "d"), "i64": ("<i8", "q")}


def _write_checkpoint(path, metadata: dict, shapes: dict, tensor, dtype: str = "f32") -> None:
    """Write a container of `dtype` tensors named and shaped by `shapes`.

    tensor(name) supplies each payload, called once per name in sorted
    order just before it is written, so a caller can compute tensors one
    at a time instead of holding them all. The file is staged: `path` is
    replaced only once every tensor is written, so a tensor(name) that
    raises leaves it as it was.
    """
    import numpy as np
    np_dtype = np.dtype(_DTYPES[dtype][0])
    names = sorted(shapes)
    entries = []
    offset = 0
    for name in names:
        shape = list(shapes[name])
        entries.append({"name": name, "shape": shape, "dtype": dtype, "offset": offset})
        offset += math.prod(shape) * np_dtype.itemsize
    header = json.dumps(
        {"metadata": metadata, "tensors": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with staged(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(tensor(name), dtype=np_dtype))


def save_checkpoint(tensors: dict, path, metadata: dict | None = None) -> None:
    """Write name -> array tensors as f32 in an NMTC container (layout above).

    The same tensors and metadata always give the same bytes. A value that
    is not finite once converted to f32 raises ModelFormatError before the file
    is opened.
    """
    import numpy as np
    tensors = {name: np.asarray(arr, dtype=np.float32) for name, arr in tensors.items()}
    for name, arr in tensors.items():
        if not np.all(np.isfinite(arr)):
            raise ModelFormatError(f"tensor {name!r} contains non-finite values")
    shapes = {name: arr.shape for name, arr in tensors.items()}
    _write_checkpoint(path, metadata or {}, shapes, tensors.__getitem__)


def _file_size(fh) -> int:
    return os.fstat(fh.fileno()).st_size


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice raises ModelFormatError
    rather than silently taking the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ModelFormatError(f"header repeats the key {key!r}")
        obj[key] = value
    return obj


def _read_header(fh) -> tuple[dict, list[dict], int]:
    """Parse and check the header; return (metadata, tensor entries, payload start).

    Any defect raises ModelFormatError (ValueError if not UTF-8 JSON), to be
    named by the caller's `naming`: short or wrong magic, version and length
    fields, a header that is not a UTF-8 JSON object or nests too deeply to
    parse, a key repeated in one of its objects, or a tensor entry without a
    string name and dtype, a list of non-negative int dimensions as shape,
    and a non-negative int offset. Payloads are not read here.
    """
    prefix = fh.read(_PREFIX.size)
    if prefix[:4] != _MAGIC:
        raise ModelFormatError(f"bad magic {prefix[:4]!r}")
    if len(prefix) < _PREFIX.size:
        raise ModelFormatError("truncated header prefix")
    _, version, hlen = _PREFIX.unpack(prefix)
    if version != _VERSION:
        raise ModelFormatError(f"unsupported version {version}")
    payload_start = _PREFIX.size + hlen
    if payload_start > _file_size(fh):
        raise ModelFormatError("header runs past the end of the file")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"), object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ModelFormatError("header JSON nests too deeply") from None
    if not isinstance(header, dict):
        raise ModelFormatError("header is not a JSON object")
    metadata = header.get("metadata", {})
    entries = header.get("tensors")
    if not isinstance(metadata, dict) or not isinstance(entries, list):
        raise ModelFormatError("header needs a metadata object and a tensors list")
    names = set()
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("dtype"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_count(d) for d in entry["shape"])
            and _is_count(entry.get("offset"))
        ):
            raise ModelFormatError(f"malformed tensor entry {entry!r}")
        if entry["name"] in names:
            raise ModelFormatError(f"duplicate tensor {entry['name']!r}")
        names.add(entry["name"])
    return metadata, entries, payload_start


def _read_array(fh, payload_start: int, entry: dict, dtype: str) -> array:
    """Read the payload of a checked header entry straight into an array of
    `dtype`, with no object per number. An entry of another dtype or a
    payload past the end of the file raises ModelFormatError naming the
    tensor; the size is checked before anything is allocated."""
    if entry["dtype"] != dtype:
        raise ModelFormatError(f"tensor {entry['name']!r}: dtype {entry['dtype']}, not {dtype}")
    typecode = _DTYPES[dtype][1]
    n = math.prod(entry["shape"])
    start = payload_start + entry["offset"]
    if start + n * array(typecode).itemsize > _file_size(fh):
        raise ModelFormatError(f"truncated payload for {entry['name']!r}")
    values = array(typecode, [0]) * n
    fh.seek(start)
    fh.readinto(values)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _read_floats(fh, payload_start: int, entry: dict, dtype: str) -> np.ndarray:
    """_read_array's payload as a numpy view in the entry's shape; a
    non-finite value raises ModelFormatError."""
    import numpy as np
    values = _read_array(fh, payload_start, entry, dtype)
    arr = np.frombuffer(values, dtype=values.typecode).reshape(entry["shape"])
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"tensor {entry['name']!r} contains non-finite values")
    return arr


def checkpoint_metadata(path) -> dict:
    """Read just the metadata block, leaving payloads untouched."""
    with naming(path, ModelFormatError), open(path, "rb") as fh:
        metadata, _, _ = _read_header(fh)
    return metadata


def average_checkpoint_files(paths: list, out_path) -> None:
    """Average checkpoint files tensor by tensor into out_path.

    The files must share tensor names and shapes. Each output element is
    the mean of its k input values, summed in f64 after sorting, so the
    output bytes do not depend on the order of paths; its metadata is
    {"source_count": k}. Every tensor must be f32. Only k copies of one
    tensor are resident at a time, so memory is bounded by the largest
    tensor rather than the full checkpoint size. Payloads are checked as
    they are written; the writer stages its file, so a rejected input
    leaves out_path as it was.
    """
    import numpy as np
    if not paths:
        raise EmptyInputError("no checkpoint files given")
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "rb")) for p in paths]
        headers = []
        for fh, p in zip(handles, paths):
            with naming(p, ModelFormatError):
                headers.append(_read_header(fh))
        entry_maps = [{e["name"]: e for e in entries} for _, entries, _ in headers]
        shapes = {name: e["shape"] for name, e in entry_maps[0].items()}
        for entries in entry_maps[1:]:
            if set(entries) != set(shapes):
                diff = sorted(set(entries) ^ set(shapes))
                raise NameSetMismatchError(f"tensor name sets differ (symmetric diff: {diff})")
            for name, e in entries.items():
                if e["shape"] != shapes[name]:
                    raise ShapeMismatchError(f"shape mismatch for tensor {name!r}: "
                                             f"{tuple(shapes[name])} vs {tuple(e['shape'])}")

        def mean(name: str) -> np.ndarray:
            values = []
            for fh, p, (_, _, payload_start), entries in zip(handles, paths, headers, entry_maps):
                with naming(p, ModelFormatError):
                    values.append(_read_floats(fh, payload_start, entries[name], "f32"))
            values = np.array(values, dtype=np.float64)
            values.sort(axis=0)
            return (values.sum(axis=0) / len(paths)).astype(np.float32)

        _write_checkpoint(out_path, {"source_count": len(paths)}, shapes, mean)


# ---------------------------------------------------------------------------
# scorers

class Scorer:
    """Interface: vocab_size, eos_id, and a conditional next-token distribution.

    next_dist(source, prefix) returns a probability vector over the vocab,
    non-negative and summing to 1 within 1e-6, deterministic for fixed
    inputs. Unconditional scorers (language models) ignore source.
    token_prob(source, prefix, tok) returns entry tok of that vector, for
    a tok in [0, vocab_size); a scorer that can compute one entry without
    the whole vector overrides it, and must return the same float.
    """

    vocab_size: int
    eos_id: int

    def next_dist(self, source, prefix) -> np.ndarray:
        raise NotImplementedError

    def token_prob(self, source, prefix, tok: int) -> float:
        return float(self.next_dist(source, prefix)[tok])


def _check_dist(vec: np.ndarray, what: str) -> np.ndarray:
    import numpy as np
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ModelFormatError(f"{what}: expected 1-d vector")
    if not np.all(vec >= 0):  # false for NaN too; an infinity fails the sum check
        raise ModelFormatError(f"{what}: negative or NaN probability")
    if abs(float(vec.sum()) - 1.0) > _NORM_TOL:
        raise ModelFormatError(f"{what}: sums to {vec.sum():.9f}, not 1")
    vec.setflags(write=False)
    return vec


class TableScorer(Scorer):
    """Explicit conditional table over a tiny vocab; the brute-force oracle model.

    Contexts are (source ids, prefix ids) pairs; unlisted contexts fall back
    to the default vector.
    """

    def __init__(self, vocab: list[str], table: dict, default, eos_token: str = "eos"):
        if len(set(vocab)) != len(vocab):
            raise ModelFormatError("duplicate tokens in vocab")
        if eos_token not in vocab:
            raise ModelFormatError(f"eos token {eos_token!r} missing from vocab")
        self.vocab = list(vocab)
        self.vocab_size = len(vocab)
        self.eos_token = eos_token
        self.eos_id = self.vocab.index(eos_token)
        self.default = _check_dist(default, "default vector")
        if len(self.default) != self.vocab_size:
            raise ModelFormatError("default vector length != vocab size")
        self.table = {}
        for (src, prefix), vec in table.items():
            vec = _check_dist(vec, f"context {(src, prefix)}")
            if len(vec) != self.vocab_size:
                raise ModelFormatError(f"context {(src, prefix)}: vector length != vocab size")
            self.table[(tuple(src), tuple(prefix))] = vec

    def next_dist(self, source, prefix) -> np.ndarray:
        return self.table.get((tuple(source), tuple(prefix)), self.default)


def save_table_scorer(m: TableScorer, path) -> None:
    """Write m as an NMTC container (layout above) of f64 payloads, so every
    value loads back bit for bit: `default` (V) and `rows` (contexts x V,
    in sorted context order). The metadata holds the vocab, the eos token
    and the contexts as [[source ids], [prefix ids]] pairs."""
    import numpy as np
    keys = sorted(m.table)
    contexts = [[[int(i) for i in src], [int(i) for i in prefix]] for src, prefix in keys]
    tensors = {"default": m.default,
               "rows": np.array([m.table[k] for k in keys]).reshape(len(keys), m.vocab_size)}
    _write_checkpoint(path, {"vocab": m.vocab, "eos": m.eos_token, "contexts": contexts},
                      {name: arr.shape for name, arr in tensors.items()}, tensors.__getitem__, "f64")


def _table_from(fh, metadata: dict, entries: list, payload_start: int) -> TableScorer:
    """The table scorer of a container whose header is read; its tensors
    must be f64, the dtype save_table_scorer writes."""
    vocab, eos, contexts = (metadata.get(k) for k in ("vocab", "eos", "contexts"))
    if not (isinstance(vocab, list) and all(isinstance(t, str) for t in (*vocab, eos))):
        raise ModelFormatError("metadata needs a vocab list of strings and an eos string")
    if not (isinstance(contexts, list) and all(
            isinstance(c, list) and len(c) == 2
            and all(isinstance(ids, list) and all(type(i) is int for i in ids) for ids in c)
            for c in contexts)):
        raise ModelFormatError("metadata contexts must be [[source ids], [prefix ids]] pairs")
    tensors = {e["name"]: _read_floats(fh, payload_start, e, "f64") for e in entries}
    if set(tensors) != {"default", "rows"}:
        raise ModelFormatError(f"expected tensors ['default', 'rows'], got {sorted(tensors)}")
    default, rows = tensors["default"], tensors["rows"]
    if rows.ndim != 2 or len(rows) != len(contexts):
        raise ModelFormatError(f"rows of shape {rows.shape} for {len(contexts)} contexts")
    table = {(tuple(src), tuple(prefix)): row for (src, prefix), row in zip(contexts, rows)}
    if len(table) != len(contexts):
        raise ModelFormatError("duplicate contexts")
    return TableScorer(vocab, table, default, eos_token=eos)


class NGramScorer(Scorer):
    """Interpolated n-gram language model with a probability floor.

    Per-order maximum-likelihood estimates are mixed with fixed weights;
    orders whose context was never seen drop out and the remaining weights
    renormalize. The floor redistributes a little mass to every token so
    the support is full: P = (1 - floor * V) * P_interp + floor.

    Order k uses the last k-1 prefix tokens as its context. A prefix shorter
    than order-1 is not padded: the top orders reuse the whole (shorter)
    prefix, so an empty prefix scores every order with the unigram context.

    Layout, as in KenLM: the constructor takes grams, which maps each gram
    length k in [1, order] that occurs to (ids, counts), two array('q'); ids
    holds the k ids of each gram, the grams in sorted order, and counts one
    non-negative count per gram, as ngram_train builds them and an n-gram
    container holds them (one grams and one counts tensor per length). The
    constructor checks all of this but the order of the grams, which the
    loader checks, since its input comes from outside. These arrays are the
    model's only storage: scoring reads them through views, which lock them,
    so they cannot be resized (append raises BufferError) while the model
    holds them.

    Scoring reads per-context spans (KenLM's state). A context shorter than
    `order` with a non-zero total count has a span (k, lo, hi, total), found
    on its first use by bisecting the sorted k-grams, k = len(ctx) + 1, one
    strided id column at a time, then kept; a context without counts is
    searched again each time, so no more spans are kept than the model has
    contexts. Sorting puts a context's grams side by side, by last id, so
    [lo, hi) indexes those whose last id lies in [0, V); grams with another
    last id count toward the total but score no token (an out-of-vocab
    1-gram reserves mass for the empty context this way). next_dist and
    token_prob walk the same spans (_walk): next_dist adds a span's counts
    with numpy; token_prob finds one count by a bisect in the span, without
    numpy, by the same operations in the same order as next_dist performs
    for that token, so it returns the same float.

    given_weights keeps the weights as passed in; weights holds them divided
    by their sum. A second division need not give the same floats, so the
    model file stores given_weights.
    """

    def __init__(self, order: int, vocab_size: int, eos_id: int, grams: dict,
                 weights, floor: float):
        if order < 1:
            raise ModelFormatError("order must be >= 1")
        if not 0 <= eos_id < vocab_size:
            raise ModelFormatError("eos_id out of range")
        weights = [float(w) for w in weights]
        # NaN or infinite weights, and weights whose sum overflows, fail the sum check
        if (len(weights) != order or any(w < 0 for w in weights)
                or not 0 < sum(weights) < math.inf):
            raise ModelFormatError("need one non-negative weight per order, with a finite sum above 0")
        if not 0 < floor * vocab_size < 1:
            raise ModelFormatError("floor * vocab_size must lie in (0, 1)")
        for k, (ids, counts) in grams.items():
            if not 1 <= k <= order:
                raise ModelFormatError(f"gram length {k} outside [1, {order}]")
            if len(ids) != k * len(counts):
                raise ModelFormatError(f"{len(ids)} ids for {len(counts)} {k}-grams, not {k} per gram")
            if counts and min(counts) < 0:
                raise ModelFormatError(f"tensor 'counts.{k}': negative count")
        self.order = order
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.given_weights = weights
        self.weights = [w / sum(weights) for w in weights]
        self.floor = float(floor)
        self.grams = grams
        # k -> the k id columns of the k-grams, strided views of grams[k][0]
        self._columns = {k: [memoryview(ids)[j::k] for j in range(k)]
                         for k, (ids, _) in grams.items()}
        self._spans: dict[tuple, tuple] = {}  # context -> span, kept once found
        self._dense: dict = {}  # k -> last ids and counts as numpy views, for next_dist

    def _span(self, ctx: tuple) -> tuple | None:
        """The span of a context shorter than order, searched for and kept,
        or None when its total count is 0 (see the class docstring)."""
        k = len(ctx) + 1
        cols = self._columns.get(k)
        if not cols:
            return None
        lo, hi = 0, len(cols[0])
        for col, i in zip(cols, ctx):  # the grams in [lo, hi) share ctx up to col
            lo, hi = bisect_left(col, i, lo, hi), bisect_right(col, i, lo, hi)
        total = sum(self.grams[k][1][lo:hi])
        if not total:
            return None
        lo, hi = bisect_left(cols[-1], 0, lo, hi), bisect_left(cols[-1], self.vocab_size, lo, hi)
        span = self._spans[ctx] = k, lo, hi, float(total)
        return span

    def _walk(self, prefix):
        """(weight, span) of each order k = 1..order whose context has counts."""
        prefix = tuple(prefix)
        spans = self._spans
        for k in range(1, self.order + 1):
            ctx = prefix[len(prefix) - (k - 1):] if k > 1 else ()
            span = spans.get(ctx) or self._span(ctx)
            if span is not None:
                yield self.weights[k - 1], span

    def next_dist(self, source, prefix) -> np.ndarray:
        import numpy as np
        interp = np.zeros(self.vocab_size)
        active = 0.0
        for w, (k, lo, hi, total) in self._walk(prefix):
            active += w
            if k not in self._dense:
                ids, counts = self.grams[k]
                self._dense[k] = (np.frombuffer(ids, dtype=np.int64)[k - 1::k],
                                  np.frombuffer(counts, dtype=np.int64))
            last, counts = self._dense[k]
            # per token, the same operations as the scalar w * c / total
            interp[last[lo:hi]] += w * counts[lo:hi] / total
        if active > 0:
            interp /= active
        else:
            interp[:] = 1.0 / self.vocab_size
        out = (1.0 - self.floor * self.vocab_size) * interp + self.floor
        out.setflags(write=False)
        return out

    def token_prob(self, source, prefix, tok: int) -> float:
        p = 0.0
        active = 0.0
        for w, (k, lo, hi, total) in self._walk(prefix):
            active += w
            last, counts = self._columns[k][-1], self.grams[k][1]
            i = bisect_left(last, tok, lo, hi)
            if i < hi and last[i] == tok and counts[i]:
                p += w * float(counts[i]) / total
        p = p / active if active > 0 else 1.0 / self.vocab_size
        return (1.0 - self.floor * self.vocab_size) * p + self.floor


def ngram_train(corpus, order: int, *, vocab_size: int | None = None,
                eos_id: int | None = None, weights=None) -> NGramScorer:
    """Count all k-grams (k <= order) over id sequences, appending eos to each.

    vocab_size and eos_id default to one past the largest id seen and that
    same value respectively, so plain id corpora work without ceremony. The
    floor, min(1e-4, 0.1 / vocab_size), scales down with vocab size to keep
    total floor mass small.

    Counting takes one numpy sort per gram length k: each k-gram window is
    keyed by the rank of its first k-1 ids among the distinct (k-1)-grams
    and the rank of its last id among the distinct ids, so np.unique over
    the keys counts the k-grams in sorted order.
    """
    import numpy as np
    if order < 1:
        raise ConfigError("order must be >= 1")
    sequences = [seq for seq in map(list, corpus) if seq]
    if not sequences:
        raise EmptyInputError("ngram_train: no tokens in corpus")
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences)) + 1
    ends = np.cumsum(lengths)  # one past each sentence's eos in the token stream
    body = np.array(list(chain.from_iterable(sequences)))
    if body.dtype != np.int64:  # a float, a string or an int past int64 in the corpus
        raise ConfigError("ngram_train: ids must be integers in the int64 range")
    max_id = int(body.max())
    if eos_id is None:
        eos_id = max_id + 1
    if vocab_size is None:
        vocab_size = max(max_id, eos_id) + 1
    stream = np.full(int(ends[-1]), eos_id, dtype=np.int64)
    is_body = np.ones(len(stream), dtype=bool)
    is_body[ends - 1] = False
    stream[is_body] = body
    sentence_end = np.repeat(ends, lengths)
    ids, rank, cnts = np.unique(stream, return_inverse=True, return_counts=True)
    last_rank = rank
    rows = ids[:, None]  # the distinct k-grams in sorted order
    starts = np.arange(len(stream))  # where each k-gram window starts
    # on entering step k, rank[i] is the rank of the (k-1)-gram at starts[i]
    grams = {}
    for k in range(1, order + 1):
        if k > 1:
            keep = starts + k <= sentence_end[starts]
            starts, rank = starts[keep], rank[keep]
            if not len(starts):
                break
            # both ranks are below len(stream), so the key fits in int64
            keys, rank, cnts = np.unique(rank * len(ids) + last_rank[starts + k - 1],
                                         return_inverse=True, return_counts=True)
            rows = np.column_stack([rows[keys // len(ids)], ids[keys % len(ids)]])
        grams[k] = array("q", rows.tobytes()), array("q", cnts.astype(np.int64).tobytes())
    if weights is None:
        weights = [1.0 / order] * order
    return NGramScorer(order, vocab_size, eos_id, grams, weights, min(1e-4, 0.1 / vocab_size))


# n-gram file: an NMTC container (layout above) of i64 payloads. The metadata
# holds order, vocab_size, eos_id, floor and weights (given_weights, which the
# constructor normalizes on load to the same floats as before the save; JSON
# writes each float so that it reads back equal). Each gram length k that
# occurs has the tensor grams.<k> [n_k, k] (k ids per gram, the grams in
# sorted order) and the tensor counts.<k> [n_k] (one count per gram, in the
# same order): the arrays of NGramScorer.grams, written and read as they are.
_NGRAM_KINDS = ("grams", "counts")


def save_ngram_scorer(m: NGramScorer, path) -> None:
    """Write m as an n-gram container (layout above)."""
    tensors, shapes = {}, {}
    for k, (ids, counts) in m.grams.items():
        tensors[f"grams.{k}"], shapes[f"grams.{k}"] = ids, (len(counts), k)
        tensors[f"counts.{k}"], shapes[f"counts.{k}"] = counts, (len(counts),)
    metadata = {"order": int(m.order), "vocab_size": int(m.vocab_size), "eos_id": int(m.eos_id),
                "floor": m.floor, "weights": m.given_weights}
    _write_checkpoint(path, metadata, shapes, tensors.__getitem__, "i64")


def _check_sorted(ids: array, k: int, name: str) -> None:
    """Raise ModelFormatError naming the tensor unless the grams of k ids in
    ids are in strictly increasing order, which also rules out a repeat.
    Two zips walk the grams one apart and the walk stops at the first pair
    out of order; map releases each pair of zip tuples before the next, so
    zip reuses them and nothing is built per gram."""
    grams, later = zip(*[iter(ids)] * k), zip(*[iter(ids)] * k)
    next(later, None)
    i = next(compress(count(1), map(not_, map(lt, grams, later))), None)
    if i is None:
        return
    gram = " ".join(map(str, ids[i * k:i * k + k]))
    what = "repeats" if ids[i * k - k:i * k] == ids[i * k:i * k + k] else "sorts before"
    raise ModelFormatError(f"tensor {name!r}: {k}-gram {i + 1} ({gram}) {what} the one before it")


def _ngram_from(fh, metadata: dict, entries: list, payload_start: int) -> NGramScorer:
    """The n-gram model of a container whose header is read (layout above),
    each payload read straight into an array('q'). Metadata without an int
    order, V and eos, a number floor and a list of number weights, an
    unknown tensor, a gram length outside [1, order], a grams tensor without
    its counts tensor or the reverse, shapes that do not give k ids per
    count, a dtype other than i64, a short payload and grams out of sorted
    order or listed twice raise ModelFormatError naming the tensor; the
    constructor checks the counts, the floor and the weights."""
    order, vocab_size, eos_id, floor, weights = (
        metadata.get(key) for key in ("order", "vocab_size", "eos_id", "floor", "weights"))
    if not (all(type(v) is int for v in (order, vocab_size, eos_id))
            and type(floor) in (int, float) and isinstance(weights, list)
            and all(type(w) in (int, float) for w in weights)):
        raise ModelFormatError("metadata needs int order, vocab_size and eos_id, "
                               "a number floor and a list of number weights")
    pairs: dict = {}  # k -> {"grams": entry, "counts": entry}
    for entry in entries:
        name = entry["name"]
        kind, _, k = name.partition(".")
        try:
            k = int(k)
        except ValueError:
            k = None
        if kind not in _NGRAM_KINDS or k is None or name != f"{kind}.{k}":
            raise ModelFormatError(f"unknown tensor {name!r}")
        if not 1 <= k <= order:
            raise ModelFormatError(f"tensor {name!r}: gram length {k} outside [1, {order}]")
        pairs.setdefault(k, {})[kind] = entry
    grams = {}
    for k, pair in sorted(pairs.items()):
        for kind, other in (_NGRAM_KINDS, _NGRAM_KINDS[::-1]):
            if other not in pair:
                raise ModelFormatError(f"tensor '{kind}.{k}' has no '{other}.{k}' tensor")
        ids_shape, counts_shape = pair["grams"]["shape"], pair["counts"]["shape"]
        if len(counts_shape) != 1 or ids_shape != [*counts_shape, k]:
            raise ModelFormatError(f"tensor 'grams.{k}' of shape {ids_shape} for tensor "
                                   f"'counts.{k}' of shape {counts_shape}, not [n, {k}] for [n]")
        ids, counts = (_read_array(fh, payload_start, pair[kind], "i64") for kind in _NGRAM_KINDS)
        if not counts:
            continue  # lists no grams
        _check_sorted(ids, k, f"grams.{k}")
        grams[k] = ids, counts
    return NGramScorer(order, vocab_size, eos_id, grams, weights, floor)


# ---------------------------------------------------------------------------
# ensembling

def check_same_vocab(scorers, what: str) -> None:
    """Raise VocabMismatchError, naming the scorers as `what` and listing
    their values in order, unless they share a vocab size and an eos id."""
    for attr, name in (("vocab_size", "vocab sizes"), ("eos_id", "eos ids")):
        values = [getattr(s, attr) for s in scorers]
        if len(set(values)) > 1:
            raise VocabMismatchError(f"{what} {name} differ: {values}")


class EnsembleScorer(Scorer):
    """Scorer view of a model list; next_dist is the member mean.

    Members are checked once, here: at least one, with equal vocab sizes and
    eos ids.
    """

    def __init__(self, scorers: list[Scorer]):
        if not scorers:
            raise EmptyInputError("ensemble needs at least one scorer")
        check_same_vocab(scorers, "member")
        self.scorers = list(scorers)
        self.vocab_size = scorers[0].vocab_size
        self.eos_id = scorers[0].eos_id

    def next_dist(self, source, prefix) -> np.ndarray:
        import numpy as np
        acc = np.zeros(self.vocab_size)
        for s in self.scorers:
            acc += s.next_dist(source, prefix)
        return acc / len(self.scorers)


def load_scorer(path) -> Scorer:
    """Read an NMTC container, its header once, as the scorer its metadata
    describes: an n-gram model or a table scorer. Any other file raises
    ModelFormatError naming it, as does a ValueError or an OverflowError (a
    number in the metadata too large for a float) raised while reading."""
    with naming(path, ModelFormatError, (ValueError, OverflowError)), open(path, "rb") as fh:
        metadata, entries, payload_start = _read_header(fh)
        if "order" in metadata:
            return _ngram_from(fh, metadata, entries, payload_start)
        if "vocab" in metadata:
            return _table_from(fh, metadata, entries, payload_start)
        raise ModelFormatError("metadata describes neither an n-gram model (order) "
                               "nor a table scorer (vocab)")
