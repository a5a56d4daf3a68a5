"""Scorers, checkpoint storage and averaging, and probability ensembling.

Neural forward passes are out of scope. Two deterministic scorers realize
the next-token interface instead: TableScorer (explicit conditional
distributions, enumerable by brute force) and NGramScorer (interpolated
count model over a monolingual corpus). Everything a decoder consumes goes
through Scorer.next_dist (the whole distribution, for beam search and
sampling) or Scorer.token_prob (one entry of it, for re-ranking), so the
decoders never know which kind of model is behind them.

numpy is imported inside the functions that do array math. Loading,
training and saving an n-gram model and its token_prob are pure Python, so
`mtkit rerank` over n-gram models starts without loading numpy.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    EmptyInputError,
    ModelFormatError,
    NameSetMismatchError,
    ShapeMismatchError,
    VocabMismatchError,
    model_file,
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
# then raw little-endian f32 or f64 payloads in sorted-name order; offsets
# count from the end of the header.
_MAGIC = b"NMTC"
_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")
_DTYPES = {"f32": "<f4", "f64": "<f8"}  # numpy dtype strings
_F32 = {"f32": _DTYPES["f32"]}  # the only dtype average_checkpoint_files reads


def _write_checkpoint(path, metadata: dict, shapes: dict, tensor, dtype: str = "f32") -> None:
    """Write a container of `dtype` tensors named and shaped by `shapes`.

    tensor(name) supplies each payload, called once per name in sorted
    order just before it is written, so a caller can compute tensors one
    at a time instead of holding them all.
    """
    import numpy as np
    np_dtype = np.dtype(_DTYPES[dtype])
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
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.asarray(tensor(name), dtype=np_dtype).tobytes())


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


def _read_header(fh) -> tuple[dict, list[dict], int]:
    """Parse and check the header; return (metadata, tensor entries, payload start).

    Any defect raises ModelFormatError (ValueError if not UTF-8 JSON), to be
    named by the caller's `naming`: short or wrong magic, version and length
    fields, a header that is not a UTF-8 JSON object or nests too deeply to
    parse, or a tensor entry without a string name and dtype, a list of
    non-negative int dimensions as shape, and a non-negative int offset.
    Payloads are not read here.
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
        header = json.loads(fh.read(hlen).decode("utf-8"))
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


def _read_tensor(fh, payload_start: int, entry: dict, dtypes=_DTYPES) -> np.ndarray:
    """Read one payload described by a checked header entry as an array of
    one of `dtypes`; another dtype, a short payload or a non-finite value
    raises ModelFormatError."""
    import numpy as np
    if entry["dtype"] not in dtypes:
        raise ModelFormatError(f"unsupported dtype {entry['dtype']}")
    dtype = np.dtype(dtypes[entry["dtype"]])
    shape = tuple(entry["shape"])
    nbytes = math.prod(shape) * dtype.itemsize
    start = payload_start + entry["offset"]
    if start + nbytes > _file_size(fh):
        raise ModelFormatError(f"truncated payload for {entry['name']!r}")
    fh.seek(start)
    arr = np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape)
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
    they are written, so the output goes to a staged file that replaces
    out_path only once every tensor is written; a rejected input leaves
    out_path as it was.
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
                    raise ShapeMismatchError(
                        name, f"{tuple(shapes[name])} vs {tuple(e['shape'])}")

        def mean(name: str) -> np.ndarray:
            values = []
            for fh, p, (_, _, payload_start), entries in zip(handles, paths, headers, entry_maps):
                with naming(p, ModelFormatError):
                    values.append(_read_tensor(fh, payload_start, entries[name], _F32))
            values = np.array(values, dtype=np.float64)
            values.sort(axis=0)
            return (values.sum(axis=0) / len(paths)).astype(np.float32)

        with staged(out_path) as tmp:
            _write_checkpoint(tmp, {"source_count": len(paths)}, shapes, mean)


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


def load_table_scorer(path) -> TableScorer:
    """Read a save_table_scorer file; a malformed one raises ModelFormatError."""
    with naming(path, ModelFormatError), open(path, "rb") as fh:
        metadata, entries, payload_start = _read_header(fh)
        vocab, eos, contexts = (metadata.get(k) for k in ("vocab", "eos", "contexts"))
        if not (isinstance(vocab, list) and all(isinstance(t, str) for t in (*vocab, eos))):
            raise ModelFormatError("metadata needs a vocab list of strings and an eos string")
        if not (isinstance(contexts, list) and all(
                isinstance(c, list) and len(c) == 2
                and all(isinstance(ids, list) and all(type(i) is int for i in ids) for ids in c)
                for c in contexts)):
            raise ModelFormatError("metadata contexts must be [[source ids], [prefix ids]] pairs")
        tensors = {e["name"]: _read_tensor(fh, payload_start, e) for e in entries}
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

    The first next_dist call builds a per-context index (KenLM-style state
    lookup): the token ids and counts of each context's grams, stored in two
    flat arrays with offsets. Grams whose last id lies outside [0, V) count
    toward their context's total but score no token.

    token_prob scores one token with dict lookups in counts and totals,
    without numpy or the index: the same operations in the same order as
    next_dist performs for that token, so it returns the same float.

    given_weights keeps the weights as passed in; weights holds them divided
    by their sum. A second division need not give the same floats, so the
    model file stores given_weights.
    """

    def __init__(self, order: int, vocab_size: int, eos_id: int, counts: dict,
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
        self.order = order
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.given_weights = weights
        self.weights = [w / sum(weights) for w in weights]
        self.floor = float(floor)
        self.counts = {tuple(g): int(c) for g, c in counts.items()}
        self.totals = {}
        for gram, c in self.counts.items():
            ctx = gram[:-1]
            self.totals[ctx] = self.totals.get(ctx, 0) + c
        self._index = None

    def _context_index(self):
        """(spans, ids, counts): spans maps each queryable context with a
        non-zero total to (lo, hi, total); ids[lo:hi] and counts[lo:hi] hold
        its in-vocab grams.

        Built on first use rather than at construction, so training and
        loading stay cheap.
        """
        if self._index is not None:
            return self._index
        import numpy as np
        by_ctx: dict[tuple, list] = {}
        for gram, c in self.counts.items():
            if gram and c and 0 <= gram[-1] < self.vocab_size:
                by_ctx.setdefault(gram[:-1], []).append((gram[-1], c))
        ids, counts, spans = [], [], {}
        for ctx, total in self.totals.items():
            if total == 0 or len(ctx) >= self.order:
                continue
            grams = sorted(by_ctx.get(ctx, ()))
            spans[ctx] = (len(ids), len(ids) + len(grams), float(total))
            ids.extend(tok for tok, _ in grams)
            counts.extend(float(c) for _, c in grams)
        self._index = (
            spans,
            np.array(ids, dtype=np.intp),
            np.array(counts, dtype=np.float64),
        )
        return self._index

    def next_dist(self, source, prefix) -> np.ndarray:
        import numpy as np
        prefix = tuple(prefix)
        spans, ids, counts = self._context_index()
        interp = np.zeros(self.vocab_size)
        active = 0.0
        for k in range(1, self.order + 1):
            ctx = prefix[len(prefix) - (k - 1):] if k > 1 else ()
            span = spans.get(ctx)
            if span is None:
                continue
            lo, hi, total = span
            w = self.weights[k - 1]
            active += w
            # per token, the same operations as the scalar w * c / total
            interp[ids[lo:hi]] += w * counts[lo:hi] / total
        if active > 0:
            interp /= active
        else:
            interp[:] = 1.0 / self.vocab_size
        out = (1.0 - self.floor * self.vocab_size) * interp + self.floor
        out.setflags(write=False)
        return out

    def token_prob(self, source, prefix, tok: int) -> float:
        prefix = tuple(prefix)
        p = 0.0
        active = 0.0
        for k in range(1, self.order + 1):
            ctx = prefix[len(prefix) - (k - 1):] if k > 1 else ()
            total = self.totals.get(ctx, 0)
            if total == 0:
                continue
            w = self.weights[k - 1]
            active += w
            c = self.counts.get(ctx + (tok,), 0)
            if c:
                p += w * float(c) / float(total)
        p = p / active if active > 0 else 1.0 / self.vocab_size
        return (1.0 - self.floor * self.vocab_size) * p + self.floor


def ngram_train(corpus, order: int, *, vocab_size: int | None = None,
                eos_id: int | None = None, weights=None,
                floor: float | None = None) -> NGramScorer:
    """Count all k-grams (k <= order) over id sequences, appending eos to each.

    vocab_size and eos_id default to one past the largest id seen and that
    same value respectively, so plain id corpora work without ceremony. The
    default floor scales down with vocab size to keep total floor mass small.
    """
    if order < 1:
        raise ConfigError("order must be >= 1")
    sequences = [list(seq) for seq in corpus]
    if not any(sequences):
        raise EmptyInputError("ngram_train: no tokens in corpus")
    max_id = max(max(seq) for seq in sequences if seq)
    if eos_id is None:
        eos_id = max_id + 1
    if vocab_size is None:
        vocab_size = max(max_id, eos_id) + 1
    counts: dict[tuple, int] = {}
    for seq in sequences:
        if not seq:
            continue
        toks = seq + [eos_id]
        for k in range(1, order + 1):
            for i in range(len(toks) - k + 1):
                gram = tuple(toks[i : i + k])
                counts[gram] = counts.get(gram, 0) + 1
    if weights is None:
        weights = [1.0 / order] * order
    if floor is None:
        floor = min(1e-4, 0.1 / vocab_size)
    return NGramScorer(order, vocab_size, eos_id, counts, weights, floor)


# n-gram file, ngram-v2 text: the header line "ngram-v2 <order> <V> <eos>",
# "floor <floor>", "weights <w_1> ... <w_order>" (given_weights, which the
# constructor normalizes on load to the same floats as before the save), then
# for each gram length k that occurs, in increasing k, the line
# "grams <k> <ids>" (k ids per gram, the grams in sorted order) and the line
# "counts <k> <counts>" (one count per gram, in the same order). One line per
# gram length lets the loader parse a whole order with one int() map and key
# it with one zip, so no Python code runs per gram.

def save_ngram_scorer(m: NGramScorer, path) -> None:
    """Write m as an ngram-v2 file (layout above)."""
    by_len: dict[int, list[tuple]] = {}
    for gram in sorted(m.counts):
        by_len.setdefault(len(gram), []).append(gram)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ngram-v2 {m.order} {m.vocab_size} {m.eos_id}\n")
        fh.write(f"floor {m.floor!r}\n")
        fh.write("weights " + " ".join(repr(w) for w in m.given_weights) + "\n")
        for k, grams in sorted(by_len.items()):
            fh.write(" ".join(["grams", str(k), *(str(i) for gram in grams for i in gram)]) + "\n")
            fh.write(" ".join(["counts", str(k), *(str(m.counts[gram]) for gram in grams)]) + "\n")


def load_ngram_scorer(path) -> NGramScorer:
    """Read a save_ngram_scorer file (layout above). Besides a malformed
    field, a repeated line, a grams line without its counts line or the
    reverse, an id count that is not k times the count count, a gram listed
    twice and a negative count raise ModelFormatError naming the line."""
    found: dict = {}  # "floor", "weights", ("grams", k), ("counts", k) -> (line no, values)
    with model_file(path, "ngram-v2") as (header, lines):
        order, vocab_size, eos_id = (int(x) for x in header.split())
        for lineno, line in lines:
            kind, _, rest = line.partition(" ")
            if kind in ("grams", "counts"):
                k, _, rest = rest.partition(" ")
                key, parse = (kind, int(k)), int
                if key[1] < 0:
                    raise ModelFormatError(f"line {lineno}: negative gram length {k}")
            elif kind in ("floor", "weights"):
                key, parse = kind, float
            elif not line.strip():
                continue
            else:
                raise ModelFormatError(f"line {lineno}: unknown line kind {kind!r}")
            if key in found:
                raise ModelFormatError(f"line {lineno}: repeats line {found[key][0]}")
            found[key] = lineno, list(map(parse, rest.split()))
        if "floor" not in found or "weights" not in found:
            raise ModelFormatError("missing floor or weights line")
        floor_line, floor = found.pop("floor")
        if len(floor) != 1:
            raise ModelFormatError(f"line {floor_line}: expected one floor value")
        _, weights = found.pop("weights")
        counts: dict[tuple, int] = {}
        for (kind, k), (lineno, values) in found.items():
            if kind == "counts":
                if ("grams", k) not in found:
                    raise ModelFormatError(f"line {lineno}: counts {k} has no grams {k} line")
                continue
            if ("counts", k) not in found:
                raise ModelFormatError(f"line {lineno}: grams {k} has no counts {k} line")
            counts_line, cnts = found["counts", k]
            if len(values) != k * len(cnts):
                raise ModelFormatError(
                    f"line {lineno}: {len(values)} ids for the {len(cnts)} counts of line "
                    f"{counts_line}, not {k} per gram")
            if not cnts:
                continue  # lists no grams; zip would build a k-long list for nothing
            if min(cnts) < 0:
                raise ModelFormatError(f"line {counts_line}: negative count")
            grams = list(zip(*[iter(values)] * k)) if k else [()] * len(cnts)
            before = len(counts)
            counts.update(zip(grams, cnts))
            if len(counts) != before + len(grams):
                raise ModelFormatError(f"line {lineno}: a {k}-gram is listed twice")
        return NGramScorer(order, vocab_size, eos_id, counts, weights, floor[0])


# ---------------------------------------------------------------------------
# ensembling

class EnsembleScorer(Scorer):
    """Scorer view of a model list; next_dist is the member mean.

    Members are checked once, here: at least one, with equal vocab sizes and
    eos ids.
    """

    def __init__(self, scorers: list[Scorer]):
        if not scorers:
            raise EmptyInputError("ensemble needs at least one scorer")
        sizes = {s.vocab_size for s in scorers}
        if len(sizes) > 1:
            raise VocabMismatchError(f"member vocab sizes differ: {sorted(sizes)}")
        eos = {s.eos_id for s in scorers}
        if len(eos) > 1:
            raise VocabMismatchError(f"member eos ids differ: {sorted(eos)}")
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
    """Read an NMTC container as a table scorer and any other file as an
    n-gram model, whose header check rejects what is neither."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
    return load_table_scorer(path) if magic == _MAGIC else load_ngram_scorer(path)
