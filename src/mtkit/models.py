"""Scorers, checkpoint storage and averaging, and probability ensembling.

Neural forward passes are out of scope. Two deterministic scorers realize
the next-token interface instead: TableScorer (explicit conditional
distributions, enumerable by brute force) and NGramScorer (interpolated
count model over a monolingual corpus). Everything a decoder consumes goes
through Scorer.next_dist so beam search, sampling, and re-ranking never
know which kind of model is behind them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import (
    EmptyCheckpointListError,
    EmptyCorpusError,
    EmptyEnsembleError,
    ModelFormatError,
    NameSetMismatchError,
    ShapeMismatchError,
    VocabMismatchError,
    model_file,
)

_NORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# checkpoints

# Container: magic NMTC, u32 version, u64 header length, a JSON header
# {"metadata": {...}, "tensors": [{"name", "shape", "dtype", "offset"}, ...]},
# then raw little-endian f32 payloads in sorted-name order; offsets count
# from the end of the header.
_MAGIC = b"NMTC"
_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")


def _write_checkpoint(path, metadata: dict, shapes: dict, tensor) -> None:
    """Write a container with tensors named and shaped by `shapes`.

    tensor(name) supplies each payload, called once per name in sorted
    order just before it is written, so a caller can compute tensors one
    at a time instead of holding them all.
    """
    names = sorted(shapes)
    entries = []
    offset = 0
    for name in names:
        shape = list(shapes[name])
        entries.append({"name": name, "shape": shape, "dtype": "f32", "offset": offset})
        offset += math.prod(shape) * 4
    header = json.dumps(
        {"metadata": metadata, "tensors": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.asarray(tensor(name), dtype="<f4").tobytes())


def save_checkpoint(tensors: dict, path, metadata: dict | None = None) -> None:
    """Write name -> array tensors as f32 in an NMTC container (layout above).

    The same tensors and metadata always give the same bytes. A value that
    is not finite once converted to f32 raises ValueError before the file
    is opened.
    """
    tensors = {name: np.asarray(arr, dtype=np.float32) for name, arr in tensors.items()}
    for name, arr in tensors.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name!r} contains non-finite values")
    shapes = {name: arr.shape for name, arr in tensors.items()}
    _write_checkpoint(path, metadata or {}, shapes, tensors.__getitem__)


def _file_size(fh) -> int:
    return os.fstat(fh.fileno()).st_size


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _read_header(fh, path) -> tuple[dict, list[dict], int]:
    """Parse and check the header; return (metadata, tensor entries, payload start).

    Any defect raises ModelFormatError: short or wrong magic, version and
    length fields, a header that is not a UTF-8 JSON object, or a tensor
    entry without a string name and dtype, a list of non-negative int
    dimensions as shape, and a non-negative int offset. Payloads are not
    read here.
    """
    prefix = fh.read(_PREFIX.size)
    if prefix[:4] != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic {prefix[:4]!r}")
    if len(prefix) < _PREFIX.size:
        raise ModelFormatError(f"{path}: truncated header prefix")
    _, version, hlen = _PREFIX.unpack(prefix)
    if version != _VERSION:
        raise ModelFormatError(f"{path}: unsupported version {version}")
    payload_start = _PREFIX.size + hlen
    if payload_start > _file_size(fh):
        raise ModelFormatError(f"{path}: header runs past the end of the file")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")
    metadata = header.get("metadata", {})
    entries = header.get("tensors")
    if not isinstance(metadata, dict) or not isinstance(entries, list):
        raise ModelFormatError(f"{path}: header needs a metadata object and a tensors list")
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
            raise ModelFormatError(f"{path}: malformed tensor entry {entry!r}")
        if entry["name"] in names:
            raise ModelFormatError(f"{path}: duplicate tensor {entry['name']!r}")
        names.add(entry["name"])
    return metadata, entries, payload_start


def _read_tensor(fh, path, payload_start: int, entry: dict) -> np.ndarray:
    """Read one payload described by a checked header entry as an f32
    array; a wrong dtype, a short payload or a non-finite value raises
    ModelFormatError."""
    if entry["dtype"] != "f32":
        raise ModelFormatError(f"{path}: unsupported dtype {entry['dtype']}")
    shape = tuple(entry["shape"])
    nbytes = math.prod(shape) * 4
    start = payload_start + entry["offset"]
    if start + nbytes > _file_size(fh):
        raise ModelFormatError(f"{path}: truncated payload for {entry['name']!r}")
    fh.seek(start)
    arr = np.frombuffer(fh.read(nbytes), dtype="<f4").reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{path}: tensor {entry['name']!r} contains non-finite values")
    return arr


def checkpoint_metadata(path) -> dict:
    """Read just the metadata block, leaving payloads untouched."""
    with open(path, "rb") as fh:
        metadata, _, _ = _read_header(fh, path)
    return metadata


def average_checkpoint_files(paths: list, out_path) -> None:
    """Average checkpoint files tensor by tensor into out_path.

    The files must share tensor names and shapes. Each output element is
    the mean of its k input values, summed in f64 after sorting, so the
    output bytes do not depend on the order of paths; its metadata is
    {"source_count": k}. Only k copies of one tensor are resident at a
    time, so memory is bounded by the largest tensor rather than the full
    checkpoint size.
    """
    if not paths:
        raise EmptyCheckpointListError("no checkpoint files given")
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "rb")) for p in paths]
        headers = [_read_header(fh, p) for fh, p in zip(handles, paths)]
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
            values = np.array([
                _read_tensor(fh, p, payload_start, entries[name])
                for fh, p, (_, _, payload_start), entries
                in zip(handles, paths, headers, entry_maps)
            ], dtype=np.float64)
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
    """

    vocab_size: int
    eos_id: int

    def next_dist(self, source, prefix) -> np.ndarray:
        raise NotImplementedError


def _check_dist(vec: np.ndarray, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"{what}: expected 1-d vector")
    if not np.all(vec >= 0):  # false for NaN too; an infinity fails the sum check
        raise ValueError(f"{what}: negative or NaN probability")
    if abs(float(vec.sum()) - 1.0) > _NORM_TOL:
        raise ValueError(f"{what}: sums to {vec.sum():.9f}, not 1")
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


def _fmt_ids(ids) -> str:
    return ",".join(str(i) for i in ids) if ids else "-"


def _parse_ids(text: str) -> tuple:
    return () if text == "-" else tuple(int(x) for x in text.split(","))


def save_table_scorer(m: TableScorer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tablescorer-v1\n")
        fh.write("vocab " + " ".join(m.vocab) + "\n")
        fh.write(f"eos {m.eos_token}\n")
        fh.write("default " + " ".join(repr(float(p)) for p in m.default) + "\n")
        for (src, prefix), vec in sorted(m.table.items()):
            fh.write(
                f"ctx {_fmt_ids(src)}|{_fmt_ids(prefix)} "
                + " ".join(repr(float(p)) for p in vec)
                + "\n"
            )


def load_table_scorer(path) -> TableScorer:
    vocab = None
    eos_token = "eos"
    default = None
    table = {}
    with model_file(path, "tablescorer-v1") as (_, lines):
        for lineno, line in lines:
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            if kind == "vocab":
                vocab = rest.split(" ")
            elif kind == "eos":
                eos_token = rest
            elif kind == "default":
                default = [float(x) for x in rest.split(" ")]
            elif kind == "ctx":
                key, _, probs = rest.partition(" ")
                src_txt, _, prefix_txt = key.partition("|")
                table[(_parse_ids(src_txt), _parse_ids(prefix_txt))] = [
                    float(x) for x in probs.split(" ")
                ]
            else:
                raise ModelFormatError(f"{path}:{lineno}: unknown line kind {kind!r}")
        if vocab is None or default is None:
            raise ModelFormatError(f"{path}: missing vocab or default line")
        return TableScorer(vocab, table, default, eos_token=eos_token)


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
    """

    def __init__(self, order: int, vocab_size: int, eos_id: int, counts: dict,
                 weights, floor: float):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 <= eos_id < vocab_size:
            raise ValueError("eos_id out of range")
        weights = [float(w) for w in weights]
        # NaN or infinite weights, and weights whose sum overflows, fail the sum check
        if (len(weights) != order or any(w < 0 for w in weights)
                or not 0 < sum(weights) < math.inf):
            raise ValueError("need one non-negative weight per order, with a finite sum above 0")
        if not 0 < floor * vocab_size < 1:
            raise ValueError("floor * vocab_size must lie in (0, 1)")
        self.order = order
        self.vocab_size = vocab_size
        self.eos_id = eos_id
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
        loading stay cheap. Concurrent first calls may each build it; the
        results are equal, so either assignment is fine.
        """
        if self._index is not None:
            return self._index
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


def ngram_train(corpus, order: int, *, vocab_size: int | None = None,
                eos_id: int | None = None, weights=None,
                floor: float | None = None) -> NGramScorer:
    """Count all k-grams (k <= order) over id sequences, appending eos to each.

    vocab_size and eos_id default to one past the largest id seen and that
    same value respectively, so plain id corpora work without ceremony. The
    default floor scales down with vocab size to keep total floor mass small.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sequences = [list(seq) for seq in corpus]
    if not any(sequences):
        raise EmptyCorpusError("ngram_train: no tokens in corpus")
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


def save_ngram_scorer(m: NGramScorer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ngram-v1 {m.order} {m.vocab_size} {m.eos_id}\n")
        fh.write(f"floor {m.floor!r}\n")
        fh.write("weights " + " ".join(repr(w) for w in m.weights) + "\n")
        for gram in sorted(m.counts):
            fh.write(f"count {_fmt_ids(gram)} {m.counts[gram]}\n")


def load_ngram_scorer(path) -> NGramScorer:
    floor = None
    weights = None
    counts = {}
    with model_file(path, "ngram-v1") as (header, lines):
        order, vocab_size, eos_id = (int(x) for x in header.split())
        for lineno, line in lines:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "floor":
                floor = float(parts[1])
            elif parts[0] == "weights":
                weights = [float(w) for w in parts[1:]]
            elif parts[0] == "count":
                count = int(parts[2]) if len(parts) == 3 else -1
                if count < 0:
                    raise ModelFormatError(f"{path}:{lineno}: expected 'count <ids> <count >= 0>'")
                counts[_parse_ids(parts[1])] = count
            else:
                raise ModelFormatError(f"{path}:{lineno}: unknown line kind {parts[0]!r}")
        if floor is None or weights is None:
            raise ModelFormatError(f"{path}: missing floor or weights line")
        return NGramScorer(order, vocab_size, eos_id, counts, weights, floor)


# ---------------------------------------------------------------------------
# ensembling

class EnsembleScorer(Scorer):
    """Scorer view of a model list; next_dist is the member mean.

    Members are checked once, here: at least one, with equal vocab sizes and
    eos ids.
    """

    def __init__(self, scorers: list[Scorer]):
        if not scorers:
            raise EmptyEnsembleError("ensemble needs at least one scorer")
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
        acc = np.zeros(self.vocab_size)
        for s in self.scorers:
            acc += s.next_dist(source, prefix)
        return acc / len(self.scorers)


def load_scorer(path) -> Scorer:
    """Dispatch on the first header word: table scorer or n-gram model."""
    with model_file(path, None) as (header, _):
        kind = header.partition(" ")[0]
    if kind == "tablescorer-v1":
        return load_table_scorer(path)
    if kind == "ngram-v1":
        return load_ngram_scorer(path)
    raise ModelFormatError(f"{path}: unrecognized scorer header {kind!r}")
