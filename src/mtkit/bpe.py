"""Byte pair encoding: training, encoding with optional merge dropout, decoding.

Words are split on whitespace and encoded independently with an end-of-word
marker, so decode(encode(x, 0)) == x holds for single-spaced stripped text.
The vocab budget `vocab_size` covers everything stored: the four specials,
the word-end marker, the corpus characters, and the merges.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter, defaultdict

from .errors import (ConfigError, EmptyInputError, ModelFormatError, VocabMismatchError,
                     check_seed, read_model, write_lines)

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
WORD_END = "</w>"
SPECIALS = (PAD, UNK, BOS, EOS, WORD_END)
# Entries kept in a model's dropout-0 word cache before it is cleared, so
# encoding an unbounded stream of distinct words uses bounded memory.
ZERO_DROPOUT_CACHE_MAX = 1 << 16


class BpeModel:
    """Ordered merge list plus token-string -> id vocabulary; vocab_size is
    the configured target, at least len(vocab). Ids run 0 .. len(vocab) - 1,
    each symbol is one whitespace word and no merge is listed twice, so
    every model built saves to a file load_model reads back as the same."""

    def __init__(self, merges: list[tuple[str, str]], vocab: dict[str, int], vocab_size: int):
        self.merges = merges
        self.vocab = vocab
        self.vocab_size = vocab_size
        self.merge_ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        self.id_to_token = {i: t for t, i in self.vocab.items()}
        self._zero_dropout_cache: dict[str, tuple[str, ...]] = {}
        self._validate()

    def _validate(self):
        if len(self.vocab) > self.vocab_size:
            raise ModelFormatError("stored vocab exceeds configured vocab_size")
        missing = [tok for tok in SPECIALS if tok not in self.vocab]
        if missing:
            raise ModelFormatError(f"vocab lacks required symbols {missing}")
        if sorted(self.vocab.values()) != list(range(len(self.vocab))):
            raise ModelFormatError(f"vocab ids are not 0 .. {len(self.vocab) - 1}")
        for tok in self.vocab:
            if tok.split() != [tok]:
                raise ModelFormatError(f"symbol {tok!r} is empty or holds whitespace")
        known = set(self.vocab) - {PAD, UNK, BOS, EOS}
        for rank, (left, right) in enumerate(self.merges):
            if left not in known or right not in known:
                raise ModelFormatError(f"merge ({left!r},{right!r}) references unknown symbol")
            if left + right not in self.vocab:
                raise ModelFormatError(f"merged symbol {left + right!r} missing from vocab")
            if self.merge_ranks[left, right] != rank:
                raise ModelFormatError(f"merge ({left!r},{right!r}) at rank {rank} "
                                       f"is repeated at rank {self.merge_ranks[left, right]}")

    @property
    def pad_id(self) -> int:
        return self.vocab[PAD]

    @property
    def unk_id(self) -> int:
        return self.vocab[UNK]

    @property
    def bos_id(self) -> int:
        return self.vocab[BOS]

    @property
    def eos_id(self) -> int:
        return self.vocab[EOS]


def bpe_train(corpus, vocab_size: int) -> BpeModel:
    """Learn greedy most-frequent-pair merges from an iterable of text lines.

    Ties between equally frequent pairs go to the lexicographically smaller
    pair, so training is deterministic given the corpus.

    Pairs are counted once. After that a pair -> word-index map limits each
    merge to the words that hold the merged pair: their old pairs are
    subtracted and their new pairs added, weighted by word frequency, as in
    `learn_bpe` of subword-nmt (Sennrich et al. 2016). The best pair comes
    from a lazy max-heap of (-count, pair) entries whose stale entries are
    dropped when they reach the top, so the pick, ties included, equals the
    minimum of (-count, pair) over all current counts, and the merges equal
    those of recounting every pair after each merge.
    """
    word_freqs: Counter[str] = Counter()
    for line in corpus:
        word_freqs.update(line.split())
    if not word_freqs:
        raise EmptyInputError("bpe_train: corpus contains no words")

    alphabet = sorted({ch for word in word_freqs for ch in word})
    base = list(SPECIALS) + alphabet
    if vocab_size <= len(base):
        raise ConfigError(
            f"vocab_size {vocab_size} <= base symbol count {len(base)} (no room for merges)"
        )

    words = [tuple(word) + (WORD_END,) for word in word_freqs]
    freqs = list(word_freqs.values())
    pair_counts: defaultdict[tuple[str, str], int] = defaultdict(int)
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for idx, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freqs[idx]
            where[pair].add(idx)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(base) + len(merges) < vocab_size:
        while heap and -heap[0][0] != pair_counts.get(heap[0][1]):
            heapq.heappop(heap)
        if not heap:
            break
        best = heapq.heappop(heap)[1]
        merges.append(best)
        merged = best[0] + best[1]
        touched: set[tuple[str, str]] = set()
        # Visit order is free: counts are integer sums, so any order gives them exactly.
        for idx in where.pop(best):
            symbols = words[idx]
            out = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            if len(out) == len(symbols):
                continue  # stale index entry: an earlier merge took the pair apart
            freq = freqs[idx]
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] -= freq
                touched.add(pair)
            for pair in zip(out, out[1:]):
                pair_counts[pair] += freq
                where[pair].add(idx)
                touched.add(pair)
            words[idx] = tuple(out)
        for pair in touched:
            count = pair_counts[pair]
            if count:
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
                where.pop(pair, None)

    vocab = {tok: i for i, tok in enumerate(base)}
    for left, right in merges:
        sym = left + right
        if sym not in vocab:
            vocab[sym] = len(vocab)
    return BpeModel(merges=merges, vocab=vocab, vocab_size=vocab_size)


def _encode_word(model: BpeModel, word: str, rng: random.Random | None, dropout_p: float) -> tuple[str, ...]:
    cache = model._zero_dropout_cache
    if dropout_p == 0.0:
        cached = cache.get(word)
        if cached is not None:
            return cached
    ranks = model.merge_ranks
    symbols = list(word) + [WORD_END]
    while len(symbols) > 1:
        best = None
        for i in range(len(symbols) - 1):
            rank = ranks.get((symbols[i], symbols[i + 1]))
            if rank is None:
                continue
            if dropout_p > 0.0 and rng.random() < dropout_p:
                continue
            if best is None or (rank, i) < best:
                best = (rank, i)
        if best is None:
            break
        i = best[1]
        symbols[i : i + 2] = [symbols[i] + symbols[i + 1]]
    result = tuple(symbols)
    if dropout_p == 0.0:
        if len(cache) >= ZERO_DROPOUT_CACHE_MAX:
            cache.clear()
        cache[word] = result
    return result


def check_dropout(dropout_p: float, seed: int = 0) -> None:
    """Raise ConfigError unless 0 <= dropout_p < 1 and, when dropout draws,
    seed >= 0; a caller that encodes line by line runs it once first, so an
    empty input is checked too."""
    if not 0.0 <= dropout_p < 1.0:
        raise ConfigError(f"dropout_p must be in [0, 1), got {dropout_p}")
    if dropout_p > 0.0:
        check_seed(seed)


def bpe_encode(model: BpeModel, text: str, dropout_p: float = 0.0, seed: int = 0) -> list[int]:
    """Encode text to token ids; with dropout_p > 0 each applicable merge is
    skipped with that probability via a generator seeded per call."""
    check_dropout(dropout_p, seed)
    rng = random.Random(seed) if dropout_p > 0.0 else None
    ids: list[int] = []
    unk = model.unk_id
    for word in text.split():
        for sym in _encode_word(model, word, rng, dropout_p):
            ids.append(model.vocab.get(sym, unk))
    return ids


def bpe_decode(model: BpeModel, ids) -> str:
    """Inverse of dropout-0 encoding: strips pad/bos/unk, truncates at eos."""
    pieces: list[str] = []
    skip = {model.pad_id, model.bos_id, model.unk_id}
    eos = model.eos_id
    for tid in ids:
        if tid == eos:
            break
        if tid in skip:
            continue
        tok = model.id_to_token.get(tid)
        if tok is None:
            raise VocabMismatchError(f"id {tid} not in vocab")
        pieces.append(tok)
    return "".join(pieces).replace(WORD_END, " ").rstrip()


def _lines(merges, vocab, vocab_size):
    yield f"bpe-v1 {vocab_size}"
    for tok, tid in sorted(vocab.items(), key=lambda kv: kv[1]):
        yield f"{tok}\t{tid}"
    yield ""
    for left, right in merges:
        yield f"{left} {right}"


def save_model(model: BpeModel, path) -> None:
    """Write the text container: `bpe-v1 <vocab_size>`, vocab lines, blank line, merge lines."""
    write_lines(path, _lines(model.merges, model.vocab, model.vocab_size))


def _fields(header, lines):
    vocab_size = int(header)
    vocab: dict[str, int] = {}
    for lineno, line in lines:
        if line == "":
            break
        tok, _, tid = line.partition("\t")
        if tok in vocab:  # line i + 2 set the i-th token read
            raise ModelFormatError(f"line {lineno}: repeats line {list(vocab).index(tok) + 2}")
        vocab[tok] = int(tid)
    merges = [tuple(line.partition(" ")[::2]) for _, line in lines]
    return merges, vocab, vocab_size


def load_model(path) -> BpeModel:
    """Read a file only byte for byte as save_model writes it: a CRLF line, an
    id in another form or any other layout raises ModelFormatError naming the
    first line that departs, a repeated token its first line too."""
    return read_model(path, "bpe-v1", _fields, _lines, BpeModel)
