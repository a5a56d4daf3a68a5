"""Exception types shared across mtkit modules: one class per kind of
failure, the message saying where. ConfigError and InputFormatError are also
ValueErrors, as json.JSONDecodeError is. Also the readers' rule for naming
the file at fault, the reader for text model files (BPE, language id and
domain classifier) and their rule against a repeated line, the writers'
rule for leaving no partial output file behind, the one writer that stages
every text output and text model file, and the rules for a seed, training
settings and a language code."""

import contextlib
import math
import os


class MtkitError(Exception):
    """Base class for all mtkit errors."""


class ModelFormatError(MtkitError):
    """A model file, or the values a model is built from, breaks its format."""


class ConfigError(MtkitError, ValueError):
    """An option or argument value lies outside its allowed range."""


class InputFormatError(MtkitError, ValueError):
    """A data file, data line, candidate dump or option spec is malformed."""


class EmptyInputError(MtkitError):
    """An input that must hold something is empty: a corpus, a class, a text,
    a source, a candidate list, a reference or a list of files or models."""


class VocabMismatchError(MtkitError):
    """An id lies outside a model's vocab, or combined models disagree on it."""


class LengthMismatchError(MtkitError):
    """Two inputs that must pair up line by line differ in length."""


class ShapeMismatchError(MtkitError):
    """Checkpoints disagree on the shape of a named tensor."""


class NameSetMismatchError(MtkitError):
    """Checkpoints do not share an identical set of tensor names."""


class NoCompletedHypothesisError(MtkitError):
    """Exhaustive search found no finite-score eos-terminated sequence."""


@contextlib.contextmanager
def naming(path, error: type[MtkitError], catch=(ValueError,)):
    """Re-raise an `error`, or a `catch` exception that is not an MtkitError,
    raised in the block as `error("<path>: ...")`; other named errors pass
    through. The one place a reader names the file at fault: its line checks,
    model constructors and plain int() and float() all raise without it."""
    try:
        yield
    except (error, *catch) as exc:
        if isinstance(exc, MtkitError) and not isinstance(exc, error):
            raise
        raise error(f"{path}: {exc}") from None


@contextlib.contextmanager
def model_file(path, magic: str):
    """Open a UTF-8 text model file whose first word is `magic`.

    Yields (header, lines). header is the rest of the first line after the
    magic word and one space. lines yields (line number, line without its
    newline) for each later line, blank lines included, read from the file
    as the caller iterates, so no file is held in memory whole. Under
    `naming`, a ModelFormatError (a wrong magic word, a line or constructor
    check), ValueError or IndexError raised inside the block becomes a
    ModelFormatError that starts with the path, so loaders leave the path out
    and parse fields with plain int(), float(), unpacking and indexing.
    """
    with naming(path, ModelFormatError, (ValueError, IndexError)), \
            open(path, encoding="utf-8") as fh:
        word, _, rest = fh.readline().rstrip("\n").partition(" ")
        if word != magic:
            raise ModelFormatError(f"expected a {magic!r} header, got {word!r}")
        yield rest, ((n, line.rstrip("\n")) for n, line in enumerate(fh, start=2))


def check_new_line(seen: dict, key, lineno: int) -> None:
    """Record in `seen` (key -> line number) that line `lineno` sets `key`;
    raise ModelFormatError naming both lines if an earlier line set it, so
    no repeated line of a model file silently wins or shifts a rank."""
    first = seen.setdefault(key, lineno)
    if first != lineno:
        raise ModelFormatError(f"line {lineno}: repeats line {first}")


def check_seed(seed: int) -> None:
    """Raise ConfigError for a negative seed: random.Random seeds with
    abs(seed), so seed -s would repeat the draws of seed s."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def check_training(epochs: int, lr: float, seed: int) -> None:
    """Raise ConfigError unless a gradient-descent fit gets at least one
    epoch, a positive finite learning rate and a seed check_seed accepts."""
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    if not 0 < lr < math.inf:
        raise ConfigError(f"lr must be positive and finite, got {lr}")
    check_seed(seed)


def check_lang_code(code: str) -> None:
    """Raise ConfigError for a language code that is empty or holds
    whitespace: model files store codes as space-separated words."""
    if code.split() != [code]:
        raise ConfigError(f"language code {code!r} is empty or holds whitespace")


@contextlib.contextmanager
def staged(path):
    """Yield a temporary path beside `path` that replaces `path` only if the
    block completes; on failure the temporary file is removed, so `path`
    keeps its earlier bytes or stays absent. An OSError naming the temporary
    path, such as a failed open in a missing directory, is raised again
    naming `path`."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        yield path  # a device or pipe such as /dev/null: nothing to replace
        return
    tmp = f"{target}.tmp{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_lines(path, lines) -> None:
    """The one writer of text outputs and text model files: each of `lines`
    and a newline to `path` as UTF-8, one write per line, so a generator
    streams and no lines make a 0-byte file. The file is staged: an error
    while writing or while `lines` yields leaves `path` as it was."""
    with staged(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
