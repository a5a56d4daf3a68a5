"""Exception types shared across mtkit modules, and the reader for text model files."""

import contextlib
import re


class MtkitError(Exception):
    """Base class for all mtkit errors."""


class ModelFormatError(MtkitError):
    """A model/config file does not match its declared format."""


@contextlib.contextmanager
def model_file(path, magic: str | None):
    """Open a UTF-8 text model file whose first word is `magic`.

    Yields (header, lines). header is the rest of the first line after the
    magic word and one space; with magic None no word is checked and header
    is the whole first line. lines yields (line number, line without its
    newline) for each later line, blank lines included, read from the file
    as the caller iterates, so no file is held in memory whole. A
    ValueError (UnicodeDecodeError included), IndexError or re.error raised
    inside the block becomes a ModelFormatError naming the file, so loaders
    parse fields with plain int(), float(), unpacking and indexing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            word, _, rest = first.partition(" ")
            if magic is None:
                rest = first
            elif word != magic:
                raise ModelFormatError(f"{path}: expected a {magic!r} header, got {word!r}")
            yield rest, ((n, line.rstrip("\n")) for n, line in enumerate(fh, start=2))
    except (ValueError, IndexError, re.error) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


class EmptyCorpusError(MtkitError):
    """An operation that needs a non-empty corpus received an empty one."""


class VocabTooSmallError(MtkitError):
    """Requested BPE vocab size leaves no room for any merge."""


class UnknownIdError(MtkitError):
    """A token id is outside the model vocabulary."""


class SingleClassCorpusError(MtkitError):
    """Language-ID training data contains fewer than two languages."""


class EmptyTextError(MtkitError):
    """Classification of empty text was requested."""


class EmptyClassError(MtkitError):
    """Domain-classifier training received an empty positive or negative class."""


class EmptyCorpusListError(MtkitError):
    """mix_sample received no corpora."""


class ShapeMismatchError(MtkitError):
    """Checkpoints disagree on the shape of a named tensor."""

    def __init__(self, name: str, msg: str | None = None):
        detail = f": {msg}" if msg else ""
        super().__init__(f"shape mismatch for tensor {name!r}{detail}")
        self.name = name


class NameSetMismatchError(MtkitError):
    """Checkpoints do not share an identical set of tensor names."""


class EmptyCheckpointListError(MtkitError):
    """checkpoint_average received an empty list."""


class VocabMismatchError(MtkitError):
    """Scorers with incompatible vocabularies were combined."""


class EmptyEnsembleError(MtkitError):
    """An ensemble was built from no scorers."""


class SearchSpaceTooLargeError(MtkitError):
    """exact_search would have to enumerate more than the allowed number of sequences."""


class NoCompletedHypothesisError(MtkitError):
    """Exhaustive search found no finite-score eos-terminated sequence."""


class EmptyCandidateListError(MtkitError):
    """Re-ranking or oracle selection received no candidates."""


class LengthMismatchError(MtkitError):
    """Hypothesis and reference lists differ in length."""


class EmptyReferenceError(MtkitError):
    """Sentence BLEU against an empty reference is undefined."""
