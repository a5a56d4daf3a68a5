"""The candidate dump: what `decode --dump` writes and `rerank` and
`oracle-bleu` read, one tab-separated line per candidate, by sentence and
then rank, together with the Candidate named tuple it holds. Numpy-free,
so stages that only read a dump start without loading numpy.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConfigError, InputFormatError


# One hypothesis and its scores. Immutable: noisy-channel re-ranking returns
# new candidates with rev_logprob, lm_logprob and combined_score filled. The
# search sets fused_score, which the dump does not hold, so a parsed
# candidate has none.
Candidate = namedtuple("Candidate", "tokens fwd_logprob lm_logprob rev_logprob fused_score "
                       "combined_score", defaults=(None, None, None, None))


def strip_eos(tokens, eos_id: int | None) -> list[int]:
    """The tokens without one trailing eos; eos_id None strips nothing."""
    if eos_id is not None and eos_id < 0:
        raise ConfigError(f"eos_id must be >= 0, got {eos_id}")
    tokens = list(tokens)
    if eos_id is not None and tokens and tokens[-1] == eos_id:
        tokens.pop()
    return tokens


def _fmt_opt(value: float | None) -> str:
    return "-" if value is None else repr(float(value))


def _parse_opt(text: str) -> float | None:
    return None if text == "-" else float(text)


def _line(idx: int, rank: int, cand: Candidate) -> str:
    """The dump line of a candidate: idx, rank, fwd, lm, rev, combined, tokens."""
    return "\t".join([str(idx), str(rank), repr(float(cand.fwd_logprob)),
                      _fmt_opt(cand.lm_logprob), _fmt_opt(cand.rev_logprob),
                      _fmt_opt(cand.combined_score), ",".join(str(t) for t in cand.tokens)])


def format_candidates(cands_per_sentence) -> list[str]:
    """One line per candidate, by sentence and then rank."""
    return [_line(idx, rank, cand) for idx, cands in enumerate(cands_per_sentence)
            for rank, cand in enumerate(cands)]


def parse_candidates(lines) -> list[list[Candidate]]:
    """Inverse of format_candidates for lines as a file yields them: each must
    be, byte for byte, the line format_candidates writes for the candidate
    read from it (no CRLF line, no number in another form), in its order:
    sentence 0 at ranks 0, 1, ..., then sentence 1, and so on. Any other line
    or order, or a NaN score (-inf is a legal log-probability), raises
    InputFormatError naming the line."""
    sentences: list[list[Candidate]] = []
    for line_no, line in enumerate(lines, start=1):
        cols = line.removesuffix("\n").split("\t")
        if len(cols) != 7:
            raise InputFormatError(
                f"dump line {line_no}: expected 7 tab-separated columns, got {len(cols)}")
        idx, rank = int(cols[0]), int(cols[1])
        tokens = tuple(int(t) for t in cols[6].split(",")) if cols[6] else ()
        cand = Candidate(tokens, float(cols[2]), _parse_opt(cols[3]), _parse_opt(cols[4]),
                         combined_score=_parse_opt(cols[5]))
        want = _line(idx, rank, cand) + "\n"
        if line != want:
            raise InputFormatError(f"dump line {line_no}: expected {want!r}, got {line!r}")
        if "nan" in cols[2:6]:  # the one spelling of a NaN that format_candidates writes
            raise InputFormatError(f"dump line {line_no}: a score is NaN")
        if (idx, rank) == (len(sentences), 0):
            sentences.append([cand])
        elif sentences and (idx, rank) == (len(sentences) - 1, len(sentences[-1])):
            sentences[-1].append(cand)
        else:
            raise InputFormatError(f"dump line {line_no}: sentence {idx} rank {rank} is out of order")
    return sentences
