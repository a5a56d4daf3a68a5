"""Punctuation normalization, word tokenization, and German quote post-processing.

The normalizer applies an ordered rewrite table (straight quotes, single
spaces, ascii dashes): a tuple of compiled (pattern, replacement) pairs. The
tokenizer splits punctuation off words with a non-breaking-prefix list per
language; `detokenize` inverts it on canonically spaced text. Everything here
is a pure function over immutable rule tables.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import ModelFormatError, model_file

# Ordered (pattern, replacement) rewrites. No replacement may reintroduce a
# match for any rule, so a single pass is idempotent.
_DEFAULT_RULES = tuple((re.compile(p), r) for p, r in [
    (r"\r", ""),
    (r"[​‎‏﻿]", ""),
    (r"[     　]", " "),
    (r"[„“”‟«»″〝〞]", '"'),
    (r"[‘’‚‛‹›´ʹʼ`]", "'"),
    (r"''", '"'),
    (r"[–—‒―−]", "-"),
    (r"…", "..."),
    (r"[ \t]+", " "),
    (r"^ | $", ""),
])


def load_rules(path) -> tuple[tuple[re.Pattern[str], str], ...]:
    """Read an ordered rule table: header `normrules-v1 <tag>`, then
    pattern<TAB>replacement lines. The tag names the table and is not used."""
    rules = []
    with model_file(path, "normrules-v1") as (_, lines):
        for lineno, line in lines:
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ModelFormatError(f"line {lineno}: expected pattern<TAB>replacement")
            pattern = re.compile(parts[0])
            pattern.sub(parts[1], "")  # parses the replacement, so a bad one fails here
            rules.append((pattern, parts[1]))
    return tuple(rules)


def normalize_punct(text: str, rules: tuple[tuple[re.Pattern[str], str], ...] | None = None) -> str:
    """Rewrite text with `rules`, the default table for None (total, idempotent)."""
    for pattern, repl in _DEFAULT_RULES if rules is None else rules:
        text = pattern.sub(repl, text)
    return text


# Tokenization: characters peeled off chunk edges. Apostrophes stay attached
# (a trailing possessive apostrophe is indistinguishable from a closing quote).
_LEADING = set("\"([{¿¡")
_TRAILING = set("\".,!?;:)]}%")
_CLOSING = set(".,!?;:)]}%")  # attach left on detokenization
_OPENING = set("([{¿¡")  # attach right on detokenization

_PREFIX_CACHE: dict[str, frozenset[str]] = {}


def nonbreaking_prefixes(lang: str) -> frozenset[str]:
    """Per-language prefixes whose trailing period stays attached (one per line, UTF-8)."""
    if lang not in _PREFIX_CACHE:
        try:
            raw = resources.files("mtkit.data").joinpath(f"{lang}_prefixes.txt").read_text("utf-8")
        except FileNotFoundError:
            raw = ""
        _PREFIX_CACHE[lang] = frozenset(line.strip() for line in raw.splitlines() if line.strip())
    return _PREFIX_CACHE[lang]


def _split_chunk(chunk: str, prefixes: frozenset[str]) -> list[str]:
    head: list[str] = []
    while chunk and chunk[0] in _LEADING:
        head.append(chunk[0])
        chunk = chunk[1:]
    tail: list[str] = []
    while chunk:
        if chunk.endswith("...") and len(chunk) >= 3:
            tail.append("...")
            chunk = chunk[:-3]
        elif chunk[-1] == "." and chunk[:-1] in prefixes:
            break
        elif chunk[-1] in _TRAILING:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        else:
            break
    return head + ([chunk] if chunk else []) + tail[::-1]


def word_tokenize(text: str, lang: str = "en") -> list[str]:
    """Split normalized text into surface tokens (punctuation separated from words)."""
    prefixes = nonbreaking_prefixes(lang)
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk, prefixes))
    return tokens


def detokenize(tokens: list[str]) -> str:
    """Join tokens back into a sentence; inverse of word_tokenize on canonically spaced text."""
    out: list[str] = []
    quote_open = False
    glue_next = False
    for tok in tokens:
        if tok == '"':
            if quote_open:
                out.append(tok)  # closing: attach left
            else:
                if out and not glue_next:
                    out.append(" ")
                out.append(tok)
            glue_next = not quote_open
            quote_open = not quote_open
            continue
        if tok in _CLOSING or tok == "...":
            out.append(tok)
            glue_next = False
            continue
        if tok in _OPENING:
            if out and not glue_next:
                out.append(" ")
            out.append(tok)
            glue_next = True
            continue
        if out and not glue_next:
            out.append(" ")
        out.append(tok)
        glue_next = False
    return "".join(out)


def german_quote_postprocess(text: str) -> str:
    """Replace each paired ASCII double-quote span "x" with „x“; unpaired quotes stay."""
    positions = [i for i, ch in enumerate(text) if ch == '"']
    chars = list(text)
    for k in range(len(positions) // 2):
        chars[positions[2 * k]] = "„"
        chars[positions[2 * k + 1]] = "“"
    return "".join(chars)
