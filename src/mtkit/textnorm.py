"""Punctuation normalization, word tokenization, and German quote post-processing.

The normalizer applies one fixed, ordered rewrite table in the style of the
Moses punctuation normalizer (straight quotes, single spaces, ascii dashes):
a tuple of compiled (pattern, replacement) pairs. The tokenizer splits
punctuation off words with the shipped non-breaking-prefix list of its
language (en, de or ru); `detokenize` inverts it on canonically spaced text.
Everything here is a pure function over immutable tables.
"""

from __future__ import annotations

import re
from importlib import resources

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


def normalize_punct(text: str) -> str:
    """Rewrite text with the table above (total, idempotent)."""
    for pattern, repl in _DEFAULT_RULES:
        text = pattern.sub(repl, text)
    return text


# Tokenization: characters peeled off chunk edges. Apostrophes stay attached
# (a trailing possessive apostrophe is indistinguishable from a closing quote).
_LEADING = set("\"([{¿¡")
_TRAILING = set("\".,!?;:)]}%")
_CLOSING = set(".,!?;:)]}%")  # attach left on detokenization
_OPENING = set("([{¿¡")  # attach right on detokenization

# The languages with a shipped prefix list; the cache holds at most these.
_PREFIX_LANGS = ("en", "de", "ru")
_PREFIX_CACHE: dict[str, frozenset[str]] = {}


def nonbreaking_prefixes(lang: str) -> frozenset[str]:
    """Prefixes whose trailing period stays attached: the shipped list of
    `lang` (one per line, UTF-8), or the empty set for a code without one."""
    if lang not in _PREFIX_LANGS:
        return frozenset()
    if lang not in _PREFIX_CACHE:
        raw = resources.files("mtkit.data").joinpath(f"{lang}_prefixes.txt").read_text("utf-8")
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
