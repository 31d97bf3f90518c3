"""Input cleaning: punctuation removal, normalization, word tokenization.

Raw text goes through three steps before detection: every punctuation mark
is replaced by a space, the text is lowercased and NFC-composed, and the
result is split into tokens.  Tokens containing digits are dropped.  An
optional exclusion list (for filtering known foreign words) can drop further
tokens; it is off unless a list is supplied.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass


@dataclass(frozen=True)
class Token:
    surface: str
    position: int


def strip_punctuation(text: str) -> str:
    """Replace each Unicode punctuation scalar with a single space."""
    return "".join(" " if unicodedata.category(c).startswith("P") else c
                   for c in text)


def normalize(text: str) -> str:
    """Lowercase and NFC-compose ``text``."""
    return unicodedata.normalize("NFC", text.lower())


def contains_digit(word: str) -> bool:
    # no alphabetic code point is a digit, so the common case skips the scan
    return not word.isalpha() and any(c.isdigit() for c in word)


def tokenize(text: str, exclude: frozenset[str] | set[str] | None = None) -> list[Token]:
    """Split punctuation-stripped, normalized text into tokens.

    Splits on whitespace runs; tokens containing a digit, and tokens on the
    exclusion list, are dropped.  Positions number the kept tokens 0-based.
    """
    tokens = []
    for word in text.split():
        if contains_digit(word):
            continue
        if exclude and word in exclude:
            continue
        tokens.append(Token(word, len(tokens)))
    return tokens


def load_exclusion_list(path) -> frozenset[str]:
    """Read an exclusion list: one word per line, ``#`` comments, UTF-8."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.split("#", 1)[0].strip()
            if word:
                words.add(normalize(word))
    return frozenset(words)
