"""Input cleaning: punctuation removal, normalization, input files.

Raw text goes through three steps before detection: every punctuation mark
is replaced by a space, the text is lowercased and NFC-composed, and the
result is split on whitespace into tokens (``SpellChecker.check_text`` does
the split).  Tokens containing digits are dropped.  An optional exclusion
list (for filtering known foreign words) can drop further tokens; it is off
unless a list is supplied.
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


def numbered_lines(path, error=ValueError):
    """``(line number, line)`` pairs of a UTF-8 text file, numbered from 1.

    Bytes that are not UTF-8 raise ``error`` naming the path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as err:
            raise error(f"{path}: not UTF-8 text ({err.reason})") from None


def load_exclusion_list(path) -> frozenset[str]:
    """Read an exclusion list: one word per line, ``#`` comments, UTF-8."""
    words = set()
    for _, line in numbered_lines(path):
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(normalize(word))
    return frozenset(words)
