"""Input cleaning: punctuation removal, normalization, input files.

Raw text goes through three steps before detection: every punctuation mark
is replaced by a space, the text is lowercased and NFC-composed, and the
result is split on whitespace into tokens (``SpellChecker.check_text`` does
the split).  Tokens containing digits are dropped.  An optional exclusion
list (for filtering known foreign words) can drop further tokens; it is off
unless a list is supplied.

Every input file (lexicon, corpus, costs, transliteration rules, config,
exclusion list) is UTF-8 read through ``content_lines``, where ``#`` starts
a comment that runs to the end of the line.  Bundled files are in ``DATA_DIR``.
"""

from __future__ import annotations

import os
import unicodedata
from typing import NamedTuple


class MalformedInputError(ValueError):
    """A lexicon or corpus file breaks its format contract."""


class Token(NamedTuple):
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


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def content_lines(path, error=ValueError):
    """``(line number, text)`` for each line of a UTF-8 file, numbered from 1.

    ``text`` is the line up to its first ``#``, without the newline and not
    otherwise stripped; a line left blank is skipped.  Bytes that are not
    UTF-8 raise ``error`` naming the path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                text = line.partition("#")[0].rstrip("\n")
                if text.strip():
                    yield lineno, text
        except UnicodeDecodeError as err:
            raise error(f"{path}: not UTF-8 text ({err.reason})") from None


def load_exclusion_list(path) -> frozenset[str]:
    """Read an exclusion list: one word per line."""
    return frozenset(normalize(text.strip()) for _, text in content_lines(path))
