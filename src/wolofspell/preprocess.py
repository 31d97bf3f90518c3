"""Input cleaning: the one tokenizer, the one word rule, input files.

``tokens`` reads text the way the checker does: punctuation marks become
spaces, the text is lowercased and NFC-composed, and split on whitespace.
``word`` is the word rule for lexicon, corpus, exclusion-list and command
line words: each must read as exactly one token, and stands for it.

Every input, the input files and ``check``'s INPUT alike, is read a line at
a time by ``utf8_lines``: strict UTF-8, universal newlines, less one leading
byte-order mark.  In the input files (lexicon, corpus, costs, transliteration
rules, config, exclusion list), read through ``content_lines``, ``#`` starts
a comment to the end of the line, and an error in a row names ``path:line``.
Bundled files are in ``DATA_DIR``.
"""

from __future__ import annotations

import io
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


def tokens(text: str) -> list[str]:
    """The normalized tokens of ``text``, in order."""
    return normalize(strip_punctuation(text)).split()


def word(text: str, error=ValueError, what: str = "word") -> str:
    """The one token ``text`` reads as, else ``error`` naming it ``what``."""
    if text.isalpha():  # no punctuation or whitespace: one token as it is
        return normalize(text)
    found = tokens(text)
    if len(found) == 1:
        return found[0]
    shown = normalize(text.strip())
    if not found:
        raise error(f"no {what} in {shown!r}" if shown else f"empty {what}")
    if any(c.isspace() for c in shown):
        raise error(f"whitespace inside {what} {shown!r}")
    raise error(f"punctuation inside {what} {shown!r}")


def contains_digit(word: str) -> bool:
    # no alphabetic code point is a digit, so the common case skips the scan
    return not word.isalpha() and any(c.isdigit() for c in word)


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def utf8_lines(stream, name, error=ValueError):
    """The lines of the binary ``stream`` with their newlines, less one
    leading BOM, leaving it open; a non-UTF-8 byte raises ``error`` naming ``name``."""
    text = io.TextIOWrapper(stream, encoding="utf-8")
    try:
        for lineno, line in enumerate(text):  # not "utf-8-sig": slow to import
            yield line if lineno else line.removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise error(f"{name}: not UTF-8 text ({err.reason})") from None
    finally:
        if not stream.closed:  # the opener's ``with`` may have closed it
            text.detach()


def content_lines(path, parse, error=ValueError):
    """``(line number, parse(text))`` per line of a ``utf8_lines`` file.

    ``text`` is the line up to its first ``#``, without the newline and not
    otherwise stripped; a line left blank is skipped.  A ValueError from
    ``parse`` comes out as its own class with ``path:line: `` before it.
    """
    with open(path, "rb") as stream:
        for lineno, line in enumerate(utf8_lines(stream, path, error), 1):
            text = line.partition("#")[0].rstrip("\n")
            if text.strip():
                try:
                    row = parse(text)
                except ValueError as err:
                    raise type(err)(f"{path}:{lineno}: {err}") from None
                yield lineno, row


def load_exclusion_list(path) -> frozenset[str]:
    """Read an exclusion list: one word per line."""
    return frozenset(entry for _, entry in content_lines(path, word))
