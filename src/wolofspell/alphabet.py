"""The standard Wolof alphabet, its grapheme classes, and segmentation.

The Wolof writing system distinguishes weak consonants, geminate (doubled)
consonants, prenasalized consonants, short vowels and long (doubled) vowels.
Geminates and prenasalized consonants together form the "strong" class.
A grapheme is one or two Unicode scalars; every geminate, prenasalized
consonant and long vowel is a digraph.  The tables are fixed module data:
``GRAPHEME_CLASSES`` maps each grapheme to its class, and segmentation
cuts a word into graphemes by greedy longest match.
"""

from __future__ import annotations

import unicodedata
from enum import Enum
from typing import NamedTuple


class GraphemeClass(Enum):
    WEAK_CONSONANT = "weak_consonant"
    GEMINATE_CONSONANT = "geminate_consonant"
    PRENASALIZED_CONSONANT = "prenasalized_consonant"
    SHORT_VOWEL = "short_vowel"
    LONG_VOWEL = "long_vowel"


# 20 weak consonants
WEAK_CONSONANTS = frozenset({
    "p", "t", "c", "k", "q", "b", "d", "j", "g", "m",
    "n", "ñ", "ŋ", "f", "r", "s", "x", "w", "l", "y",
})

# 16 geminates
GEMINATE_CONSONANTS = frozenset({
    "pp", "tt", "cc", "kk", "bb", "dd", "jj", "gg",
    "ŋŋ", "ww", "ll", "mm", "nn", "yy", "ññ", "qq",
})

# 9 prenasalized consonants
PRENASALIZED_CONSONANTS = frozenset({
    "mp", "nt", "nc", "nk", "nq", "mb", "nd", "nj", "ng",
})

# 10 short vowels
SHORT_VOWELS = frozenset({
    "a", "à", "ã", "i", "o", "ó", "u", "e", "ë", "é",
})

# 7 long vowels; à, ã and ë have no long form
LONG_VOWELS = frozenset({
    "ii", "uu", "éé", "óó", "ee", "oo", "aa",
})

# Every single-scalar grapheme is a Wolof character; digraphs add nothing new.
WOLOF_CHARS = WEAK_CONSONANTS | SHORT_VOWELS

# The class of every grapheme, keyed by its text.
GRAPHEME_CLASSES: dict[str, GraphemeClass] = {
    text: cls
    for cls, texts in ((GraphemeClass.WEAK_CONSONANT, WEAK_CONSONANTS),
                       (GraphemeClass.GEMINATE_CONSONANT, GEMINATE_CONSONANTS),
                       (GraphemeClass.PRENASALIZED_CONSONANT, PRENASALIZED_CONSONANTS),
                       (GraphemeClass.SHORT_VOWEL, SHORT_VOWELS),
                       (GraphemeClass.LONG_VOWEL, LONG_VOWELS))
    for text in texts
}

DIGRAPHS = GEMINATE_CONSONANTS | PRENASALIZED_CONSONANTS | LONG_VOWELS

STRONG_CLASSES = frozenset({
    GraphemeClass.GEMINATE_CONSONANT,
    GraphemeClass.PRENASALIZED_CONSONANT,
})


class UnsegmentableError(ValueError):
    """Raised when a word contains a scalar outside the Wolof alphabet."""

    def __init__(self, word: str, index: int):
        self.word = word
        self.index = index
        super().__init__(f"{word!r} is not segmentable: "
                         f"non-Wolof character {word[index]!r} at index {index}")


class Grapheme(NamedTuple):
    text: str
    cls: GraphemeClass

    @property
    def is_strong(self) -> bool:
        return self.cls in STRONG_CLASSES

    def __str__(self) -> str:
        return self.text


def is_wolof_char(c: str) -> bool:
    """True iff ``c`` is a single scalar of the Wolof alphabet.

    Comparison is over the lowercase NFC form, so a precomposed or
    decomposed accented letter in any case is recognized.
    """
    c = unicodedata.normalize("NFC", c.lower())
    return len(c) == 1 and c in WOLOF_CHARS


def segment(word: str) -> list[Grapheme]:
    """Cut ``word`` into graphemes by greedy longest match, left to right.

    ``word`` must already be lowercase and NFC-normalized.  Raises
    UnsegmentableError on the first scalar outside the alphabet.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    for i, c in enumerate(word):
        if c not in WOLOF_CHARS:
            raise UnsegmentableError(word, i)
    out = []
    i = 0
    while i < len(word):
        text = word[i:i + 2] if word[i:i + 2] in DIGRAPHS else word[i]
        out.append(Grapheme(text, GRAPHEME_CLASSES[text]))
        i += len(text)
    return out
