"""Wolof character and grapheme inventories, plus grapheme segmentation.

The Wolof writing system distinguishes weak consonants, geminate (doubled)
consonants, prenasalized consonants, short vowels and long (doubled) vowels.
Geminates and prenasalized consonants together form the "strong" class.
A grapheme is one or two Unicode scalars; segmentation cuts a word into
graphemes by greedy longest match.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum


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


@dataclass(frozen=True)
class Grapheme:
    text: str
    cls: GraphemeClass

    @property
    def is_strong(self) -> bool:
        return self.cls in STRONG_CLASSES

    def __str__(self) -> str:
        return self.text


class GraphemeInventory:
    """The five grapheme classes and the segmentation operations over them.

    The default inventory is the standard Wolof one; an alternative may be
    loaded from a tab-separated file for experimentation (one line per
    grapheme: ``text<TAB>class`` with class one of ``weak_consonant``,
    ``geminate_consonant``, ``prenasalized_consonant``, ``short_vowel``,
    ``long_vowel``; ``#`` starts a comment).
    """

    def __init__(self, classes: dict[GraphemeClass, frozenset[str]]):
        self.classes = classes
        self._by_text: dict[str, GraphemeClass] = {}
        for cls, texts in classes.items():
            for text in texts:
                if text in self._by_text:
                    raise ValueError(f"grapheme {text!r} listed in two classes")
                self._by_text[text] = cls
        self.chars = frozenset(t for t in self._by_text if len(t) == 1)
        self.digraphs = frozenset(t for t in self._by_text if len(t) == 2)

    @classmethod
    def default(cls) -> "GraphemeInventory":
        return cls({
            GraphemeClass.WEAK_CONSONANT: WEAK_CONSONANTS,
            GraphemeClass.GEMINATE_CONSONANT: GEMINATE_CONSONANTS,
            GraphemeClass.PRENASALIZED_CONSONANT: PRENASALIZED_CONSONANTS,
            GraphemeClass.SHORT_VOWEL: SHORT_VOWELS,
            GraphemeClass.LONG_VOWEL: LONG_VOWELS,
        })

    @classmethod
    def from_file(cls, path) -> "GraphemeInventory":
        classes: dict[GraphemeClass, set[str]] = {c: set() for c in GraphemeClass}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected text<TAB>class")
                text = unicodedata.normalize("NFC", parts[0])
                classes[GraphemeClass(parts[1])].add(text)
        return cls({c: frozenset(s) for c, s in classes.items()})

    def grapheme(self, text: str) -> Grapheme:
        return Grapheme(text, self._by_text[text])

    def class_of(self, text: str) -> GraphemeClass | None:
        """The class of grapheme ``text``, or None when it is not one."""
        return self._by_text.get(text)

    def is_wolof_char(self, c: str) -> bool:
        """True iff ``c`` is a single scalar of the Wolof alphabet.

        Comparison is over the lowercase NFC form, so a precomposed or
        decomposed accented letter in any case is recognized.
        """
        c = unicodedata.normalize("NFC", c.lower())
        return len(c) == 1 and c in self.chars

    def segment(self, word: str) -> list[Grapheme]:
        """Cut ``word`` into graphemes by greedy longest match, left to right.

        ``word`` must already be lowercase and NFC-normalized.  Raises
        UnsegmentableError on the first scalar outside the alphabet.
        """
        self._check_segmentable(word)
        out = []
        i = 0
        while i < len(word):
            two = word[i:i + 2]
            if two in self.digraphs:
                out.append(self.grapheme(two))
                i += 2
            else:
                out.append(self.grapheme(word[i]))
                i += 1
        return out

    def _check_segmentable(self, word: str) -> None:
        if not word:
            raise ValueError("cannot segment an empty word")
        for i, c in enumerate(word):
            if c not in self.chars:
                raise UnsegmentableError(word, i)


_DEFAULT = GraphemeInventory.default()


def default_inventory() -> GraphemeInventory:
    return _DEFAULT


def is_wolof_char(c: str) -> bool:
    return _DEFAULT.is_wolof_char(c)


def segment(word: str) -> list[Grapheme]:
    return _DEFAULT.segment(word)
