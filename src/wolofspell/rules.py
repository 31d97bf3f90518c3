"""Phonotactic validation of candidate words.

Two Wolof writing conventions are enforced:

  INITIAL_STRONG     a word may not begin with a geminate consonant
                     (prenasalized consonants are fine word-initially);
  STRONG_AFTER_LONG  a strong consonant (geminate or prenasalized) may not
                     immediately follow a long vowel.

A word containing a character outside the Wolof alphabet fails outright
with FOREIGN_CHAR.

Because digraphs make segmentation ambiguous, the verdict quantifies over
parses: a word is valid when at least one parse satisfies both rules.
The quantification runs over orthographically faithful parses only, i.e.
parses that never read a doubled letter as two separate weak consonants or
short vowels: doubling is how Wolof spells geminates and long vowels, so
the split reading would let any rule violation escape through it ("ppa"
read as p+p+a).  Non-identical digraphs such as "mb" or "nt" keep both
readings, which is what admits legitimate words like "jaambaar" (weak m
after the long vowel) that the greedy parse alone would reject.

``validate`` is linear in the word's length and does not recurse.  A dynamic
program runs left to right; its state at position i is the last grapheme of
each rule-abiding faithful parse of ``word[:i]``: the single ``word[i-1]``
or the digraph ``word[i-2:i]``, so at most two entries.  Each step checks
faithfulness, INITIAL_STRONG on a first grapheme and STRONG_AFTER_LONG
against the previous grapheme's class.  An invalid word reports the
violations of the greedy longest-match parse, which is the first faithful
parse in digraph-first order.
"""

from __future__ import annotations

from typing import NamedTuple

from .alphabet import (
    DIGRAPHS,
    GRAPHEME_CLASSES,
    WOLOF_CHARS,
    Grapheme,
    GraphemeClass,
    segment,
)

INITIAL_STRONG = "INITIAL_STRONG"
STRONG_AFTER_LONG = "STRONG_AFTER_LONG"
FOREIGN_CHAR = "FOREIGN_CHAR"

_GEMINATE = GraphemeClass.GEMINATE_CONSONANT
_PRENASALIZED = GraphemeClass.PRENASALIZED_CONSONANT
_LONG = GraphemeClass.LONG_VOWEL


class Violation(NamedTuple):
    rule: str
    index: int  # grapheme index (scalar index for FOREIGN_CHAR)


class RuleVerdict(NamedTuple):
    valid: bool
    violations: tuple[Violation, ...] = ()


_VALID = RuleVerdict(True)


def parse_violations(parse: list[Grapheme]) -> tuple[Violation, ...]:
    """Rule violations of one concrete parse."""
    found = []
    for i, g in enumerate(parse):
        if i == 0:
            if g.cls is GraphemeClass.GEMINATE_CONSONANT:
                found.append(Violation(INITIAL_STRONG, 0))
        elif g.is_strong and parse[i - 1].cls is GraphemeClass.LONG_VOWEL:
            found.append(Violation(STRONG_AFTER_LONG, i))
    return tuple(found)


def validate(word: str) -> RuleVerdict:
    """Check ``word`` against the writing conventions.

    ``word`` must be normalized (lowercase NFC).  Valid when some faithful
    parse violates neither rule; otherwise the violations of the first
    failing parse (the greedy one) are reported.  A non-Wolof character is
    reported as FOREIGN_CHAR with its scalar index, never as an exception.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    if not WOLOF_CHARS.issuperset(word):
        index = next(i for i, c in enumerate(word) if c not in WOLOF_CHARS)
        return RuleVerdict(False, (Violation(FOREIGN_CHAR, index),))
    if _some_parse_is_valid(word):
        return _VALID
    return RuleVerdict(False, parse_violations(segment(word)))


def _some_parse_is_valid(word: str) -> bool:
    """True when some faithful parse of ``word`` breaks neither rule."""
    # Every long and strong grapheme is a digraph: a single scalar breaks no
    # rule, and only a digraph can be the long vowel before a strong one.
    n = len(word)
    # single[i]: some rule-abiding faithful parse of word[:i] ends in the
    # scalar word[i-1].  pair[i]: the class of word[i-2:i] when some such
    # parse ends in that digraph, else None.
    single = [False] * (n + 1)
    pair = [None] * (n + 1)
    for i in range(1, n + 1):
        j = i - 1
        doubled = j > 0 and word[j - 1] == word[j] and word[j - 1:i] in DIGRAPHS
        single[i] = j == 0 or pair[j] is not None or (single[j] and not doubled)
        cls = GRAPHEME_CLASSES.get(word[i - 2:i]) if i >= 2 else None
        if cls is None:
            continue
        j = i - 2
        if j == 0:
            ok = cls is not _GEMINATE
        else:
            strong = cls is _GEMINATE or cls is _PRENASALIZED
            ok = single[j] or (pair[j] is not None
                               and not (strong and pair[j] is _LONG))
        if ok:
            pair[i] = cls
    return single[n] or pair[n] is not None
