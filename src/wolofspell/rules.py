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

``validate`` is linear in the word's length and does not recurse.  It checks
the greedy longest-match parse first; that parse is always faithful, as it
reads a single scalar x only where ``word[i:i+2]`` is not a digraph.  Only
when it breaks a rule does a dynamic program run.  Its state at position i
is the last grapheme of each rule-abiding faithful parse of ``word[:i]``:
the single ``word[i-1]`` or the digraph ``word[i-2:i]``, so at most two
entries.  Each step checks faithfulness, INITIAL_STRONG on a first grapheme
and STRONG_AFTER_LONG against the previous grapheme's class.  An invalid
word reports the violations of the greedy parse, which is the first
faithful parse in digraph-first order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alphabet import Grapheme, GraphemeClass, GraphemeInventory, default_inventory

INITIAL_STRONG = "INITIAL_STRONG"
STRONG_AFTER_LONG = "STRONG_AFTER_LONG"
FOREIGN_CHAR = "FOREIGN_CHAR"

_GEMINATE = GraphemeClass.GEMINATE_CONSONANT
_PRENASALIZED = GraphemeClass.PRENASALIZED_CONSONANT
_LONG = GraphemeClass.LONG_VOWEL


@dataclass(frozen=True)
class Violation:
    rule: str
    index: int  # grapheme index (scalar index for FOREIGN_CHAR)


@dataclass(frozen=True)
class RuleVerdict:
    valid: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)


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


def validate(word: str, inventory: GraphemeInventory | None = None) -> RuleVerdict:
    """Check ``word`` against the writing conventions.

    ``word`` must be normalized (lowercase NFC).  Valid when some faithful
    parse violates neither rule; otherwise the violations of the first
    failing parse (the greedy one) are reported.  A non-Wolof character is
    reported as FOREIGN_CHAR with its scalar index, never as an exception.
    """
    inventory = inventory or default_inventory()
    if not word:
        raise ValueError("cannot segment an empty word")
    if not inventory.chars.issuperset(word):
        index = next(i for i, c in enumerate(word) if c not in inventory.chars)
        return RuleVerdict(False, (Violation(FOREIGN_CHAR, index),))
    if _greedy_is_valid(word, inventory) or _some_parse_is_valid(word, inventory):
        return _VALID
    return RuleVerdict(False, parse_violations(inventory.segment(word)))


def _greedy_is_valid(word: str, inventory: GraphemeInventory) -> bool:
    """True when the greedy parse of ``word`` breaks neither rule."""
    class_of = inventory.class_of
    prev = None
    i, n = 0, len(word)
    while i < n:
        # At the last scalar ``word[i:i + 2]`` is that scalar itself, and
        # stepping 2 still ends the loop.
        cls = class_of(word[i:i + 2])
        if cls is None:
            cls = class_of(word[i])
            i += 1
        else:
            i += 2
        if cls is _GEMINATE or cls is _PRENASALIZED:
            if prev is _LONG or (prev is None and cls is _GEMINATE):
                return False
        prev = cls
    return True


def _some_parse_is_valid(word: str, inventory: GraphemeInventory) -> bool:
    """True when some faithful parse of ``word`` breaks neither rule."""
    n = len(word)
    # ends[size][i]: class of the grapheme word[i-size:i] when it ends some
    # rule-abiding faithful parse of word[:i], else None.
    ends = {1: [None] * (n + 1), 2: [None] * (n + 1)}
    for i in range(1, n + 1):
        for size in (1, 2):
            j = i - size
            cls = inventory.class_of(word[j:i]) if j >= 0 else None
            if cls is None:
                continue
            if j == 0:
                ok = cls is not _GEMINATE
            else:
                strong = cls is _GEMINATE or cls is _PRENASALIZED
                doubled = (size == 1 and word[j - 1] == word[j]
                           and word[j - 1:i] in inventory.digraphs)
                ok = any(prev is not None and not (strong and prev is _LONG)
                         for prev in (ends[2][j], None if doubled else ends[1][j]))
            if ok:
                ends[size][i] = cls
    return ends[1][n] is not None or ends[2][n] is not None
