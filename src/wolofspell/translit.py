"""Rewriting of French-influenced spellings into Wolof orthography.

Wolof written with French habits shows compound sounds ("ou" for u, "gn"
for ñ, "kh" for x...) and letters the Wolof alphabet does not have.  The
transformer makes a single left-to-right pass over the word: at each
position the longest matching pattern fires and the cursor jumps past it.
After the pass a word-final silent "e" is dropped when it follows a
consonant, and any remaining non-Wolof letter is deleted.  Letter
elimination has to come after rule application: patterns like "kh" and
"th" contain letters that elimination would destroy.

Rules live in a TSV file (``pattern<TAB>replacement``, empty replacement
deletes the pattern), or in a mapping given to ``RuleSet``, which is read
the same way: patterns and replacements are lowercased and NFC-composed
like tokens, a replacement is trimmed, no pattern holds whitespace, as no
token does, and no two patterns are the same once normalized.  A rule
file replaces the bundled default set rather than adding to it: to extend
the bundled set, copy ``data/translit_rules.tsv`` and add rows to the copy.
"""

from __future__ import annotations

import os
from typing import Mapping

from .alphabet import WEAK_CONSONANTS, WOLOF_CHARS
from .preprocess import DATA_DIR, content_lines, normalize

MAX_PATTERN_LEN = 4


def _rule(*columns: str) -> tuple[str, str]:
    """A rule file's row, or a mapping's item, as the rule it is kept as."""
    if len(columns) != 2:
        raise ValueError("expected pattern<TAB>replacement")
    pattern = normalize(columns[0])
    if not 1 <= len(pattern) <= MAX_PATTERN_LEN:
        raise ValueError(f"pattern {pattern!r} is not 1 to {MAX_PATTERN_LEN} letters")
    if any(c.isspace() for c in pattern):
        raise ValueError(f"whitespace in pattern {pattern!r}")
    return pattern, normalize(columns[1].strip())


class RuleSet:
    """Transliteration rules: each pattern maps to its replacement, both
    read like a rule file's row (see the module docstring)."""

    def __init__(self, rules: Mapping[str, str]):
        self.rules = {}
        for pattern, replacement in map(_rule, rules.keys(), rules.values()):
            if pattern in self.rules:
                raise ValueError(f"duplicate pattern {pattern!r}")
            self.rules[pattern] = replacement

    @classmethod
    def from_file(cls, path) -> "RuleSet":
        rules = {}
        rows = content_lines(path, lambda text: _rule(*text.split("\t")))
        for lineno, (pattern, replacement) in rows:
            if pattern in rules:
                raise ValueError(f"{path}:{lineno}: duplicate pattern {pattern!r}")
            rules[pattern] = replacement
        return cls(rules)


_DEFAULT: RuleSet | None = None


def _default_ruleset() -> RuleSet:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = RuleSet.from_file(os.path.join(DATA_DIR, "translit_rules.tsv"))
    return _DEFAULT


def transform(word: str, rules: RuleSet | None = None) -> str:
    """Rewrite ``word`` (lowercase NFC) toward Wolof orthography.

    May return an empty string when nothing of the word survives letter
    elimination.
    """
    table = (_default_ruleset() if rules is None else rules).rules

    out = []
    i, n = 0, len(word)
    while i < n:
        for size in range(min(MAX_PATTERN_LEN, n - i), 0, -1):
            replacement = table.get(word[i:i + size])
            if replacement is not None:
                out.append(replacement)
                i += size
                break
        else:
            out.append(word[i])
            i += 1
    rewritten = "".join(out)

    if (rewritten.endswith("e") and len(rewritten) >= 2
            and rewritten[-2] in WEAK_CONSONANTS):
        rewritten = rewritten[:-1]

    return "".join(c for c in rewritten if c in WOLOF_CHARS)
