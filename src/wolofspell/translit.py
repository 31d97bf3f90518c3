"""Rewriting of French-influenced spellings into Wolof orthography.

Wolof written with French habits shows compound sounds ("ou" for u, "gn"
for ñ, "kh" for x...) and letters the Wolof alphabet does not have.  The
transformer makes a single left-to-right pass over the word: at each
position the highest-priority longest-matching rule fires and the cursor
jumps past the matched pattern.  After the pass a word-final silent "e" is
dropped when it follows a consonant, and any remaining non-Wolof letter is
deleted.  Letter elimination has to come after rule application: patterns
like "kh" and "th" contain letters that elimination would destroy.

Rules live in a TSV file (``pattern<TAB>replacement<TAB>priority``, lower
priority fires first, empty replacement deletes the pattern); patterns and
replacements are lowercased and NFC-composed like tokens.  The bundled
default set is a starting point meant to be extended.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .alphabet import GraphemeClass, GraphemeInventory, default_inventory
from .preprocess import normalize, numbered_lines

MAX_PATTERN_LEN = 4


@dataclass(frozen=True)
class TranslitRule:
    pattern: str
    replacement: str
    priority: int = 10


class RuleSet:
    """Ordered transliteration rules: by priority, longest pattern first."""

    def __init__(self, rules, drop_final_e: bool = True):
        rules = list(rules)
        seen = set()
        for rule in rules:
            if not rule.pattern:
                raise ValueError("empty pattern")
            if rule.pattern in seen:
                raise ValueError(f"duplicate pattern {rule.pattern!r}")
            seen.add(rule.pattern)
        self.rules = sorted(rules, key=lambda r: (r.priority, -len(r.pattern)))
        self.drop_final_e = drop_final_e

    def match_at(self, word: str, i: int) -> TranslitRule | None:
        for rule in self.rules:
            if word.startswith(rule.pattern, i):
                return rule
        return None

    @classmethod
    def from_file(cls, path) -> "RuleSet":
        rules = []
        for lineno, line in numbered_lines(path):
            line = line.split("#", 1)[0].rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected pattern<TAB>replacement<TAB>priority")
            pattern, replacement = normalize(parts[0]), normalize(parts[1])
            if not 1 <= len(pattern) <= MAX_PATTERN_LEN:
                raise ValueError(f"{path}:{lineno}: pattern length out of range")
            try:
                priority = int(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: priority {parts[2]!r} is "
                                 f"not an integer") from None
            rules.append(TranslitRule(pattern, replacement, priority))
        return cls(rules)

    @classmethod
    def default(cls) -> "RuleSet":
        return _default_ruleset()


_DEFAULT: RuleSet | None = None


def _default_ruleset() -> RuleSet:
    global _DEFAULT
    if _DEFAULT is None:
        path = resources.files("wolofspell").joinpath("data/translit_rules.tsv")
        with resources.as_file(path) as p:
            _DEFAULT = RuleSet.from_file(p)
    return _DEFAULT


def transform(word: str, rules: RuleSet | None = None,
              inventory: GraphemeInventory | None = None) -> str:
    """Rewrite ``word`` (lowercase NFC) toward Wolof orthography.

    May return an empty string when nothing of the word survives letter
    elimination.
    """
    rules = rules or _default_ruleset()
    inventory = inventory or default_inventory()

    out = []
    i = 0
    while i < len(word):
        rule = rules.match_at(word, i)
        if rule is not None:
            out.append(rule.replacement)
            i += len(rule.pattern)
        else:
            out.append(word[i])
            i += 1
    rewritten = "".join(out)

    if (rules.drop_final_e and rewritten.endswith("e") and len(rewritten) >= 2
            and _is_consonant(rewritten[-2], inventory)):
        rewritten = rewritten[:-1]

    return "".join(c for c in rewritten if c in inventory.chars)


def _is_consonant(c: str, inventory: GraphemeInventory) -> bool:
    return (c in inventory.chars
            and inventory.grapheme(c).cls is GraphemeClass.WEAK_CONSONANT)
