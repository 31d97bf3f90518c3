"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written from scratch against the standard
alphabet tables and definitions, without importing the package's own
inventories or algorithms, so that a bug in the package cannot hide itself.
"""

import re

WEAK = {"p", "t", "c", "k", "q", "b", "d", "j", "g", "m",
        "n", "ñ", "ŋ", "f", "r", "s", "x", "w", "l", "y"}
GEMINATE = {"pp", "tt", "cc", "kk", "bb", "dd", "jj", "gg",
            "ŋŋ", "ww", "ll", "mm", "nn", "yy", "ññ", "qq"}
PRENASALIZED = {"mp", "nt", "nc", "nk", "nq", "mb", "nd", "nj", "ng"}
SHORT = {"a", "à", "ã", "i", "o", "ó", "u", "e", "ë", "é"}
LONG = {"ii", "uu", "éé", "óó", "ee", "oo", "aa"}

CHARS = WEAK | SHORT
DIGRAPHS = GEMINATE | PRENASALIZED | LONG

PAIR_COST_1 = {("a", "à"), ("a", "ã"), ("o", "ó"), ("e", "é"),
               ("e", "ë"), ("é", "ë"), ("x", "q")}
PAIR_COST_1 |= {(b, a) for a, b in PAIR_COST_1}


STANDARD_TABLES = {"weak": WEAK, "geminate": GEMINATE,
                   "prenasalized": PRENASALIZED, "short": SHORT, "long": LONG}


def classify(g: str) -> str:
    for name, table in STANDARD_TABLES.items():
        if g in table:
            return name
    raise AssertionError(f"not a grapheme: {g!r}")


def enumerate_parses(word: str) -> list[list[str]] | None:
    """All grapheme parses (digraph reading first), None on a foreign char."""
    if not word or any(c not in CHARS for c in word):
        return None
    parses = []

    def rec(i, acc):
        if i == len(word):
            parses.append(list(acc))
            return
        two = word[i:i + 2]
        if two in DIGRAPHS:
            rec(i + 2, acc + [two])
        rec(i + 1, acc + [word[i]])

    rec(0, [])
    return parses


def faithful_parses(word: str) -> list[list[str]] | None:
    """Parses that never read a doubled letter as two identical singles."""
    parses = enumerate_parses(word)
    if parses is None:
        return None
    kept = []
    for parse in parses:
        if any(len(a) == 1 and a == b and a + b in DIGRAPHS
               for a, b in zip(parse, parse[1:])):
            continue
        kept.append(parse)
    return kept


def parse_rule_violations(parse: list[str]) -> list[tuple[str, int]]:
    found = []
    for i, g in enumerate(parse):
        cls = classify(g)
        if i == 0 and cls == "geminate":
            found.append(("INITIAL_STRONG", 0))
        elif i > 0 and cls in ("geminate", "prenasalized") \
                and classify(parse[i - 1]) == "long":
            found.append(("STRONG_AFTER_LONG", i))
    return found


def rule_check(word: str) -> tuple[bool, list[tuple[str, int]]]:
    """(valid, violations-of-first-failing-parse); foreign chars -> invalid."""
    parses = faithful_parses(word)
    if parses is None:
        index = next(i for i, c in enumerate(word) if c not in CHARS)
        return False, [("FOREIGN_CHAR", index)]
    first_failure = None
    for parse in parses:
        violations = parse_rule_violations(parse)
        if not violations:
            return True, []
        if first_failure is None:
            first_failure = violations
    return False, first_failure


def wld_recursive(w1: str, w2: str, ins: int = 1, dele: int = 1) -> int:
    """Weighted distance straight from the recursive definition.

    Deliberately unmemoized, so it shares nothing with the dynamic program
    beyond the recurrence itself; exponential, so keep inputs short.
    ``ins``/``dele`` price inserting a character of ``w2`` and deleting one
    of ``w1``.
    """
    if not w1:
        return ins * len(w2)
    if not w2:
        return dele * len(w1)
    a, b = w1[-1], w2[-1]
    sub = 0 if a == b else (1 if (a, b) in PAIR_COST_1 else 2)
    return min(wld_recursive(w1[:-1], w2, ins, dele) + dele,
               wld_recursive(w1, w2[:-1], ins, dele) + ins,
               wld_recursive(w1[:-1], w2[:-1], ins, dele) + sub)


def lev_recursive(w1: str, w2: str) -> int:
    if not w1:
        return len(w2)
    if not w2:
        return len(w1)
    return min(lev_recursive(w1[:-1], w2) + 1,
               lev_recursive(w1, w2[:-1]) + 1,
               lev_recursive(w1[:-1], w2[:-1]) + (w1[-1] != w2[-1]))


def transliterate(word: str, rules: dict[str, str]) -> str:
    """Rule rewriting by one regular expression, then the final-"e" drop
    and letter elimination.

    The patterns are tried longest first at each position, as alternatives
    of a single ``re.sub`` scanning left to right, so a replacement is never
    rewritten again.
    """
    if rules:
        patterns = sorted(rules, key=len, reverse=True)
        word = re.sub("|".join(map(re.escape, patterns)),
                      lambda m: rules[m.group()], word)
    if word.endswith("e") and len(word) >= 2 and word[-2] in WEAK:
        word = word[:-1]
    return "".join(c for c in word if c in CHARS)
