"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written from scratch against the standard
alphabet tables and definitions, without importing the package's own
inventories or algorithms, so that a bug in the package cannot hide itself.
"""

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


def classify(g: str, tables: dict[str, set[str]] = STANDARD_TABLES) -> str:
    for name, table in tables.items():
        if g in table:
            return name
    raise AssertionError(f"not a grapheme: {g!r}")


def _graphemes(tables: dict[str, set[str]], size: int) -> set[str]:
    return {g for table in tables.values() for g in table if len(g) == size}


def enumerate_parses(word: str, tables: dict[str, set[str]] = STANDARD_TABLES
                     ) -> list[list[str]] | None:
    """All grapheme parses (digraph reading first), None on a foreign char.

    ``tables`` maps the class names ``weak``, ``geminate``, ``prenasalized``,
    ``short`` and ``long`` to their graphemes; the default is the standard
    Wolof inventory.
    """
    chars, digraphs = _graphemes(tables, 1), _graphemes(tables, 2)
    if not word or any(c not in chars for c in word):
        return None
    parses = []

    def rec(i, acc):
        if i == len(word):
            parses.append(list(acc))
            return
        two = word[i:i + 2]
        if two in digraphs:
            rec(i + 2, acc + [two])
        rec(i + 1, acc + [word[i]])

    rec(0, [])
    return parses


def faithful_parses(word: str, tables: dict[str, set[str]] = STANDARD_TABLES
                    ) -> list[list[str]] | None:
    """Parses that never read a doubled letter as two identical singles."""
    parses = enumerate_parses(word, tables)
    if parses is None:
        return None
    digraphs = _graphemes(tables, 2)
    kept = []
    for parse in parses:
        if any(len(a) == 1 and a == b and a + b in digraphs
               for a, b in zip(parse, parse[1:])):
            continue
        kept.append(parse)
    return kept


def parse_rule_violations(parse: list[str],
                          tables: dict[str, set[str]] = STANDARD_TABLES
                          ) -> list[tuple[str, int]]:
    found = []
    for i, g in enumerate(parse):
        cls = classify(g, tables)
        if i == 0 and cls == "geminate":
            found.append(("INITIAL_STRONG", 0))
        elif i > 0 and cls in ("geminate", "prenasalized") \
                and classify(parse[i - 1], tables) == "long":
            found.append(("STRONG_AFTER_LONG", i))
    return found


def rule_check(word: str, tables: dict[str, set[str]] = STANDARD_TABLES
               ) -> tuple[bool, list[tuple[str, int]]]:
    """(valid, violations-of-first-failing-parse); foreign chars -> invalid."""
    parses = faithful_parses(word, tables)
    if parses is None:
        chars = _graphemes(tables, 1)
        index = next(i for i, c in enumerate(word) if c not in chars)
        return False, [("FOREIGN_CHAR", index)]
    first_failure = None
    for parse in parses:
        violations = parse_rule_violations(parse, tables)
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
