"""Reference results the benchmark checks the program's outputs against.

These share nothing with the trie search or the evaluation harness: a
correction list is a linear scan of ``weighted_levenshtein`` over every
lexicon word, the behaviour contract of the acceptance suite's criterion 2,
and corpus scores are recomputed from those lists.
"""

from __future__ import annotations

from wolofspell.distance import weighted_levenshtein


def top_k(query: str, words: list[str], k: int) -> tuple[tuple[str, int], ...]:
    """The k cheapest (word, cost) pairs, ranked by (cost, word), ties included."""
    scored = sorted((weighted_levenshtein(query, w), w) for w in words)
    return tuple((w, c) for c, w in scored[:k])


def unit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, full-matrix form."""
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)]
         for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def eval_scores(invalid):
    """Suggestion adequacy, mean reciprocal rank and wrong-correction histogram.

    ``invalid`` holds one (word, gold, reference list) triple per invalid
    corpus entry, in corpus order.
    """
    hits = 0
    reciprocal = 0.0
    wrong: dict[int, int] = {}
    for word, gold, ranked in invalid:
        words = [w for w, _ in ranked]
        if words and words[0] == gold:
            hits += 1
        else:
            d = unit_distance(word, gold)
            wrong[d] = wrong.get(d, 0) + 1
        if gold in words:
            reciprocal += 1.0 / (words.index(gold) + 1)
    n = len(invalid)
    return (hits / n if n else 0.0, reciprocal / n if n else 0.0,
            dict(sorted(wrong.items())))
