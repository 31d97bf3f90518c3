"""Weighted Levenshtein distance with per-pair substitution costs.

Insertions and deletions cost 1 per character.  Substituting a character
for itself is free; substituting within one of the listed accent-confusion
couples costs 1; any other substitution costs 2.  The default couples cover
the accents Wolof writers drop most often, plus the x/q spelling variation:

    (a, à)  (a, ã)  (o, ó)  (e, é)  (e, ë)  (é, ë)  (x, q)

Costs are small integers and are accumulated exactly, so ties in the
suggestion ranking are reliable.  ``weighted_levenshtein`` is the O(n·m)
dynamic program; ``plain_edit_distance`` is the same program under the
unit-cost model.
"""

from __future__ import annotations

from typing import NamedTuple

from .preprocess import content_lines, normalize


DEFAULT_SUBSTITUTION_PAIRS = (
    ("a", "à"),
    ("a", "ã"),
    ("o", "ó"),
    ("e", "é"),
    ("e", "ë"),
    ("é", "ë"),
    ("x", "q"),
)


def _symmetric(pairs) -> dict[tuple[str, str], int]:
    """Cost 1 for each couple, both ways."""
    table = {}
    for a, b in pairs:
        table[a, b] = table[b, a] = 1
    return table


# Shared by every model built with the default overrides; never mutated.
_DEFAULT_OVERRIDES = _symmetric(DEFAULT_SUBSTITUTION_PAIRS)


class CostModel(NamedTuple):
    """Insert/delete/substitute costs; the default model is the table above."""

    insert: int = 1
    delete: int = 1
    substitution_overrides: dict[tuple[str, str], int] = _DEFAULT_OVERRIDES
    mismatch: int = 2

    def substitute_cost(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return self.substitution_overrides.get((a, b), self.mismatch)

    @classmethod
    def unit(cls) -> "CostModel":
        """Classic Levenshtein: every operation costs 1."""
        return cls(substitution_overrides={}, mismatch=1)

    @classmethod
    def from_file(cls, path) -> "CostModel":
        """Load substitution overrides: ``char1<TAB>char2<TAB>cost`` lines.

        They replace the default couples: any unlisted unequal pair costs 2.
        Characters are lowercased and NFC-composed like tokens, and each must
        then be a single scalar.  The two must differ, and a couple is given
        once: its cost holds both ways.
        """
        table: dict[tuple[str, str], int] = {}
        for lineno, (a, b, cost) in content_lines(path, _cost_row):
            if (a, b) in table:
                raise ValueError(f"{path}:{lineno}: duplicate couple {a!r}, {b!r}")
            table[a, b] = table[b, a] = cost
        return cls(substitution_overrides=table)


def _cost_row(text: str) -> tuple[str, str, int]:
    parts = text.strip().split("\t")
    if len(parts) != 3:
        raise ValueError("expected char1<TAB>char2<TAB>cost")
    a, b = normalize(parts[0]), normalize(parts[1])
    if len(a) != 1 or len(b) != 1:
        raise ValueError(f"{a!r} and {b!r} must be one character each")
    if a == b:
        raise ValueError(f"{a!r} is paired with itself")
    try:
        cost = int(parts[2])
    except ValueError:
        raise ValueError(f"cost {parts[2]!r} is not an integer") from None
    if cost < 0:
        raise ValueError("negative cost")
    return a, b, cost


def weighted_levenshtein(w1: str, w2: str, model: CostModel | None = None) -> int:
    """Minimum total cost of transforming ``w1`` into ``w2``.

    Single-row dynamic program over the (|w1|+1) x (|w2|+1) cost matrix:
    row/column 0 accumulate insert/delete costs, every other cell takes the
    cheapest of the three transitions.
    """
    model = model or CostModel()
    ins, dele, sub = model.insert, model.delete, model.substitute_cost
    prev = [j * ins for j in range(len(w2) + 1)]
    for i, a in enumerate(w1, 1):
        curr = [i * dele]
        for j, b in enumerate(w2):
            curr.append(min(prev[j + 1] + dele,
                            curr[j] + ins,
                            prev[j] + sub(a, b)))
        prev = curr
    return prev[-1]


_UNIT_MODEL = CostModel.unit()


def plain_edit_distance(w1: str, w2: str) -> int:
    """Classic unit-cost Levenshtein distance."""
    return weighted_levenshtein(w1, w2, _UNIT_MODEL)
