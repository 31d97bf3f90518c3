"""Correction candidates from a trie walk with edit-distance pruning.

One dynamic-programming row (indexed by query prefix, length |query|+1) is
carried down every trie edge, so words sharing a prefix share the work of
the distance computation.  Substitution costs are looked up once per query
and trie character (a column over the query), not once per cell.

A subtree is abandoned when a lower bound on the cost of every word in it
exceeds the cost ceiling (the current k-th best cost, or the caller's cap).
Pruning on a strictly-greater bound keeps ties intact.  Two admissible
bounds are combined into one.  All edit costs are non-negative, so a word
below the node costs at least ``row[i]`` plus the cost of turning the rest
of the query, ``query[i:]``, into the rest of the word, for some i; taking
that second cost as 0 gives the row minimum, Ukkonen's cut-off.  The rest
of the word has between ``lo`` and ``hi`` characters (stored on each trie
node), so turning ``query[i:]`` into it takes at least one insertion per
missing character or one deletion per extra one.  The bound used is the
minimum over i of ``row[i]`` plus that length penalty, never below the row
minimum.

The walk is iterative, on an explicit stack, so word length is not limited
by recursion depth.  A node's bound is checked again when it is popped,
since the ceiling may have fallen since it was pushed, and siblings are
pushed so that the one with the lowest bound is visited first.  Every word
that is not pruned is offered with its exact cost, and a pruned word costs
more than a ceiling that never rises again, so visit order changes how much
is pruned, never the result: the pruned walk returns exactly what a full
scan would.

Candidates rank by (cost, word): cheapest first, lexicographic among equals.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import NamedTuple

from .distance import CostModel, default_cost_model
from .lexicon import TrieDict


_bound = itemgetter(0)


class EmptyLexiconError(ValueError):
    """Suggestions requested against a lexicon with no words."""


class Suggestion(NamedTuple):
    word: str
    cost: int


# A dataclass, not a NamedTuple: it is mutable and dataclasses.replace rebuilds it.
@dataclass
class SuggestionList:
    items: list[Suggestion]
    query: str
    nodes_expanded: int = field(default=0, compare=False)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def words(self) -> list[str]:
        return [s.word for s in self.items]

    def rank_of(self, word: str) -> int | None:
        """1-based rank of ``word`` in the list, None when absent."""
        for rank, s in enumerate(self.items, 1):
            if s.word == word:
                return rank
        return None


def suggest(query: str, trie: TrieDict, model: CostModel | None = None,
            k: int = 10, max_cost: int | None = None,
            prune: bool = True) -> SuggestionList:
    """The ``k`` lexicon words cheapest to reach from ``query``.

    ``prune=False`` disables subtree abandonment (the full trie is walked);
    the result is identical and the flag exists so the pruning can be
    checked and measured against the exhaustive walk.
    """
    if not query:
        raise ValueError("query must be non-empty")
    if trie.word_count == 0:
        raise EmptyLexiconError("the lexicon has no words")
    if k < 1:
        raise ValueError("k must be positive")
    if max_cost is not None and max_cost < 0:
        raise ValueError("max_cost must not be negative")
    model = model or default_cost_model()
    ins, dele, sub = model.insert, model.delete, model.substitute_cost
    n = len(query)

    # best[] holds (cost, word) sorted ascending, at most k entries.  No word
    # costing more than ceiling can enter it; ceiling falls once best is full.
    best: list[tuple[int, str]] = []
    ceiling = sys.maxsize if max_cost is None else max_cost
    # cols[c][i]: cost of substituting trie character c for query[i].
    cols: dict[str, list[int]] = {}
    # pens[lo, hi][i]: least cost of turning query[i:] into a string of
    # lo..hi characters.
    pens: dict[tuple[int, int], list[int]] = {}
    nodes = 0

    # row[i] = cost of transforming query[:i] into the node's prefix
    stack = [(0, trie.root, [i * dele for i in range(n + 1)], "")]
    while stack:
        bound, node, row, prefix = stack.pop()
        if prune and bound > ceiling:
            continue
        nodes += 1
        first, tail = row[0] + ins, row[1:]
        kept = []
        for c, child in node.children.items():
            col = cols.get(c)
            if col is None:
                col = cols[c] = [sub(q, c) for q in query]
            diag, left = row[0], first
            child_row = [first]
            for up, cell in zip(tail, col):
                cell += diag
                diag = up
                up += ins
                if up < cell:
                    cell = up
                left += dele
                if left < cell:
                    cell = left
                child_row.append(cell)
                left = cell
            bound = 0
            if prune:
                pen = pens.get((child.lo, child.hi))
                if pen is None:
                    pen = pens[child.lo, child.hi] = _length_penalties(
                        n, child.lo, child.hi, ins, dele)
                bound = min(map(add, child_row, pen))
                if bound > ceiling:
                    continue
            word = prefix + c
            if child.terminal:
                cost = child_row[-1]
                if cost <= ceiling and (len(best) < k or (cost, word) < best[-1]):
                    bisect.insort(best, (cost, word))
                    if len(best) > k:
                        best.pop()
                    if len(best) == k and best[-1][0] < ceiling:
                        ceiling = best[-1][0]
            if child.children:
                kept.append((bound, child, child_row, word))
            else:
                nodes += 1  # a leaf: offered above, nothing left to expand
        # Lowest bound on top of the stack: an early low ceiling prunes more.
        kept.sort(key=_bound, reverse=True)
        stack.extend(kept)

    items = [Suggestion(word, cost) for cost, word in best]
    return SuggestionList(items=items, query=query, nodes_expanded=nodes)


def _length_penalties(n: int, lo: int, hi: int, ins: int,
                      dele: int) -> list[int]:
    """Per query position i, the least cost of aligning the n - i query
    characters left with a suffix of length lo..hi: each missing character
    is an insertion, each extra one a deletion."""
    pen = []
    for rest in range(n, -1, -1):
        if rest < lo:
            pen.append((lo - rest) * ins)
        elif rest > hi:
            pen.append((rest - hi) * dele)
        else:
            pen.append(0)
    return pen


def best(query: str, trie: TrieDict,
         model: CostModel | None = None) -> Suggestion:
    """The single cheapest candidate for ``query``."""
    return suggest(query, trie, model, k=1).items[0]
