"""Correction candidates from a trie walk with edit-distance pruning.

One dynamic-programming row (indexed by query prefix, length |query|+1) is
carried down every trie edge, so words sharing a prefix share the work of
the distance computation.  All edit costs are non-negative, which makes the
row minimum an admissible lower bound on the final cost of every word below
the current node; a subtree is abandoned as soon as that bound exceeds the
cost ceiling (the current k-th best cost, or the caller's cap).  Pruning on
a strictly-greater bound keeps ties intact, so the pruned walk returns
exactly what a full scan would.

Candidates rank by (cost, word): cheapest first, lexicographic among equals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .distance import CostModel, default_cost_model
from .lexicon import TrieDict


class EmptyLexiconError(ValueError):
    """Suggestions requested against a lexicon with no words."""


@dataclass(frozen=True)
class Suggestion:
    word: str
    cost: int


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
    model = model or default_cost_model()

    # best[] holds (cost, word) sorted ascending, at most k entries.
    best: list[tuple[int, str]] = []
    nodes = 0

    def ceiling() -> int | None:
        bound = best[-1][0] if len(best) == k else None
        if max_cost is not None and (bound is None or max_cost < bound):
            bound = max_cost
        return bound

    def offer(word: str, cost: int) -> None:
        if max_cost is not None and cost > max_cost:
            return
        if len(best) == k and (cost, word) >= best[-1]:
            return
        bisect.insort(best, (cost, word))
        if len(best) > k:
            best.pop()

    ins, dele = model.insert, model.delete
    # row[i] = cost of transforming query[:i] into the current trie prefix
    row0 = [i * dele for i in range(len(query) + 1)]

    def walk(node, row, prefix):
        nonlocal nodes
        nodes += 1
        if node.terminal:
            offer("".join(prefix), row[-1])
        for c in sorted(node.children):
            child_row = [row[0] + ins]
            for i, q in enumerate(query, 1):
                child_row.append(min(
                    row[i] + ins,
                    child_row[i - 1] + dele,
                    row[i - 1] + model.substitute_cost(q, c),
                ))
            bound = ceiling()
            if prune and bound is not None and min(child_row) > bound:
                continue
            prefix.append(c)
            walk(node.children[c], child_row, prefix)
            prefix.pop()

    walk(trie.root, row0, [])
    items = [Suggestion(word, cost) for cost, word in best]
    return SuggestionList(items=items, query=query, nodes_expanded=nodes)


def best(query: str, trie: TrieDict,
         model: CostModel | None = None) -> Suggestion:
    """The single cheapest candidate for ``query``."""
    return suggest(query, trie, model, k=1).items[0]
