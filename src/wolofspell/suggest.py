"""Correction candidates from a trie walk with edit-distance pruning.

One dynamic-programming row (indexed by query prefix, length |query|+1) is
carried down every trie edge, so words sharing a prefix share the work of
the distance computation.  Substitution costs are looked up once per query
and lexicon letter (a column over the query), not once per cell.

A subtree is abandoned when a lower bound on the cost of every word in it
exceeds the cost ceiling (the current k-th best cost, or the caller's cap).
Pruning on a strictly-greater bound keeps ties intact.  Three admissible
bounds are combined into one.  All edit costs are non-negative, so a word
below the node costs at least ``row[i]`` plus the cost of turning the rest
of the query, ``query[i:]``, into the rest of the word, for some i; taking
that second cost as 0 gives the row minimum, Ukkonen's cut-off.  Two lower
bounds on that second cost raise it:

- Length.  The rest of the word has at most ``hi`` characters (the
  node's longest remaining length), so turning ``query[i:]`` into it
  takes at least one deletion per character beyond ``hi``.
- Letters.  Every letter of the rest of the word is in the node's ``below``
  mask (the letters on the edges under it).  A letter of ``query[i:]``
  outside the mask cannot be matched, so it is deleted or substituted for
  some other lexicon letter: it costs at least its weight, the cheaper of
  a deletion and its cheapest substitution by a lexicon letter.  The sum
  of the weights of the absent letters is a lower bound (the "bag
  distance" bound of Bartolini, Ciaccia & Patella, SPIRE 2002, per node),
  under any cost model, zero-cost or asymmetric substitutions included.

The max of two lower bounds is a lower bound, so the bound used is the
minimum over i of ``row[i]`` plus the larger of the two penalties, never
below the row minimum.  One vector holds that larger penalty for every i;
vectors are cached per query by ``(hi, letters held)``, the query letters
being those the node's mask holds, within a fixed budget of cells.  One
``TrieDict.letters()`` pass fills ``hi`` and ``below`` on the first search,
which checking never makes.

The walk is iterative, on an explicit stack, so word length is not limited
by recursion depth.  A node's bound is checked again when it is popped,
since the ceiling may have fallen since it was pushed, and siblings are
pushed so that the one with the lowest bound is visited first.  Every word
that is not pruned is offered with its exact cost, and a pruned word costs
more than a ceiling that never rises again, so visit order changes how much
is pruned, never the result: it is exactly what a full scan returns.

Candidates rank by (cost, word): cheapest first, lexicographic among equals.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import NamedTuple

from .distance import CostModel
from .lexicon import TrieDict


_bound = itemgetter(0)

_PENALTY_CELLS = 1 << 18  # cached per search; natural queries need 1-2k


class EmptyLexiconError(ValueError):
    """Suggestions requested against a lexicon with no words."""


class Suggestion(NamedTuple):
    word: str
    cost: int


# Frozen, so one result can be shared.  A dataclass rather than a NamedTuple
# because the benchmark's tests rebuild one with dataclasses.replace.
@dataclass(frozen=True)
class SuggestionList:
    items: tuple[Suggestion, ...]
    query: str
    nodes_expanded: int = field(default=0, compare=False)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def rank_of(self, word: str) -> int | None:
        """1-based rank of ``word`` in the list, None when absent."""
        for rank, s in enumerate(self.items, 1):
            if s.word == word:
                return rank
        return None


def validate_settings(model: CostModel, k: int, max_cost: int | None) -> None:
    """Raise ValueError unless ``k`` is positive and no cost, cap included,
    is negative: the walk's bounds hold only for non-negative costs."""
    if k < 1:
        raise ValueError("k must be positive")
    if max_cost is not None and max_cost < 0:
        raise ValueError("max_cost must not be negative")
    if min(model.insert, model.delete, model.mismatch,
           *model.substitution_overrides.values()) < 0:
        raise ValueError("edit costs must not be negative")


def suggest(query: str, trie: TrieDict, model: CostModel | None = None,
            k: int = 10, max_cost: int | None = None) -> SuggestionList:
    """The ``k`` lexicon words cheapest to reach from ``query``."""
    if not query:
        raise ValueError("query must be non-empty")
    if trie.word_count == 0:
        raise EmptyLexiconError("the lexicon has no words")
    model = model or CostModel()
    validate_settings(model, k, max_cost)
    ins, dele, sub = model.insert, model.delete, model.substitute_cost
    n = len(query)
    letters = trie.letters()
    # cols[c][i]: cost of substituting lexicon letter c for query[i].
    cols = {c: [sub(q, c) for q in query] for c in letters}
    # A query letter's bit, 0 for one no lexicon word holds; qmask: all bits.
    qbits = [letters.get(q, 0) for q in query]
    qmask = 0
    for bit in qbits:
        qmask |= bit
    qweights = _letter_weights(query, cols, dele)

    # best[] holds (cost, word) sorted ascending, at most k entries.  No word
    # costing more than ceiling can enter it; ceiling falls once best is full.
    best: list[tuple[int, str]] = []
    ceiling = sys.maxsize if max_cost is None else max_cost
    # pens[hi, have][i]: a lower bound on turning query[i:] into the rest
    # of a word below a node with that longest length and query letters held.
    pens: dict[tuple[int, int], list[int]] = {}
    nodes = 0

    # row[i] = cost of transforming query[:i] into the node's prefix
    stack = [(0, trie.root, [i * dele for i in range(n + 1)], "")]
    while stack:
        bound, node, row, prefix = stack.pop()
        if bound > ceiling:
            continue
        nodes += 1
        first, tail = row[0] + ins, row[1:]
        kept = []
        for c, child in node.items():
            diag, left = row[0], first
            child_row = [first]
            for up, cell in zip(tail, cols[c]):
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
            key = (child.hi, child.below & qmask)
            pen = pens.get(key)
            if pen is None:
                if len(pens) * n > _PENALTY_CELLS:
                    pens.clear()
                pen = pens[key] = _penalties(qbits, qweights, *key, dele)
            bound = min(map(add, child_row, pen))
            if bound > ceiling:
                continue
            word = prefix + c
            if child.end:
                cost = child_row[-1]
                if cost <= ceiling and (len(best) < k or (cost, word) < best[-1]):
                    bisect.insort(best, (cost, word))
                    if len(best) > k:
                        best.pop()
                    if len(best) == k and best[-1][0] < ceiling:
                        ceiling = best[-1][0]
            if child:
                kept.append((bound, child, child_row, word))
            else:
                nodes += 1  # a leaf: offered above, nothing left to expand
        # Lowest bound on top of the stack: an early low ceiling prunes more.
        kept.sort(key=_bound, reverse=True)
        stack.extend(kept)

    items = tuple([Suggestion(word, cost) for cost, word in best])
    return SuggestionList(items=items, query=query, nodes_expanded=nodes)


def _letter_weights(query: str, cols: dict, dele: int) -> list[int]:
    """Per query position i, the least cost of its letter q where no word
    can match it: a deletion, or ``cols[c][i]`` for a lexicon letter c != q."""
    return [min([dele] + [col[i] for c, col in cols.items() if c != q])
            for i, q in enumerate(query)]


def _penalties(qbits: list[int], qweights: list[int], hi: int, have: int,
               dele: int) -> list[int]:
    """Per query position i (0..n), the larger of two lower bounds on turning
    query[i:] into at most ``hi`` characters whose letters are the bits of
    ``have``: one deletion per character beyond ``hi``, and the summed
    weight of the letters of query[i:] whose bit is not in ``have``."""
    pen = [0]
    rest = total = 0
    for bit, weight in zip(reversed(qbits), reversed(qweights)):
        rest += 1
        if not bit & have:
            total += weight
        length = (rest - hi) * dele
        pen.append(length if length > total else total)
    pen.reverse()
    return pen


def best(query: str, trie: TrieDict,
         model: CostModel | None = None) -> Suggestion:
    """The single cheapest candidate for ``query``."""
    return suggest(query, trie, model, k=1).items[0]
