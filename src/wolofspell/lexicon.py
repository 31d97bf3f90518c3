"""Trie-backed lexicon with exact membership lookup.

``TrieDict(words)`` builds the trie: each word must read as one token
under ``preprocess.word`` and hold no digit, and is stored as that token;
any other raises ``MalformedLexiconError``.  ``load(path)`` reads a lexicon
file, one word per line, through ``preprocess.content_lines`` and the same
check.  Duplicate words collapse silently.  Membership follows the
character path from the root node (the empty string) and must end where a
word ends.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from . import preprocess
from .preprocess import MalformedInputError, contains_digit, content_lines


class MalformedLexiconError(MalformedInputError):
    """A lexicon word does not read as one token, or holds a digit."""


# The children of every leaf: one shared read-only mapping, so a leaf holds
# no dict of its own.  ``_insert`` gives a node its own dict when its first
# child arrives.
_NO_CHILDREN: Mapping[str, "_Node"] = MappingProxyType({})


class _Node:
    """A trie node.  ``end`` is true where a word ends.  ``hi`` is the
    longest remaining length of a word ending in this node's subtree (0 on
    a node with no word below it yet); the suggestion walk bounds deletion
    costs with it.  ``below`` is a bitmask of the letters on the edges
    under the node, one bit per letter as ``TrieDict.letters()`` numbers
    them (0 on a leaf); it is filled by the first ``letters()`` call, not
    while inserting."""

    __slots__ = ("children", "end", "hi", "below")

    def __init__(self):
        self.children: Mapping[str, _Node] = _NO_CHILDREN
        self.end = False
        self.hi = 0
        self.below = 0


class TrieDict:
    """Immutable-after-construction character trie over a word set."""

    def __init__(self, words: Iterable[str] = ()):
        """Build the trie from raw word strings, checked and normalized."""
        self.root = _Node()
        self.word_count = 0
        self._letters: dict[str, int] | None = None
        for word in words:
            try:
                self._insert(word)
            except MalformedLexiconError as err:
                raise MalformedLexiconError(f"{word!r}: {err}") from None

    def _insert(self, text: str) -> None:
        """Add one raw word; a bad one raises the reason, not the location."""
        word = preprocess.word(text, MalformedLexiconError)
        if contains_digit(word):
            raise MalformedLexiconError(f"digit inside word {word!r}")
        node = self.root
        rest = len(word)
        for c in word:
            if rest > node.hi:
                node.hi = rest
            rest -= 1
            if node.children is _NO_CHILDREN:  # a leaf until now
                child = _Node()
                node.children = {c: child}
            else:
                child = node.children.get(c)
                if child is None:
                    child = node.children[c] = _Node()
            node = child
        if not node.end:
            node.end = True
            self.word_count += 1

    def letters(self) -> dict[str, int]:
        """Each letter on a trie edge, mapped to its bit in ``_Node.below``.

        The first call sets every node's ``below`` mask, in one iterative
        post-order pass; later calls return the same map.  Lookup never
        needs the masks, so a trie only ever used for checking never pays
        for them.
        """
        if self._letters is None:
            # Leaves are skipped: their mask stays 0.
            order = [self.root]  # pre-order: a node before its descendants
            found = set()
            for node in order:
                children = node.children
                if children is not _NO_CHILDREN:
                    found.update(children)
                    order.extend(children.values())
            bits = {c: 1 << i for i, c in enumerate(sorted(found))}
            for node in reversed(order):  # children before their parent
                children = node.children
                if children is not _NO_CHILDREN:
                    below = 0
                    for c, child in children.items():
                        below |= bits[c] | child.below
                    node.below = below
            self._letters = bits
        return self._letters

    def contains(self, word: str) -> bool:
        """True iff the path for ``word`` exists and ends where a word ends."""
        node = self.root
        for c in word:
            node = node.children.get(c)
            if node is None:
                return False
        return node.end

    def iterate(self) -> Iterator[str]:
        """Yield every stored word once, in lexicographic scalar order."""
        # Pre-order walk on an explicit stack: a word precedes its
        # extensions, and children are pushed largest first so the smallest
        # is visited next.
        stack = [(self.root, "")]
        while stack:
            node, prefix = stack.pop()
            if node.end:
                yield prefix
            for c in sorted(node.children, reverse=True):
                stack.append((node.children[c], prefix + c))

    def node_count(self) -> int:
        """Number of trie nodes, the root included."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


def load(path) -> TrieDict:
    """Load a lexicon file into a TrieDict.

    Raises MalformedLexiconError naming ``path:line`` on a bad word, or
    ``path`` when the file is not UTF-8, and the usual OSError when the
    file cannot be read.
    """
    trie = TrieDict()
    for _ in content_lines(path, trie._insert, MalformedLexiconError):
        pass
    return trie
