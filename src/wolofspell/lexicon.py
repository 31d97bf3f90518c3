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

from typing import Iterable, Iterator

from . import preprocess
from .preprocess import MalformedInputError, contains_digit, content_lines


class MalformedLexiconError(MalformedInputError):
    """A lexicon word does not read as one token, or holds a digit."""


class _Node(dict):
    """A trie node: a dict from each edge letter to the child it leads to,
    so a leaf is an empty node.  ``end`` is true where a word ends.  The
    suggestion walk's two bounds stay 0 until the first search calls
    ``TrieDict.letters()``, which fills both on every node in one pass:
    ``hi`` is the longest remaining length of a word ending in this node's
    subtree, and ``below`` a bitmask of the letters on the edges under the
    node, one bit per letter as ``letters()`` numbers them (both 0 on a
    leaf)."""

    __slots__ = ("end", "hi", "below")

    def __init__(self):
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
        for c in word:
            child = node.get(c)
            if child is None:
                child = node[c] = _Node()
            node = child
        if not node.end:
            node.end = True
            self.word_count += 1

    def letters(self) -> dict[str, int]:
        """Each letter on a trie edge, mapped to its bit in ``_Node.below``.

        The first call sets every node's ``hi`` and ``below``, in one
        iterative post-order pass; later calls return the same map.  Lookup
        needs neither, so a trie only ever used for checking never pays for
        them.
        """
        if self._letters is None:
            # Leaves are skipped: both their bounds stay 0.
            order = [self.root]  # pre-order: a node before its descendants
            found = set()
            for node in order:
                if node:
                    found.update(node)
                    order.extend(node.values())
            bits = {c: 1 << i for i, c in enumerate(sorted(found))}
            for node in reversed(order):  # children before their parent
                if node:
                    hi = below = 0
                    for c, child in node.items():
                        below |= bits[c] | child.below
                        rest = child.hi
                        if rest >= hi:
                            hi = rest + 1
                    node.hi = hi
                    node.below = below
            self._letters = bits
        return self._letters

    def contains(self, word: str) -> bool:
        """True iff the path for ``word`` exists and ends where a word ends."""
        node = self.root
        try:  # cheaper than a test per letter, and a miss is the rare case
            for c in word:
                node = node[c]
        except KeyError:
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
            for c in sorted(node, reverse=True):
                stack.append((node[c], prefix + c))

    def node_count(self) -> int:
        """Number of trie nodes, the root included."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.values())
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
