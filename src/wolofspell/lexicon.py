"""Trie-backed lexicon with exact membership lookup.

``TrieDict(words)`` builds the trie: each word is trimmed, lowercased and
NFC-composed, and an empty word, or one with inner whitespace or a digit,
raises ``MalformedLexiconError``.  ``load(path)`` reads a lexicon file
through the same check: one word per line, UTF-8, LF or CRLF endings,
blank lines and ``#`` comments ignored.  Duplicate words collapse silently.
Membership follows the character path from the root node (the empty
string) and requires it to end on a terminal node.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

from .preprocess import normalize, numbered_lines


class MalformedLexiconError(ValueError):
    """A lexicon word is empty or contains inner whitespace or a digit."""


class _Node:
    """A trie node.  ``lo``/``hi`` are the shortest and longest remaining
    length of a word ending in this node's subtree (``lo`` is 0 on a
    terminal node); the suggestion walk bounds edit costs with them.  A
    node with no word below it yet (an empty trie's root) has lo > hi."""

    __slots__ = ("children", "terminal", "lo", "hi")

    def __init__(self, lo: int = sys.maxsize, hi: int = 0):
        self.children: dict[str, _Node] = {}
        self.terminal = False
        self.lo = lo
        self.hi = hi


class TrieDict:
    """Immutable-after-construction character trie over a word set."""

    def __init__(self, words: Iterable[str] = ()):
        """Build the trie from raw word strings, checked and normalized."""
        self.root = _Node()
        self.word_count = 0
        for word in words:
            self._insert(word, where=repr(word))

    def _insert(self, word: str, where: str) -> None:
        word = normalize(word.strip())
        if not word:
            raise MalformedLexiconError(f"{where}: empty word")
        # No alphabetic code point is also whitespace or a digit, so an
        # all-alphabetic word needs neither scan (tests pin this).
        if not word.isalpha():
            if any(c.isspace() for c in word):
                raise MalformedLexiconError(
                    f"{where}: whitespace inside word {word!r}")
            if any(c.isdigit() for c in word):
                raise MalformedLexiconError(f"{where}: digit inside word {word!r}")
        node = self.root
        rest = len(word)
        for c in word:
            if rest < node.lo:
                node.lo = rest
            if rest > node.hi:
                node.hi = rest
            rest -= 1
            child = node.children.get(c)
            if child is None:
                child = node.children[c] = _Node(rest, rest)
            node = child
        node.lo = 0
        if not node.terminal:
            node.terminal = True
            self.word_count += 1

    def contains(self, word: str) -> bool:
        """True iff the path for ``word`` exists and ends on a terminal node."""
        node = self.root
        for c in word:
            node = node.children.get(c)
            if node is None:
                return False
        return node.terminal

    def __contains__(self, word: str) -> bool:
        return self.contains(word)

    def __len__(self) -> int:
        return self.word_count

    def iterate(self) -> Iterator[str]:
        """Yield every stored word once, in lexicographic scalar order."""
        # Pre-order walk on an explicit stack: a word precedes its
        # extensions, and children are pushed largest first so the smallest
        # is visited next.
        stack = [(self.root, "")]
        while stack:
            node, prefix = stack.pop()
            if node.terminal:
                yield prefix
            for c in sorted(node.children, reverse=True):
                stack.append((node.children[c], prefix + c))

    def __iter__(self) -> Iterator[str]:
        return self.iterate()

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

    Raises MalformedLexiconError, naming ``path:line``, on a word with
    internal whitespace or a digit, naming ``path`` when the file is not
    UTF-8, and the usual OSError when the file cannot be read.
    """
    trie = TrieDict()
    for lineno, line in numbered_lines(path, MalformedLexiconError):
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        trie._insert(word, where=f"{path}:{lineno}")
    return trie
