import random
import sys

import pytest

from wolofspell import sample_lexicon_path
from wolofspell.lexicon import MalformedLexiconError, TrieDict, load


def write_lexicon(tmp_path, lines, name="lex.txt", newline="\n"):
    path = tmp_path / name
    path.write_bytes(newline.join(lines).encode("utf-8"))
    return path


# The two construction paths, which share one check: a file, and a word list.
BUILDERS = (
    lambda tmp_path, words: load(write_lexicon(tmp_path, words)),
    lambda tmp_path, words: TrieDict(words),
)


class TestLoad:
    def test_duplicates_collapse(self, tmp_path):
        path = write_lexicon(tmp_path, ["dëkk", "ñaar", "dëkk"])
        trie = load(path)
        assert trie.word_count == 2

    def test_empty_file(self, tmp_path):
        path = write_lexicon(tmp_path, [])
        assert load(path).word_count == 0

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_lexicon(tmp_path, ["# header", "", "dëkk", "  ", "# x"])
        trie = load(path)
        assert trie.word_count == 1
        assert trie.contains("dëkk")

    def test_crlf_and_surrounding_whitespace(self, tmp_path):
        path = write_lexicon(tmp_path, ["  dëkk ", "bi"], newline="\r\n")
        trie = load(path)
        assert trie.contains("dëkk") and trie.contains("bi")

    def test_words_normalized_on_load(self, tmp_path):
        for build in BUILDERS:
            trie = build(tmp_path, ["DËKK", "tËdd"])
            assert trie.contains("dëkk")
            assert trie.contains("tëdd")

    def test_internal_whitespace_rejected(self, tmp_path):
        for build in BUILDERS:
            with pytest.raises(MalformedLexiconError):
                build(tmp_path, ["dëkk bi"])

    def test_digit_rejected(self, tmp_path):
        for build in BUILDERS:
            with pytest.raises(MalformedLexiconError):
                build(tmp_path, ["dëkk2"])

    def test_empty_word_rejected(self):
        # a lexicon file has no empty words: blank lines are skipped
        for words in ([""], ["dëkk", "  "]):
            with pytest.raises(MalformedLexiconError):
                TrieDict(words)

    def test_error_names_the_file_line(self, tmp_path):
        path = write_lexicon(tmp_path, ["dëkk", "# note", "dëkk2"])
        with pytest.raises(MalformedLexiconError, match=f"{path}:3"):
            load(path)

    def test_word_list_builds_the_same_trie(self):
        path = sample_lexicon_path()
        lines = [line for line in path.read_text(encoding="utf-8").splitlines()
                 if line.strip() and not line.startswith("#")]
        from_list, from_file = TrieDict(lines), load(path)
        assert list(from_list.iterate()) == list(from_file.iterate())
        assert from_list.node_count() == from_file.node_count()

    def test_alphabetic_code_points_are_never_space_or_digit(self):
        # _insert skips its whitespace and digit scans for an all-alphabetic
        # word; that is sound only while this holds on the running Python.
        both = [hex(cp) for cp in range(sys.maxunicode + 1)
                if chr(cp).isalpha() and (chr(cp).isspace() or chr(cp).isdigit())]
        assert both == []

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "missing.txt")


class TestContains:
    def test_member(self):
        assert TrieDict(["dëkk"]).contains("dëkk")

    def test_proper_prefix_is_not_a_member(self):
        trie = TrieDict(["dëkk"])
        assert not trie.contains("dë")

    def test_extension_is_not_a_member(self):
        trie = TrieDict(["dëkk"])
        assert not trie.contains("dëkkk")

    def test_empty_trie(self):
        assert not TrieDict().contains("a")

    def test_against_set_oracle(self, sample_lexicon, sample_words):
        member_set = set(sample_words)
        rng = random.Random(13)
        alphabet = "abcdeëikx"
        probes = list(sample_words)
        probes += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                   for _ in range(10_000)]
        for probe in probes:
            assert sample_lexicon.contains(probe) == (probe in member_set)


class TestIterate:
    def test_sorted_order(self):
        trie = TrieDict(["b", "a"])
        assert list(trie.iterate()) == ["a", "b"]

    def test_empty(self):
        assert list(TrieDict().iterate()) == []

    def test_length_matches_word_count(self, sample_lexicon):
        assert len(list(sample_lexicon.iterate())) == sample_lexicon.word_count

    def test_order_independent_of_insertion(self):
        words = ["tànk", "taal", "ta", "dëkk", "dë", "ñaar", "ñaaw"]
        rng = random.Random(17)
        expected = sorted(set(words))
        for _ in range(20):
            shuffled = words[:]
            rng.shuffle(shuffled)
            assert list(TrieDict(shuffled).iterate()) == expected

    def test_yields_each_word_once(self, sample_words):
        assert len(sample_words) == len(set(sample_words))


class TestLengthBounds:
    def test_lo_hi_match_the_words_below_each_node(self, sample_words):
        # every node's lo/hi against the remaining lengths of the words that
        # extend its prefix, read off the word list, in two insertion orders
        small = ["ab", "abcd", "b", "abc"]
        for words in (sample_words, sample_words[::-1], small, small[::-1]):
            stack = [(TrieDict(words).root, "")]
            while stack:
                node, prefix = stack.pop()
                rest = [len(w) - len(prefix) for w in words
                        if w.startswith(prefix)]
                assert (node.lo, node.hi) == (min(rest), max(rest)), prefix
                assert (node.lo == 0) == node.terminal, prefix
                stack.extend((child, prefix + c)
                             for c, child in node.children.items())


class TestNodeCount:
    def test_empty_trie_has_root_only(self):
        assert TrieDict().node_count() == 1

    def test_shared_prefixes_share_nodes(self):
        trie = TrieDict(["ab", "ac"])
        # root, a, b, c
        assert trie.node_count() == 4
