import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wolofspell
from wolofspell.alphabet import WOLOF_CHARS
from wolofspell.distance import CostModel, weighted_levenshtein
from wolofspell.lexicon import TrieDict
from wolofspell.suggest import (EmptyLexiconError, Suggestion, _letter_weights,
                                _penalties, best, suggest)

from conftest import NEGATIVE_COSTS

ALPHABET = sorted(WOLOF_CHARS)


def linear_scan(query, words, model, k, max_cost=None):
    """The reference: score every word, stable-sort by (cost, word), cut at k."""
    scored = sorted((weighted_levenshtein(query, w, model), w) for w in words)
    if max_cost is not None:
        scored = [(c, w) for c, w in scored if c <= max_cost]
    return [(w, c) for c, w in scored[:k]]


def mutations(words, rng, count, max_edits=3):
    out = []
    for _ in range(count):
        chars = list(rng.choice(words))
        for _ in range(rng.randint(0, max_edits)):
            op = rng.choice("ids")
            if op == "i" or not chars:
                chars.insert(rng.randrange(len(chars) + 1), rng.choice(ALPHABET))
            elif op == "d" and len(chars) > 1:
                del chars[rng.randrange(len(chars))]
            else:
                chars[rng.randrange(len(chars))] = rng.choice(ALPHABET)
        out.append("".join(chars))
    return out


class TestSuggest:
    def test_three_word_dictionary(self, model):
        trie = TrieDict(["tànk", "taal", "ñaar"])
        result = suggest("tank", trie, model, k=3)
        assert [(s.word, s.cost) for s in result.items] == [
            ("tànk", 1), ("taal", 4), ("ñaar", 6)]

    def test_exact_match_ranks_first_at_zero(self, sample_lexicon, model,
                                             sample_words):
        rng = random.Random(79)
        for word in rng.sample(sample_words, 20):
            result = suggest(word, sample_lexicon, model, k=5)
            assert result.items[0] == Suggestion(word, 0)

    def test_matches_linear_scan(self, sample_lexicon, sample_words, model):
        rng = random.Random(83)
        for query in mutations(sample_words, rng, 100):
            expected = linear_scan(query, sample_words, model, k=10)
            got = suggest(query, sample_lexicon, model, k=10)
            assert [(s.word, s.cost) for s in got.items] == expected, query

    @pytest.mark.parametrize("ins,dele", [(1, 3), (3, 1)])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_unequal_insert_delete_costs_match_linear_scan(
            self, sample_lexicon, sample_words, ins, dele, data):
        model = CostModel(insert=ins, delete=dele)
        word = data.draw(st.sampled_from(sample_words))
        cut = data.draw(st.integers(0, len(word)))
        noise = data.draw(st.text(ALPHABET, max_size=3))
        query = word[:cut] + noise + word[cut + 1:] or "a"
        for k in (1, 5):
            expected = linear_scan(query, sample_words, model, k=k)
            got = suggest(query, sample_lexicon, model, k=k)
            assert [(s.word, s.cost) for s in got.items] == expected, (query, k)

    def test_ties_break_lexicographically(self, model):
        trie = TrieDict(["bak", "dak", "cak"])
        result = suggest("tak", trie, model, k=3)
        assert [s.word for s in result.items] == ["bak", "cak", "dak"]
        assert len({s.cost for s in result.items}) == 1

    def test_k_list_is_prefix_of_k_plus_one_list(self, sample_lexicon,
                                                 sample_words, model):
        rng = random.Random(89)
        for query in mutations(sample_words, rng, 30):
            lists = {k: suggest(query, sample_lexicon, model, k=k).items
                     for k in (1, 5, 6, 10)}
            assert lists[5] == lists[6][:5]
            assert lists[1] == lists[10][:1]

    def test_max_cost_filters(self, sample_lexicon, sample_words, model):
        rng = random.Random(97)
        for query in mutations(sample_words, rng, 30):
            expected = linear_scan(query, sample_words, model, k=10, max_cost=2)
            got = suggest(query, sample_lexicon, model, k=10, max_cost=2)
            assert [(s.word, s.cost) for s in got.items] == expected

    def test_max_cost_zero_keeps_exact_match_only(self, sample_lexicon, model):
        result = suggest("dëkk", sample_lexicon, model, k=5, max_cost=0)
        assert [(s.word, s.cost) for s in result.items] == [("dëkk", 0)]

    def test_no_duplicate_words(self, sample_lexicon, sample_words, model):
        rng = random.Random(101)
        for query in mutations(sample_words, rng, 30):
            words = [s.word for s in suggest(query, sample_lexicon, model, k=10)]
            assert len(words) == len(set(words))

    def test_deterministic(self, sample_lexicon, model):
        first = suggest("deuk", sample_lexicon, model, k=10)
        second = suggest("deuk", sample_lexicon, model, k=10)
        assert first.items == second.items

    def test_empty_lexicon_raises(self, model):
        with pytest.raises(EmptyLexiconError):
            suggest("dëkk", TrieDict(), model)

    def test_negative_max_cost_rejected(self, sample_lexicon, model):
        with pytest.raises(ValueError, match="max_cost must not be negative"):
            suggest("deuk", sample_lexicon, model, max_cost=-1)

    @pytest.mark.parametrize("bad_model", NEGATIVE_COSTS.values(),
                             ids=list(NEGATIVE_COSTS))
    def test_negative_cost_rejected(self, sample_lexicon, bad_model):
        with pytest.raises(ValueError, match="costs must not be negative"):
            suggest("deuk", sample_lexicon, bad_model)

    def test_zero_costs_allowed(self, sample_lexicon, sample_words):
        model = CostModel(insert=0, delete=0, mismatch=0)
        got = suggest("deuk", sample_lexicon, model, k=3)
        assert [(s.word, s.cost) for s in got.items] == linear_scan(
            "deuk", sample_words, model, k=3)

    def test_empty_query_rejected(self, sample_lexicon, model):
        with pytest.raises(ValueError):
            suggest("", sample_lexicon, model)

    def test_rank_of(self, sample_lexicon, model):
        result = suggest("deuk", sample_lexicon, model, k=10)
        assert result.rank_of(result.items[0].word) == 1
        assert result.rank_of("not-a-word") is None


class TestPruning:
    def test_pruning_never_changes_results(self, sample_lexicon, sample_words,
                                           model):
        rng = random.Random(103)
        for query in mutations(sample_words, rng, 60):
            for k in (1, 5, 10):
                pruned = suggest(query, sample_lexicon, model, k=k)
                assert [(s.word, s.cost) for s in pruned.items] == \
                    linear_scan(query, sample_words, model, k), (query, k)

    def test_pruned_walk_expands_fewer_nodes(self, sample_lexicon,
                                             sample_words, model):
        rng = random.Random(107)
        total_nodes = sample_lexicon.node_count()
        for query in mutations(sample_words, rng, 30):
            pruned = suggest(query, sample_lexicon, model, k=1)
            assert pruned.nodes_expanded < total_nodes


class TestLengthBound:
    def test_length_bound_prunes_where_row_minimum_would_not(self, model):
        trie = TrieDict(["aaaa", "ba"])
        pruned = suggest("aaaa", trie, model, k=10, max_cost=1)
        assert pruned.items == (Suggestion("aaaa", 0),)
        assert linear_scan("aaaa", ["aaaa", "ba"], model, 10, 1) == [("aaaa", 0)]
        # At node "b" the row over "", "a", ..., "aaaa" is [1, 2, 3, 4, 5],
        # so the row minimum alone would expand it under max_cost=1, and "a"
        # is below it, so no letter is priced.  But the only word below "b"
        # has 1 more character, and query[i:] has 4 - i: the length
        # penalties are [3, 2, 1, 0, 0] and the bound is 4.  Only the root,
        # "a", "aa", "aaa" and the leaf "aaaa" are expanded.
        assert pruned.nodes_expanded == 5
        assert trie.node_count() == 7

    def test_long_junk_query_expands_under_half_the_trie(self, sample_lexicon,
                                                         model):
        # Every word is far shorter than the query; the deletions that the
        # length bound charges for it keep the walk to a small part of the
        # trie, where the row minimum and the letters alone expand most of it.
        rng = random.Random(113)
        query = "".join(rng.choice(ALPHABET) for _ in range(300))
        result = suggest(query, sample_lexicon, model)
        assert result.nodes_expanded < sample_lexicon.node_count() / 2

    def test_missing_characters_are_charged_by_the_row_as_insertions(self):
        # "abb" needs two insertions (cost 2 under insert=1), a tie with
        # substituting "b" that "abb" wins lexicographically.  The length
        # bound charges only deletions, for query letters beyond the longest
        # word below a node; the two missing letters are charged by the DP
        # row, at the insertion cost, not at the deletion cost of 3.
        model = CostModel(insert=1, delete=3)
        trie = TrieDict(["abb", "b"])
        assert suggest("a", trie, model, k=1).items == (Suggestion("abb", 2),)


class TestLetterBound:
    def test_letter_bound_prunes_where_length_bound_would_not(self, model):
        trie = TrieDict(["ab", "cd"])
        pruned = suggest("ab", trie, model, k=10, max_cost=2)
        assert pruned.items == (Suggestion("ab", 0),)
        assert linear_scan("ab", ["ab", "cd"], model, 10, 2) == [("ab", 0)]
        # At node "c" the row over "", "a", "ab" is [1, 2, 3]; one letter
        # remains below it, so the length penalties are [1, 0, 0] and the
        # length bound is 2, which max_cost=2 does not prune: "c" would be
        # expanded (and its leaf "d" then pruned at cost 4).  But "b" is not
        # below "c", so query[1:] costs at least b's weight, 1 (a deletion;
        # any substitution costs 2), and query[0:] at least 2: penalties
        # [2, 1, 0], bound 3.  Only the root, "a" and the leaf "ab" count.
        assert pruned.nodes_expanded == 3
        assert trie.node_count() == 5

    @pytest.mark.parametrize("query,target", [("xb", "a"), ("ax", "b")])
    def test_zero_cost_substitution_for_a_letter_outside_the_lexicon(
            self, query, target):
        # "x" is in no word, but substituting it for ``target`` is free, so
        # its weight is 0.  For "ax", at node "a" the row over "", "a", "ax"
        # is [1, 0, 1] and "x" is in the rest of the query, outside the
        # letters below "a": a weight of 1 (a deletion) would give a bound
        # of 1 and prune "ab" under max_cost=0.
        model = CostModel(substitution_overrides={("x", target): 0})
        trie = TrieDict(["ab"])
        result = suggest(query, trie, model, k=1, max_cost=0)
        assert [(s.word, s.cost) for s in result.items] == [("ab", 0)]


SMALL_ALPHABET = "abé"
MODELS = (
    CostModel(insert=1, delete=1),
    CostModel(insert=1, delete=3),
    CostModel(insert=3, delete=1),
    CostModel(substitution_overrides={("a", "é"): 0, ("é", "a"): 0}),
    CostModel.unit(),
    # asymmetric: query a to word b is free, query b to word a costs 3
    CostModel(substitution_overrides={("a", "b"): 0, ("b", "a"): 3}),
    # query x, a letter no word holds, to word a is free
    CostModel(substitution_overrides={("x", "a"): 0}),
)


WORD_SETS = st.lists(st.text(SMALL_ALPHABET, min_size=1, max_size=12),
                     min_size=1, max_size=25)
QUERIES = st.text(SMALL_ALPHABET + "x", min_size=1, max_size=12)


class TestGeneratedTries:
    @settings(max_examples=500, deadline=None)
    @given(words=WORD_SETS, query=QUERIES, model=st.sampled_from(MODELS),
           k=st.sampled_from((1, 3, 10)),
           max_cost=st.sampled_from((None, 0, 1, 3)))
    def test_matches_linear_scan(self, words, query, model, k, max_cost):
        trie = TrieDict(words)
        expected = linear_scan(query, set(words), model, k, max_cost)
        got = suggest(query, trie, model, k=k, max_cost=max_cost)
        assert [(s.word, s.cost) for s in got.items] == expected

    @settings(max_examples=200, deadline=None)
    @given(words=WORD_SETS, query=QUERIES, model=st.sampled_from(MODELS))
    def test_list_longer_than_the_lexicon_walks_every_node(self, words, query,
                                                           model):
        # With no cap and k above the word count, best never fills, so the
        # ceiling never falls: no node is pruned and every word is listed.
        trie = TrieDict(words)
        k = trie.word_count + 1
        got = suggest(query, trie, model, k=k)
        assert got.nodes_expanded == trie.node_count()
        assert [(s.word, s.cost) for s in got.items] == linear_scan(
            query, set(words), model, k)

    @settings(max_examples=500, deadline=None)
    @given(words=WORD_SETS, query=QUERIES, model=st.sampled_from(MODELS))
    def test_penalties_are_admissible(self, words, query, model):
        # At every node and query position i, the penalty is at most the cost
        # of turning query[i:] into the rest of any word below the node.
        trie = TrieDict(words)
        letters = trie.letters()
        qbits = [letters.get(q, 0) for q in query]
        cols = {c: [model.substitute_cost(q, c) for q in query]
                for c in letters}
        qweights = _letter_weights(query, cols, model.delete)
        lexicon = list(trie.iterate())
        stack = [(trie.root, "")]
        while stack:
            node, prefix = stack.pop()
            pen = _penalties(qbits, qweights, node.hi, node.below,
                             model.delete)
            assert len(pen) == len(query) + 1
            for word in lexicon:
                if word.startswith(prefix):
                    rest = word[len(prefix):]
                    for i, least in enumerate(pen):
                        assert least <= weighted_levenshtein(
                            query[i:], rest, model), (prefix, rest, i)
            stack.extend((child, prefix + c)
                         for c, child in node.items())


class TestLongWord:
    def test_5000_character_word(self, model):
        trie = TrieDict(["a" * 5000, "ab"])
        assert list(trie.iterate()) == ["a" * 5000, "ab"]
        assert trie.node_count() == 5002
        result = suggest("aab", trie, model, k=2)
        assert [(s.word, s.cost) for s in result.items] == [
            ("ab", 1), ("a" * 5000, 4999)]
        assert [(s.word, s.cost) for s in result.items] == linear_scan(
            "aab", ["a" * 5000, "ab"], model, k=2)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads VmHWM from /proc/self/status")
    def test_5000_character_random_token_memory(self):
        # A long query meets many (hi, letters held) keys, each caching an
        # (n+1)-cell penalty vector; the cache's cell budget bounds them.
        # VmHWM, the resident high-water mark, starts afresh in a new
        # process (ru_maxrss would carry over the forking test runner's).
        script = (
            "import random\n"
            "from wolofspell import load_sample_lexicon\n"
            "from wolofspell.alphabet import WOLOF_CHARS\n"
            "from wolofspell.suggest import suggest\n"
            "def peak_kb():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "trie = load_sample_lexicon()\n"
            "rng = random.Random(113)\n"
            "token = ''.join(rng.choice(sorted(WOLOF_CHARS)) for _ in range(5000))\n"
            "before = peak_kb()\n"
            "suggest(token, trie, k=10)\n"
            "print(peak_kb() - before)\n")
        src = str(pathlib.Path(wolofspell.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 28 * 1024  # KB


class TestBest:
    def test_single_member(self, model):
        trie = TrieDict(["tànk"])
        assert best("tank", trie, model) == Suggestion("tànk", 1)

    def test_member_query_costs_zero(self, sample_lexicon, model):
        assert best("dëkk", sample_lexicon, model) == Suggestion("dëkk", 0)

    def test_equals_first_of_suggest(self, sample_lexicon, sample_words, model):
        rng = random.Random(109)
        for query in mutations(sample_words, rng, 20):
            assert best(query, sample_lexicon, model) == \
                suggest(query, sample_lexicon, model, k=1).items[0]
