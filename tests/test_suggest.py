import random

import pytest
from hypothesis import given, settings, strategies as st

from wolofspell.alphabet import WOLOF_CHARS
from wolofspell.distance import CostModel, weighted_levenshtein
from wolofspell.lexicon import TrieDict
from wolofspell.suggest import EmptyLexiconError, Suggestion, best, suggest

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
            words = suggest(query, sample_lexicon, model, k=10).words()
            assert len(words) == len(set(words))

    def test_deterministic(self, sample_lexicon, model):
        first = suggest("deuk", sample_lexicon, model, k=10)
        second = suggest("deuk", sample_lexicon, model, k=10)
        assert first.items == second.items

    def test_empty_lexicon_raises(self, model):
        with pytest.raises(EmptyLexiconError):
            suggest("dëkk", TrieDict(), model)

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
                full = suggest(query, sample_lexicon, model, k=k, prune=False)
                assert pruned.items == full.items, (query, k)

    def test_pruned_walk_expands_fewer_nodes(self, sample_lexicon,
                                             sample_words, model):
        rng = random.Random(107)
        total_nodes = sample_lexicon.node_count()
        for query in mutations(sample_words, rng, 30):
            pruned = suggest(query, sample_lexicon, model, k=1)
            full = suggest(query, sample_lexicon, model, k=1, prune=False)
            assert full.nodes_expanded == total_nodes
            assert pruned.nodes_expanded < full.nodes_expanded


class TestLengthBound:
    def test_length_bound_prunes_where_row_minimum_would_not(self, model):
        trie = TrieDict(["ab", "abcdefgh"])
        pruned = suggest("abc", trie, model, k=10, max_cost=1)
        full = suggest("abc", trie, model, k=10, max_cost=1, prune=False)
        assert pruned.items == full.items == [Suggestion("ab", 1)]
        # At node "abc" the row minimum is 0 (the prefix equals the query),
        # and at "abcd" it is 1, so the row minimum alone would expand both
        # under max_cost=1.  Every word below "abc" has 5 more characters
        # than the query has left, so the length bound there is 5: only the
        # root, "a" and "ab" are expanded.
        assert pruned.nodes_expanded == 3
        assert full.nodes_expanded == trie.node_count() == 9

    def test_missing_characters_are_priced_as_insertions(self):
        # "abb" needs two insertions (cost 2 under insert=1), a tie with
        # substituting "b" that "abb" wins lexicographically; pricing the
        # missing characters as deletions (3 each) would prune it.
        model = CostModel(insert=1, delete=3)
        trie = TrieDict(["abb", "b"])
        assert suggest("a", trie, model, k=1).items == [Suggestion("abb", 2)]


SMALL_ALPHABET = "abé"
MODELS = (
    CostModel(insert=1, delete=1),
    CostModel(insert=1, delete=3),
    CostModel(insert=3, delete=1),
    CostModel(substitution_overrides={("a", "é"): 0, ("é", "a"): 0}),
)


class TestGeneratedTries:
    @settings(max_examples=500, deadline=None)
    @given(words=st.lists(st.text(SMALL_ALPHABET, min_size=1, max_size=12),
                          min_size=1, max_size=25),
           query=st.text(SMALL_ALPHABET + "x", min_size=1, max_size=12),
           model=st.sampled_from(MODELS),
           k=st.sampled_from((1, 3, 10)),
           max_cost=st.sampled_from((None, 0, 1, 3)))
    def test_matches_linear_scan(self, words, query, model, k, max_cost):
        trie = TrieDict(words)
        expected = linear_scan(query, set(words), model, k, max_cost)
        got = suggest(query, trie, model, k=k, max_cost=max_cost)
        assert [(s.word, s.cost) for s in got.items] == expected


class TestLongWord:
    def test_5000_character_word(self, model):
        trie = TrieDict(["a" * 5000, "ab"])
        assert list(trie.iterate()) == ["a" * 5000, "ab"]
        assert trie.node_count() == 5002
        result = suggest("aab", trie, model, k=2)
        assert [(s.word, s.cost) for s in result.items] == [
            ("ab", 1), ("a" * 5000, 4999)]
        full = suggest("aab", trie, model, k=2, prune=False)
        assert full.items == result.items


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
