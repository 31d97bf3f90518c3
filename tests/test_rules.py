import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from wolofspell.alphabet import GraphemeClass, GraphemeInventory, segment
from wolofspell.rules import (
    FOREIGN_CHAR,
    INITIAL_STRONG,
    STRONG_AFTER_LONG,
    Violation,
    validate,
)

import oracles

# Covers every digraph class: long vowels aa/ii, prenasalized mb/nt/nk,
# geminates mm/nn/kk/tt/bb, and ë, a vowel with no long form.
DIGRAPH_LETTERS = "aimbntkë"
SHORT_STRINGS = ["".join(p) for n in range(1, 6)
                 for p in itertools.product(DIGRAPH_LETTERS, repeat=n)]


def as_pairs(verdict):
    return [(v.rule, v.index) for v in verdict.violations]


class TestVerdicts:
    def test_valid_word_with_geminate_after_short_vowel(self):
        assert validate("dëkk").valid

    def test_geminate_initial_flagged(self):
        verdict = validate("ppa")
        assert not verdict.valid
        assert verdict.violations == (Violation(INITIAL_STRONG, 0),)

    def test_prenasalized_initial_allowed(self):
        assert validate("mbokk").valid
        assert validate("ndox").valid
        assert validate("ngelaw").valid

    def test_strong_after_long_vowel_flagged(self):
        verdict = validate("saakk")
        assert not verdict.valid
        assert verdict.violations == (Violation(STRONG_AFTER_LONG, 2),)

    def test_prenasalized_after_long_vowel_flagged_when_unavoidable(self):
        # "aant" could read nt as n+t, so it survives; "aakk" cannot.
        assert validate("aant").valid
        verdict = validate("aakk")
        assert not verdict.valid
        assert verdict.violations == (Violation(STRONG_AFTER_LONG, 1),)

    def test_weak_split_saves_ambiguous_digraph(self):
        # long vowel + prenasalized surface, but m+b is a legal reading
        assert validate("jaambaar").valid
        assert validate("ñeent").valid

    def test_foreign_char(self):
        verdict = validate("thiossane")
        assert not verdict.valid
        assert verdict.violations == (Violation(FOREIGN_CHAR, 1),)

    def test_initial_prenasalized_never_counts_as_after_long(self):
        # regression: the greedy parse mb|aa|kk must not report a phantom
        # violation at index 0 by peeking at the last grapheme
        verdict = validate("mbaakk")
        assert not verdict.valid
        assert verdict.violations == (Violation(STRONG_AFTER_LONG, 2),)

    def test_valid_verdict_has_no_violations(self):
        assert validate("tànk").violations == ()


class TestFixtureInvalids:
    GEMINATE_INITIAL = ["ppa", "kkaa", "qqo", "ttëf"]
    STRONG_AFTER_LONG_V = ["saakk", "aakk", "ooppa", "tuumm"]

    def test_geminate_initial_cases(self):
        for word in self.GEMINATE_INITIAL:
            verdict = validate(word)
            assert not verdict.valid, word
            assert verdict.violations[0].rule == INITIAL_STRONG, word
            assert verdict.violations[0].index == 0, word

    def test_strong_after_long_cases(self):
        for word in self.STRONG_AFTER_LONG_V:
            verdict = validate(word)
            assert not verdict.valid, word
            assert verdict.violations[0].rule == STRONG_AFTER_LONG, word

    def test_fixtures_confirmed_by_oracle(self):
        for word in self.GEMINATE_INITIAL + self.STRONG_AFTER_LONG_V:
            valid, violations = oracles.rule_check(word)
            assert not valid, word
            assert violations, word


class TestAgainstOracle:
    def test_sample_lexicon_words(self, sample_words):
        for word in sample_words:
            valid, violations = oracles.rule_check(word)
            verdict = validate(word)
            assert verdict.valid == valid, word
            assert [(v.rule, v.index) for v in verdict.violations] == violations

    def test_random_grapheme_strings(self):
        rng = random.Random(23)
        graphemes = sorted(oracles.CHARS | oracles.DIGRAPHS)
        # digraph-heavy strings hit the interesting parses far more often
        digraphs = sorted(oracles.DIGRAPHS)
        for i in range(1500):
            pool = digraphs if i % 2 else graphemes
            word = "".join(rng.choice(pool)
                           for _ in range(rng.randint(1, 5)))
            valid, violations = oracles.rule_check(word)
            verdict = validate(word)
            assert verdict.valid == valid, word
            assert [(v.rule, v.index) for v in verdict.violations] == violations, word

    def test_random_strings_with_foreign_chars(self):
        rng = random.Random(29)
        pool = sorted(oracles.CHARS) + list("hvz")
        for _ in range(200):
            word = "".join(rng.choice(pool) for _ in range(rng.randint(1, 8)))
            valid, violations = oracles.rule_check(word)
            verdict = validate(word)
            assert verdict.valid == valid, word
            assert [(v.rule, v.index) for v in verdict.violations] == violations, word

    def test_every_short_string_over_digraph_letters(self):
        for word in SHORT_STRINGS:
            valid, violations = oracles.rule_check(word)
            verdict = validate(word)
            assert verdict.valid == valid, word
            assert as_pairs(verdict) == violations, word

    @settings(max_examples=300, deadline=None)
    @given(word=st.text(DIGRAPH_LETTERS + "h", min_size=1, max_size=16))
    def test_generated_strings(self, word):
        valid, violations = oracles.rule_check(word)
        verdict = validate(word)
        assert verdict.valid == valid
        assert as_pairs(verdict) == violations

    def test_custom_inventory(self):
        # Single-scalar long (o) and prenasalized (n) graphemes reach checks
        # that no verdict over the standard inventory depends on, since its
        # long and strong graphemes are all digraphs.
        tables = {"weak": {"b", "m"}, "geminate": {"bb"},
                  "prenasalized": {"mb", "n"}, "short": {"a"},
                  "long": {"aa", "o"}}
        names = {"weak": GraphemeClass.WEAK_CONSONANT,
                 "geminate": GraphemeClass.GEMINATE_CONSONANT,
                 "prenasalized": GraphemeClass.PRENASALIZED_CONSONANT,
                 "short": GraphemeClass.SHORT_VOWEL,
                 "long": GraphemeClass.LONG_VOWEL}
        inventory = GraphemeInventory(
            {names[name]: frozenset(texts) for name, texts in tables.items()})
        assert not validate("bba", inventory).valid
        assert validate("aamba", inventory).valid
        for n in range(1, 6):
            for letters in itertools.product("abmnok", repeat=n):
                word = "".join(letters)
                valid, violations = oracles.rule_check(word, tables)
                verdict = validate(word, inventory)
                assert verdict.valid == valid, word
                assert as_pairs(verdict) == violations, word


class TestGreedyParse:
    def test_greedy_parse_is_the_first_faithful_parse(self):
        # The verdict reports the greedy parse's violations as those of the
        # first failing faithful parse; that needs greedy to be faithful.
        for word in SHORT_STRINGS:
            expected = oracles.faithful_parses(word)[0]
            assert [g.text for g in segment(word)] == expected, word


class TestLongInputs:
    @pytest.mark.parametrize("pairs", [16, 2000])
    def test_adversarial_digraph_run(self, pairs):
        # Every faithful parse starts with the geminate pp, but each "mb"
        # doubles the number of parses an enumeration would try.
        start = time.perf_counter()
        verdict = validate("ppa" + "mb" * pairs)
        assert time.perf_counter() - start < 0.5
        assert verdict == validate("ppa")
        assert verdict.violations == (Violation(INITIAL_STRONG, 0),)

    def test_long_valid_word(self):
        assert validate("ba" * 2500).valid

    def test_long_word_valid_only_through_a_split_digraph(self):
        # Greedy reads aa|mb and fails; reading m+b saves every block.
        assert validate("jaambaar" * 1000).valid

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            validate("")


class TestDeterminism:
    def test_repeated_calls_identical(self):
        for word in ["dëkk", "ppa", "saakk", "thiossane"]:
            assert validate(word) == validate(word)
