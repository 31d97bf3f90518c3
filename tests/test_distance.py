import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wolofspell.alphabet import WOLOF_CHARS
from wolofspell.distance import (
    DEFAULT_SUBSTITUTION_PAIRS,
    CostModel,
    plain_edit_distance,
    weighted_levenshtein,
)

import oracles

ALPHABET = sorted(WOLOF_CHARS)


def random_word(rng, max_len, alphabet=ALPHABET):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


class TestCostModel:
    def test_substituting_equal_characters_is_free(self, model):
        for c in ALPHABET:
            assert model.substitute_cost(c, c) == 0

    def test_listed_couples_cost_one_both_ways(self, model):
        for a, b in DEFAULT_SUBSTITUTION_PAIRS:
            assert model.substitute_cost(a, b) == 1
            assert model.substitute_cost(b, a) == 1

    def test_unlisted_unequal_pair_costs_two(self, model):
        assert model.substitute_cost("b", "d") == 2
        assert model.substitute_cost("a", "o") == 2

    def test_insert_delete_unit(self, model):
        assert model.insert == 1
        assert model.delete == 1

    def test_symmetry_of_table(self, model):
        for (a, b), cost in model.substitution_overrides.items():
            assert model.substitution_overrides[(b, a)] == cost

    def test_override_file(self, tmp_path, model):
        path = tmp_path / "costs.tsv"
        path.write_text("# overrides\nb\td\t1\n", encoding="utf-8")
        custom = CostModel.from_file(path)
        assert custom.substitute_cost("b", "d") == 1
        assert custom.substitute_cost("d", "b") == 1
        assert custom.substitute_cost("a", "à") == 2  # defaults replaced
        assert model.substitute_cost("b", "d") == 2

    def test_override_file_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "costs.tsv"
        for row, detail in (("b\td\n", "expected"),
                            ("ou\tu\t0\n", "one character"),
                            ("a\tbb\t1\n", "one character"),
                            ("b\td\tx\n", "cost 'x'")):
            path.write_text(row, encoding="utf-8")
            with pytest.raises(ValueError, match=f"{path}:1") as err:
                CostModel.from_file(path)
            assert detail in str(err.value), row

    def test_override_file_normalizes_characters(self, tmp_path):
        path = tmp_path / "costs.tsv"
        # a decomposed à (a + U+0300), and an uppercase decomposed ë
        path.write_text("a\u0300\ta\t5\nE\u0308\te\t0\n", encoding="utf-8")
        custom = CostModel.from_file(path)
        assert custom.substitute_cost("a", "à") == 5
        assert custom.substitute_cost("à", "a") == 5
        assert weighted_levenshtein("dëkk", "dekk", custom) == 0


class TestWeightedLevenshtein:
    def test_accent_substitution(self, model):
        assert weighted_levenshtein("tank", "tànk", model) == 1

    def test_identity(self, model):
        rng = random.Random(37)
        for _ in range(100):
            w = random_word(rng, 8)
            assert weighted_levenshtein(w, w, model) == 0

    def test_insertions_from_empty(self, model):
        assert weighted_levenshtein("", "abc", model) == 3

    def test_mixed_edit_frozen_value(self, model):
        # e->ë substitution, one deletion, one insertion
        assert weighted_levenshtein("deuk", "dëkk", model) == 3

    def test_matches_scratch_recursion(self, model):
        rng = random.Random(41)
        for _ in range(300):
            w1, w2 = random_word(rng, 6), random_word(rng, 6)
            assert weighted_levenshtein(w1, w2, model) == \
                oracles.wld_recursive(w1, w2), (w1, w2)

    def test_exhaustive_small_sweep(self, model):
        small = ["", "a", "à", "k", "aà", "kk", "àk", "aak", "kaà", "àëu"]
        for w1, w2 in itertools.product(small, repeat=2):
            assert weighted_levenshtein(w1, w2, model) == \
                oracles.wld_recursive(w1, w2)

    def test_symmetry(self, model):
        rng = random.Random(43)
        for _ in range(200):
            w1, w2 = random_word(rng, 7), random_word(rng, 7)
            assert weighted_levenshtein(w1, w2, model) == \
                weighted_levenshtein(w2, w1, model)

    def test_zero_iff_equal(self, model):
        rng = random.Random(47)
        for _ in range(200):
            w1, w2 = random_word(rng, 5), random_word(rng, 5)
            d = weighted_levenshtein(w1, w2, model)
            assert (d == 0) == (w1 == w2)

    def test_triangle_inequality(self, model):
        rng = random.Random(53)
        for _ in range(200):
            x, y, z = (random_word(rng, 6) for _ in range(3))
            assert weighted_levenshtein(x, z, model) <= \
                weighted_levenshtein(x, y, model) + weighted_levenshtein(y, z, model)

    def test_upper_bound(self, model):
        rng = random.Random(59)
        for _ in range(200):
            w1, w2 = random_word(rng, 8), random_word(rng, 8)
            assert weighted_levenshtein(w1, w2, model) <= \
                2 * max(len(w1), len(w2))

    def test_bracketed_by_plain_distance(self, model):
        rng = random.Random(61)
        for _ in range(200):
            w1, w2 = random_word(rng, 8), random_word(rng, 8)
            plain = plain_edit_distance(w1, w2)
            weighted = weighted_levenshtein(w1, w2, model)
            assert plain <= weighted <= 2 * plain


class TestReferenceRecursion:
    def test_single_substitution(self, model):
        assert oracles.wld_recursive("a", "à") == 1
        assert weighted_levenshtein("a", "à", model) == 1

    def test_empty_pair(self, model):
        assert oracles.wld_recursive("", "") == 0
        assert weighted_levenshtein("", "", model) == 0

    def test_agrees_with_dp(self, model):
        rng = random.Random(67)
        for _ in range(150):
            w1, w2 = random_word(rng, 5), random_word(rng, 5)
            assert oracles.wld_recursive(w1, w2) == \
                weighted_levenshtein(w1, w2, model)

    def test_unit_model_reduces_to_max_base_case(self):
        unit = CostModel.unit()
        assert oracles.lev_recursive("", "abcd") == 4
        assert oracles.lev_recursive("ab", "") == 2
        assert weighted_levenshtein("", "abcd", unit) == 4
        assert weighted_levenshtein("ab", "", unit) == 2

    @pytest.mark.parametrize("ins,dele", [(1, 3), (3, 1)])
    @settings(max_examples=300, deadline=None)
    @given(w1=st.text(ALPHABET, max_size=6), w2=st.text(ALPHABET, max_size=6))
    def test_unequal_insert_delete_costs(self, ins, dele, w1, w2):
        model = CostModel(insert=ins, delete=dele)
        assert weighted_levenshtein(w1, w2, model) == \
            oracles.wld_recursive(w1, w2, ins=ins, dele=dele)


class TestPlainEditDistance:
    def test_frozen_example(self):
        # delete u, insert n, insert a
        assert plain_edit_distance("guinaw", "ginnaaw") == 3

    def test_identity(self):
        rng = random.Random(71)
        for _ in range(50):
            w = random_word(rng, 10)
            assert plain_edit_distance(w, w) == 0

    def test_single_deletion(self):
        assert plain_edit_distance("a", "") == 1

    def test_matches_scratch_recursion(self):
        rng = random.Random(73)
        for _ in range(300):
            w1, w2 = random_word(rng, 6), random_word(rng, 6)
            assert plain_edit_distance(w1, w2) == oracles.lev_recursive(w1, w2)
