import random
import unicodedata

import pytest

from wolofspell.alphabet import (
    GEMINATE_CONSONANTS,
    LONG_VOWELS,
    PRENASALIZED_CONSONANTS,
    SHORT_VOWELS,
    WEAK_CONSONANTS,
    WOLOF_CHARS,
    Grapheme,
    GraphemeClass,
    GraphemeInventory,
    UnsegmentableError,
    is_wolof_char,
    segment,
)

import oracles


class TestInventories:
    def test_class_sizes(self):
        assert len(WEAK_CONSONANTS) == 20
        assert len(GEMINATE_CONSONANTS) == 16
        assert len(PRENASALIZED_CONSONANTS) == 9
        assert len(SHORT_VOWELS) == 10
        assert len(LONG_VOWELS) == 7

    def test_exact_membership(self):
        assert WEAK_CONSONANTS == oracles.WEAK
        assert GEMINATE_CONSONANTS == oracles.GEMINATE
        assert PRENASALIZED_CONSONANTS == oracles.PRENASALIZED
        assert SHORT_VOWELS == oracles.SHORT
        assert LONG_VOWELS == oracles.LONG

    def test_char_set_is_weak_union_short(self):
        assert WOLOF_CHARS == WEAK_CONSONANTS | SHORT_VOWELS
        assert len(WOLOF_CHARS) == 30

    def test_all_entries_nfc_composed(self):
        for table in (WEAK_CONSONANTS, GEMINATE_CONSONANTS,
                      PRENASALIZED_CONSONANTS, SHORT_VOWELS, LONG_VOWELS):
            for g in table:
                assert unicodedata.normalize("NFC", g) == g

    def test_no_text_in_two_classes(self):
        tables = [WEAK_CONSONANTS, GEMINATE_CONSONANTS,
                  PRENASALIZED_CONSONANTS, SHORT_VOWELS, LONG_VOWELS]
        seen = set()
        for table in tables:
            assert not (table & seen)
            seen |= table


    def test_class_of(self):
        inventory = GraphemeInventory.default()
        assert inventory.class_of("kk") is GraphemeClass.GEMINATE_CONSONANT
        assert inventory.class_of("ë") is GraphemeClass.SHORT_VOWEL
        assert inventory.class_of("kt") is None
        assert inventory.class_of("h") is None


class TestIsWolofChar:
    def test_known_members(self):
        assert is_wolof_char("ñ")
        assert is_wolof_char("a")
        assert is_wolof_char("ŋ")

    def test_foreign_letters(self):
        for c in "hvz":
            assert not is_wolof_char(c)

    def test_uppercase_and_decomposed_forms(self):
        assert is_wolof_char("Ñ")
        assert is_wolof_char("Ë")  # decomposed ë, uppercase

    def test_non_letters(self):
        assert not is_wolof_char("3")
        assert not is_wolof_char(" ")


class TestSegment:
    def test_greedy_examples(self):
        assert [(g.text, g.cls) for g in segment("dëkk")] == [
            ("d", GraphemeClass.WEAK_CONSONANT),
            ("ë", GraphemeClass.SHORT_VOWEL),
            ("kk", GraphemeClass.GEMINATE_CONSONANT),
        ]
        assert [(g.text, g.cls) for g in segment("mbokk")] == [
            ("mb", GraphemeClass.PRENASALIZED_CONSONANT),
            ("o", GraphemeClass.SHORT_VOWEL),
            ("kk", GraphemeClass.GEMINATE_CONSONANT),
        ]
        assert [(g.text, g.cls) for g in segment("a")] == [
            ("a", GraphemeClass.SHORT_VOWEL),
        ]

    def test_foreign_character_rejected(self):
        with pytest.raises(UnsegmentableError) as exc:
            segment("thiossane")
        assert exc.value.index == 1  # the 'h'

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            segment("")

    def test_greedy_matches_first_enumerated_parse(self, sample_words):
        for word in sample_words:
            expected = oracles.enumerate_parses(word)[0]
            assert [g.text for g in segment(word)] == expected

    def test_round_trip(self, sample_words):
        rng = random.Random(7)
        graphemes = sorted(oracles.CHARS | oracles.DIGRAPHS)
        words = list(sample_words)
        words += ["".join(rng.choice(graphemes) for _ in range(rng.randint(1, 6)))
                  for _ in range(300)]
        for word in words:
            assert "".join(g.text for g in segment(word)) == word

    def test_classes_assigned_from_their_inventory(self, sample_words):
        tables = {
            GraphemeClass.WEAK_CONSONANT: WEAK_CONSONANTS,
            GraphemeClass.GEMINATE_CONSONANT: GEMINATE_CONSONANTS,
            GraphemeClass.PRENASALIZED_CONSONANT: PRENASALIZED_CONSONANTS,
            GraphemeClass.SHORT_VOWEL: SHORT_VOWELS,
            GraphemeClass.LONG_VOWEL: LONG_VOWELS,
        }
        for word in sample_words:
            for g in segment(word):
                assert g.text in tables[g.cls]

    def test_pure_function(self):
        assert segment("ginnaaw") == segment("ginnaaw")


class TestGrapheme:
    def test_strong_predicate(self):
        assert Grapheme("kk", GraphemeClass.GEMINATE_CONSONANT).is_strong
        assert Grapheme("mb", GraphemeClass.PRENASALIZED_CONSONANT).is_strong
        assert not Grapheme("k", GraphemeClass.WEAK_CONSONANT).is_strong
        assert not Grapheme("aa", GraphemeClass.LONG_VOWEL).is_strong


class TestInventoryOverride:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inventory.tsv"
        path.write_text(
            "# tiny inventory\n"
            "b\tweak_consonant\n"
            "a\tshort_vowel\n"
            "aa\tlong_vowel\n",
            encoding="utf-8")
        inv = GraphemeInventory.from_file(path)
        assert inv.is_wolof_char("b")
        assert not inv.is_wolof_char("k")
        assert [g.text for g in inv.segment("baa")] == ["b", "aa"]

    def test_duplicate_across_classes_rejected(self):
        with pytest.raises(ValueError):
            GraphemeInventory({
                GraphemeClass.WEAK_CONSONANT: frozenset({"a"}),
                GraphemeClass.SHORT_VOWEL: frozenset({"a"}),
            })
