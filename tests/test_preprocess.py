import random
import re
import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wolofspell.preprocess import (
    contains_digit,
    load_exclusion_list,
    normalize,
    strip_punctuation,
)


class TestStripPunctuation:
    def test_commas_and_exclamation_marks(self):
        assert strip_punctuation("dëkk, bi!") == "dëkk  bi "

    def test_empty(self):
        assert strip_punctuation("") == ""

    def test_each_mark_becomes_one_space(self):
        assert strip_punctuation("a.b?c") == "a b c"

    def test_apostrophes_and_hyphens_are_punctuation(self):
        assert strip_punctuation("ndank-ndank l'office") == "ndank ndank l office"

    def test_letters_and_digits_untouched(self):
        assert strip_punctuation("abc 123 ëñŋ") == "abc 123 ëñŋ"

    def test_idempotent(self):
        rng = random.Random(3)
        pool = string.ascii_letters + string.punctuation + " ëñ123"
        for _ in range(200):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
            once = strip_punctuation(text)
            assert strip_punctuation(once) == once


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Dëkk") == "dëkk"
        assert normalize("WOLOF") == "wolof"

    def test_composes_to_nfc(self):
        decomposed = "ë"  # e + combining diaeresis
        assert len(decomposed) == 2
        assert normalize(decomposed) == "ë"
        assert len(normalize(decomposed)) == 1

    def test_idempotent(self):
        for text in ["Dëkk BI", "Ë xA", "", "tÀnk"]:
            once = normalize(text)
            assert normalize(once) == once


class TestExclusionList:
    def test_load(self, tmp_path):
        path = tmp_path / "exclude.txt"
        path.write_text("# foreign words\nBonjour\nmerci  # greeting\n\n",
                        encoding="utf-8")
        words = load_exclusion_list(path)
        assert words == {"bonjour", "merci"}

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "exclude.txt"
        path.write_bytes("Bonjour\ncafé\n".encode("latin-1"))
        with pytest.raises(ValueError, match="not UTF-8"):
            load_exclusion_list(path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_exclusion_list(path)


class TestContainsDigit:
    def test_every_code_point(self):
        wrong = [hex(cp) for cp in range(sys.maxunicode + 1)
                 if contains_digit(chr(cp)) != chr(cp).isdigit()]
        assert wrong == []

    @settings(max_examples=300)
    @given(word=st.text(st.one_of(st.characters(),
                                  st.characters(categories=("Nd", "No")))))
    def test_matches_scan(self, word):
        assert contains_digit(word) == any(c.isdigit() for c in word)
