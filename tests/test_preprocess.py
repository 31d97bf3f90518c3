import io
import random
import re
import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wolofspell.alphabet import WOLOF_CHARS
from wolofspell.cli import read_config_file
from wolofspell.distance import CostModel
from wolofspell.evaluation import CorpusEntry, load_corpus
from wolofspell.lexicon import load
from wolofspell.preprocess import (
    contains_digit,
    load_exclusion_list,
    normalize,
    strip_punctuation,
    tokens,
    utf8_lines,
    word,
)
from wolofspell.translit import RuleSet


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


class TestTokens:
    def test_punctuation_splits_and_case_folds(self):
        assert tokens("Deuk bi, sakhar!") == ["deuk", "bi", "sakhar"]
        assert tokens("su-nu l'office") == ["su", "nu", "l", "office"]

    def test_no_tokens(self):
        assert tokens("") == [] and tokens(" -, ") == []


class Rejected(ValueError):
    pass


# Wolof letters in both cases, a decomposed accent, the punctuation and
# spaces found between words, and digits.
_LETTERS = sorted(WOLOF_CHARS | {c.upper() for c in WOLOF_CHARS})
_PIECES = _LETTERS + ["e\u0308", "-", "'", ",", ":", " ", "\u00a0", "1", "7"]


class TestWord:
    @settings(max_examples=500)
    @given(text=st.lists(st.sampled_from(_PIECES), max_size=8).map("".join))
    def test_the_one_token_tokens_finds(self, text):
        found = tokens(text)
        if len(found) == 1:
            assert word(text, Rejected) == found[0]
        else:
            with pytest.raises(Rejected):
                word(text, Rejected)

    @settings(max_examples=300)
    @given(text=st.lists(st.sampled_from(_LETTERS), min_size=1,
                         max_size=8).map("".join))
    def test_fast_path_agrees_with_tokens(self, text):
        assert text.isalpha()  # the fast path
        assert [word(text)] == tokens(text)

    def test_every_alphabetic_code_point_is_one_token(self):
        # word's fast path takes an all-alphabetic text as one token as it
        # is; that is sound only while this holds on the running Python.
        wrong = [hex(cp) for cp in range(sys.maxunicode + 1)
                 if chr(cp).isalpha() and tokens(chr(cp)) != [normalize(chr(cp))]]
        assert wrong == []

    def test_reads_like_text(self):
        assert word(" Dëkk, ") == "dëkk"
        assert word("DËKK2") == "dëkk2"  # digits are the lexicon's rule

    @pytest.mark.parametrize("text, message", [
        ("", "empty word"),
        ("  ", "empty word"),
        ("Dëkk bi", "whitespace inside word 'dëkk bi'"),
        ("Deuk\u00a0Bi", "whitespace inside word 'deuk\\xa0bi'"),
        ("su-nu", "punctuation inside word 'su-nu'"),
        ("ta:nk", "punctuation inside word 'ta:nk'"),
        (" - ", "no word in '-'"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(Rejected) as err:
            word(text, Rejected)
        assert str(err.value) == message

    def test_what_names_the_text(self):
        with pytest.raises(ValueError, match="^whitespace inside gold 'a b'$"):
            word("a b", what="gold")


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


class TestUtf8Lines:
    def test_universal_newlines_kept_and_stream_left_open(self):
        # whoever opened the stream closes it: stdin, say, stays usable
        stream = io.BytesIO("\ufeffa\r\nb\rc\n\nd".encode("utf-8"))
        assert list(utf8_lines(stream, "in")) == ["a\n", "b\n", "c\n", "\n", "d"]
        assert not stream.closed

    def test_stream_left_open_when_reading_stops_early(self):
        stream = io.BytesIO(b"a\nb\n")
        lines = utf8_lines(stream, "in")
        assert next(lines) == "a\n"
        lines.close()
        assert not stream.closed

    def test_only_a_leading_byte_order_mark_dropped(self):
        stream = io.BytesIO("\ufeff\ufeffa\n\ufeffb".encode("utf-8"))
        assert list(utf8_lines(stream, "in")) == ["\ufeffa\n", "\ufeffb"]

    @pytest.mark.parametrize("data, reason", [(b"a\n\xff\n", "invalid start byte"),
                                              (b"a\xc3", "unexpected end of data")])
    def test_bad_byte_raises_the_callers_error_naming_the_input(self, data,
                                                                reason):
        stream = io.BytesIO(data)
        with pytest.raises(Rejected, match=f"^in: not UTF-8 text \\({reason}\\)$"):
            list(utf8_lines(stream, "in", Rejected))
        assert not stream.closed


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


# Each loader with its last two rows, and what it parses from a file of a
# whole-line comment, a blank line, the first row ending in CRLF and the
# second carrying a trailing "# note".
LOADERS = {
    "lexicon": (lambda path: list(load(path).iterate()), "Dëkk", "bi",
                ["bi", "dëkk"]),
    "corpus": (load_corpus, "dëkk\tvalid", "deuk\tinvalid\tdëkk",
               [CorpusEntry("dëkk", valid=True),
                CorpusEntry("deuk", valid=False, gold="dëkk")]),
    "costs": (lambda path: CostModel.from_file(path).substitution_overrides,
              "a\tà\t1", "x\tq\t3",
              {("a", "à"): 1, ("à", "a"): 1, ("x", "q"): 3, ("q", "x"): 3}),
    "translit": (lambda path: RuleSet.from_file(path).rules, "ou\tu", "e\t",
                 {"ou": "u", "e": ""}),
    "config": (read_config_file, "k = 3", "max_cost = 2",
               {"k": "3", "max_cost": "2"}),
    "exclude": (load_exclusion_list, "Bonjour", "merci",
                frozenset({"bonjour", "merci"})),
}


@pytest.mark.parametrize("name", LOADERS)
def test_every_loader_reads_comments_blanks_and_crlf_alike(tmp_path, name):
    parse, first, second, expected = LOADERS[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(f"# {name} file\n\n{first}\r\n{second}  # note\n"
                     .encode("utf-8"))
    assert parse(path) == expected


@pytest.mark.parametrize("name", LOADERS)
def test_every_loader_drops_a_leading_byte_order_mark(tmp_path, name):
    parse, first, second, expected = LOADERS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(f"\ufeff{first}\n{second}\n", encoding="utf-8")
    assert parse(path) == expected


@pytest.mark.parametrize("name", LOADERS)
def test_every_loader_names_the_line_of_a_bad_row(tmp_path, name):
    parse, first, _, _ = LOADERS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(f"{first}\n# note\na b\tc\td\te\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        parse(path)
