import pytest

from wolofspell.lexicon import TrieDict
from wolofspell.pipeline import FlaggedBy, SpellChecker, WordStatus
from wolofspell.suggest import EmptyLexiconError

from conftest import KNOWN_MISSPELLINGS


class TestCheckWord:
    def test_lexicon_member_is_correct(self, sample_lexicon):
        result = SpellChecker(sample_lexicon).check_word("dëkk")
        assert result.status is WordStatus.CORRECT
        assert result.corrected is None
        assert result.flagged_by is None

    def test_french_spelling_corrected(self, sample_lexicon):
        result = SpellChecker(sample_lexicon).check_word("mousiba")
        assert result.status is WordStatus.CORRECTED
        assert result.corrected == "musiba"
        assert result.flagged_by is FlaggedBy.LEXICON

    def test_compound_sound_plus_distance(self, sample_lexicon):
        result = SpellChecker(sample_lexicon).check_word("gnopati")
        assert result.corrected == "ñoppati"

    def test_foreign_char_flagged_by_rules(self, sample_lexicon):
        result = SpellChecker(sample_lexicon).check_word("thiossane")
        assert result.status is WordStatus.CORRECTED
        assert result.flagged_by is FlaggedBy.RULES
        assert result.corrected == "cosaan"

    def test_correction_is_top_suggestion(self, sample_lexicon):
        result = SpellChecker(sample_lexicon).check_word("deuk")
        assert result.status is WordStatus.CORRECTED
        assert result.corrected == result.suggestions.items[0].word

    def test_digit_token_dropped(self, sample_lexicon):
        result = SpellChecker(sample_lexicon).check_word("xyz123")
        assert result.status is WordStatus.DROPPED
        assert result.suggestions is None

    def test_excluded_word_dropped(self, sample_lexicon):
        checker = SpellChecker(sample_lexicon, exclude=frozenset({"bonjour"}))
        assert checker.check_word("bonjour").status is WordStatus.DROPPED

    def test_rule_failure_bypasses_lexicon(self):
        # "saakk" breaks the long-vowel rule; even as a lexicon member it
        # must be flagged, because the rules edge skips the lexicon lookup.
        trie = TrieDict(["saakk", "sakk"])
        result = SpellChecker(trie).check_word("saakk")
        assert result.status is not WordStatus.CORRECT
        assert result.flagged_by is FlaggedBy.RULES

    def test_all_lexicon_members_pass(self, sample_lexicon, sample_words):
        checker = SpellChecker(sample_lexicon)
        for word in sample_words:
            assert checker.check_word(word).status is WordStatus.CORRECT, word

    def test_no_suggestion_when_nothing_in_budget(self, sample_lexicon):
        checker = SpellChecker(sample_lexicon, max_cost=0)
        result = checker.check_word("zzzgh")
        assert result.status is WordStatus.NO_SUGGESTION

    def test_no_suggestion_when_transform_consumes_word(self, sample_lexicon):
        # nothing of the word survives foreign-letter elimination
        result = SpellChecker(sample_lexicon).check_word("hvh")
        assert result.status is WordStatus.NO_SUGGESTION
        assert result.output_word == "hvh"

    def test_empty_word_rejected(self, sample_lexicon):
        with pytest.raises(ValueError, match="word must be non-empty"):
            SpellChecker(sample_lexicon).check_word("")

    def test_empty_lexicon_propagates(self):
        with pytest.raises(EmptyLexiconError):
            SpellChecker(TrieDict()).check_word("dëkk")

    def test_table3_misspellings_all_corrected(self, correction_lexicon):
        checker = SpellChecker(correction_lexicon)
        for misspelling, gold in KNOWN_MISSPELLINGS:
            result = checker.check_word(misspelling)
            assert result.status is WordStatus.CORRECTED, misspelling
            assert result.corrected == gold, misspelling


class TestCheckText:
    def test_two_word_example(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("deuk bi")
        statuses = [(r.original.surface, r.status) for r in report.results]
        assert statuses == [("deuk", WordStatus.CORRECTED),
                            ("bi", WordStatus.CORRECT)]
        assert report.results[0].corrected == "dëkk"
        assert report.corrected_text == "dëkk bi"

    def test_punctuation_and_case_cleaned(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("Deuk, bi!")
        assert report.corrected_text == "dëkk bi"

    def test_digit_tokens_reported_and_dropped(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("am 3 xar")
        statuses = [r.status for r in report.results]
        assert statuses == [WordStatus.CORRECT, WordStatus.DROPPED,
                            WordStatus.CORRECT]
        assert report.corrected_text == "am xar"

    def test_token_order_preserved(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("xar deuk bi am")
        surfaces = [r.original.surface for r in report.results]
        assert surfaces == ["xar", "deuk", "bi", "am"]
        positions = [r.original.position for r in report.results]
        assert positions == [0, 1, 2, 3]

    def test_line_structure_preserved(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("deuk bi\nxar 22\n")
        assert report.corrected_text == "dëkk bi\nxar\n"

    def test_empty_text(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("")
        assert report.results == ()
        assert report.corrected_text == ""

    def test_kept_token_count_matches(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("am 3 xar deuk")
        kept = [r for r in report.results if r.status is not WordStatus.DROPPED]
        assert len(report.corrected_text.split()) == len(kept)

    def test_corrected_text_words_are_lexicon_members(self, sample_lexicon):
        report = SpellChecker(sample_lexicon).check_text("Deuk bi dem sakhar")
        assert all(r.status in (WordStatus.CORRECT, WordStatus.CORRECTED)
                   for r in report.results)
        for word in report.corrected_text.split():
            assert sample_lexicon.contains(word)
