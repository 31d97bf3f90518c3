import pytest
from hypothesis import given, settings, strategies as st

from wolofspell import rules
from wolofspell.lexicon import TrieDict
from wolofspell.pipeline import FlaggedBy, SpellChecker, WordStatus
from wolofspell.suggest import EmptyLexiconError

import oracles
from conftest import KNOWN_MISSPELLINGS, NEGATIVE_COSTS

# Lexicon members include words that break the rules: an initial geminate
# (kkaa), a geminate after a long vowel (ooppa, saakk) and a foreign letter
# (thiossane).  "bonjour" is a member and also excluded.
GATE_LEXICON = ("dëkk", "bi", "xar", "am", "musiba", "ñoppati", "saxaar",
                "ndaw", "mbaam", "kkaa", "ooppa", "saakk", "thiossane",
                "bonjour")
GATE_EXCLUDE = frozenset({"bonjour", "salut"})
FLAGGED = (WordStatus.CORRECTED, WordStatus.NO_SUGGESTION)


def expected_gate(word: str) -> tuple[WordStatus | None, FlaggedBy | None]:
    """(status, flagged_by) from the oracle's rules check plus membership;
    a status of None means flagged, so CORRECTED or NO_SUGGESTION."""
    if any(c.isdigit() for c in word) or word in GATE_EXCLUDE:
        return WordStatus.DROPPED, None
    valid, _ = oracles.rule_check(word)
    if not valid:
        return None, FlaggedBy.RULES
    if word not in GATE_LEXICON:
        return None, FlaggedBy.LEXICON
    return WordStatus.CORRECT, None


def assert_gate(result) -> None:
    status, flagged_by = expected_gate(result.original.surface)
    assert result.flagged_by is flagged_by, result
    if status is None:
        assert result.status in FLAGGED, result
    else:
        assert result.status is status, result


def gate_checker() -> SpellChecker:
    return SpellChecker(TrieDict(GATE_LEXICON), exclude=GATE_EXCLUDE)


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

    def test_exclusion_list_normalized_like_tokens(self, sample_lexicon):
        # tokens are lowercased and NFC-composed, so the entries must be too
        checker = SpellChecker(sample_lexicon,
                               exclude=frozenset({"Deuk", " Bonjour "}))
        assert checker.check_text("Deuk bi bonjour").corrected_text == "bi"

    def test_exclusion_entry_must_read_as_one_token(self, sample_lexicon):
        checker = SpellChecker(sample_lexicon, exclude=frozenset({"Bonjour!"}))
        assert checker.exclude == {"bonjour"}
        with pytest.raises(ValueError, match="whitespace inside word 'a b'"):
            SpellChecker(sample_lexicon, exclude=frozenset({"a b"}))

    def test_rule_failure_bypasses_lexicon(self):
        # "saakk" breaks the long-vowel rule; even as a lexicon member it
        # must be flagged, and by the rules gate, not the lexicon.
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

    @pytest.mark.parametrize("setting, message", [
        ({"k": 0}, "k must be positive"),
        ({"max_cost": -1}, "max_cost must not be negative"),
    ])
    def test_bad_depth_or_cap_rejected_at_construction(self, sample_lexicon,
                                                       setting, message):
        with pytest.raises(ValueError, match=message):
            SpellChecker(sample_lexicon, **setting)

    @pytest.mark.parametrize("bad_model", NEGATIVE_COSTS.values(),
                             ids=list(NEGATIVE_COSTS))
    def test_negative_cost_rejected_at_construction(self, sample_lexicon,
                                                    bad_model):
        with pytest.raises(ValueError, match="costs must not be negative"):
            SpellChecker(sample_lexicon, bad_model)

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


class TestGateOrder:
    """The lexicon is consulted first and each member's rules verdict is
    remembered; every result must still be what the oracle predicts."""

    WORDS = GATE_LEXICON + (
        "kka", "saak", "deuk", "mousiba", "gnopati", "ooppaa", "kkaakk",
        "ñaar", "xar3", "12", "salut", "hvh", "nd", "mbaamm")

    def test_first_and_cached_sighting_match_oracle(self):
        checker = gate_checker()
        for word in self.WORDS:
            first = checker.check_word(word)
            again = checker.check_word(word)
            assert_gate(first)
            assert again == first, word

    def test_member_validated_once_per_checker(self, monkeypatch):
        seen = []
        validate = rules.validate

        def counting(word, *args, **kwargs):
            seen.append(word)
            return validate(word, *args, **kwargs)

        monkeypatch.setattr(rules, "validate", counting)
        checker = gate_checker()
        for _ in range(3):
            for word in ("dëkk", "kkaa", "deuk"):
                checker.check_word(word)
        # members once each; a non-member is validated on every sighting
        assert sorted(seen) == ["deuk"] * 3 + ["dëkk", "kkaa"]
        gate_checker().check_word("dëkk")
        assert seen.count("dëkk") == 2

    # Lexicon words (repeats included), Wolof-letter strings, and strings
    # mixing Wolof, digit and foreign letters.
    TOKENS = st.one_of(
        st.sampled_from(GATE_LEXICON),
        st.text("abdegiklmnoprstuxyëéñŋ", min_size=1, max_size=7),
        st.text("akmpoë019hvz", min_size=1, max_size=6),
    )

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.lists(TOKENS, max_size=6), max_size=4))
    def test_check_text_matches_oracle(self, lines):
        report = gate_checker().check_text(
            "\n".join(" ".join(line) for line in lines))
        words = [word for line in lines for word in line]
        assert [r.original.surface for r in report.results] == words
        for result in report.results:
            assert_gate(result)
