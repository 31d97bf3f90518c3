"""The result and configuration records are immutable named tuples: fixed
fields and defaults, value equality, and the ``Name(field=value)`` repr.
``SuggestionList`` is the one frozen dataclass."""

import dataclasses

import pytest

from wolofspell.alphabet import Grapheme, GraphemeClass
from wolofspell.distance import DEFAULT_SUBSTITUTION_PAIRS, CostModel, _symmetric
from wolofspell.evaluation import (ConfusionCounts, CorpusEntry, DetectionMetrics,
                                   EvalReport)
from wolofspell.pipeline import CheckReport, FlaggedBy, WordResult, WordStatus
from wolofspell.preprocess import Token
from wolofspell.rules import INITIAL_STRONG, RuleVerdict, Violation
from wolofspell.suggest import Suggestion, SuggestionList, suggest

TOKEN = Token("deuk", 0)
COUNTS = ConfusionCounts(1, 0, 0, 2)
METRICS = DetectionMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
SUGGESTIONS = SuggestionList((Suggestion("dëkk", 1),), "dëk", nodes_expanded=3)

# class, field names in order, defaults, one value per field
RECORDS = [
    (Grapheme, ("text", "cls"), {}, ("mb", GraphemeClass.PRENASALIZED_CONSONANT)),
    (CostModel, ("insert", "delete", "substitution_overrides", "mismatch"),
     {"insert": 1, "delete": 1,
      "substitution_overrides": _symmetric(DEFAULT_SUBSTITUTION_PAIRS), "mismatch": 2},
     (1, 1, {("b", "p"): 1, ("p", "b"): 1}, 2)),
    (Token, ("surface", "position"), {}, ("deuk", 0)),
    (Violation, ("rule", "index"), {}, (INITIAL_STRONG, 0)),
    (RuleVerdict, ("valid", "violations"), {"violations": ()},
     (False, (Violation(INITIAL_STRONG, 0),))),
    (Suggestion, ("word", "cost"), {}, ("dëkk", 1)),
    (WordResult, ("original", "status", "corrected", "suggestions", "flagged_by"),
     {"corrected": None, "suggestions": None, "flagged_by": None},
     (TOKEN, WordStatus.CORRECTED, "dëkk", SUGGESTIONS, FlaggedBy.LEXICON)),
    (CheckReport, ("results", "corrected_text"), {},
     ((WordResult(TOKEN, WordStatus.CORRECT),), "deuk")),
    (CorpusEntry, ("word", "valid", "gold"), {"gold": None}, ("deuk", False, "dëkk")),
    (ConfusionCounts, ("tp", "fp", "fn", "tn"), {}, tuple(COUNTS)),
    (DetectionMetrics, ("lexical_recall", "error_recall", "lexical_precision",
                        "error_precision", "lexical_f_measure", "error_f_measure",
                        "predictive_accuracy"), {}, tuple(METRICS)),
    (EvalReport, ("counts", "detection", "suggestion_adequacy",
                  "mean_reciprocal_rank", "histogram_all", "histogram_wrong"), {},
     (COUNTS, METRICS, 0.5, 0.75, {2: 1, 4: 1}, {4: 1})),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, values", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_and_defaults(self, cls, fields, defaults, values):
        assert cls._fields == fields
        assert cls._field_defaults == defaults

    def test_fields_cannot_be_assigned(self, cls, fields, defaults, values):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_equal_fields_compare_equal(self, cls, fields, defaults, values):
        first, second = cls(*values), cls(*values)
        assert first == second
        assert first is not second
        assert cls(*values[:-1], None) != first

    def test_unpacks_by_position(self, cls, fields, defaults, values):
        assert tuple(cls(*values)) == values


def test_default_cost_table_is_shared():
    assert CostModel().substitution_overrides is CostModel().substitution_overrides
    assert CostModel.unit().substitution_overrides == {}


def test_overridden_str_and_property():
    assert str(Grapheme("mb", GraphemeClass.PRENASALIZED_CONSONANT)) == "mb"
    assert WordResult(TOKEN, WordStatus.CORRECTED, "dëkk").output_word == "dëkk"
    assert WordResult(TOKEN, WordStatus.CORRECT).output_word == "deuk"
    assert WordResult(TOKEN, WordStatus.DROPPED).output_word is None


def test_suggestion_repr():
    assert repr(Suggestion("dëkk", 1)) == "Suggestion(word='dëkk', cost=1)"


def test_word_result_repr():
    result = WordResult(TOKEN, WordStatus.CORRECTED, "dëkk", SUGGESTIONS,
                        FlaggedBy.LEXICON)
    assert repr(result) == (
        "WordResult(original=Token(surface='deuk', position=0), "
        "status=<WordStatus.CORRECTED: 'corrected'>, corrected='dëkk', "
        "suggestions=SuggestionList(items=(Suggestion(word='dëkk', cost=1),), "
        "query='dëk', nodes_expanded=3), "
        "flagged_by=<FlaggedBy.LEXICON: 'lexicon'>)")


def test_suggestion_list_is_frozen(sample_lexicon):
    result = suggest("deuk", sample_lexicon, k=3)
    assert type(result.items) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.items = ()
    # nodes_expanded is a counter, not part of the value
    assert dataclasses.replace(result, nodes_expanded=0) == result
