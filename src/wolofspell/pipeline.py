"""End-to-end checking: preprocess, look up, validate, transform, suggest.

Per token the flow is: lexicon lookup first, phonotactic validation second.
A lexicon word is correct only when it also obeys the writing rules; its
rules verdict is computed once per checker and remembered, since it depends
on nothing but the word.  A word missing from the lexicon is validated to
tell which gate flags it: the rules when it breaks them, the lexicon
otherwise.  A token flagged by either gate is transformed (French compound
sounds rewritten, foreign letters removed) and the transformed form queries
the suggestion engine; the top-ranked candidate becomes the correction.
Tokens containing digits, and tokens on the exclusion list, are dropped:
reported, but excluded from correction and from the reassembled text.

``SpellChecker`` holds the configuration (lexicon, cost model, rules, k,
cost cap, exclusion list) and is the one entry point for checking a word
or a text.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import preprocess, rules
from .distance import CostModel
from .lexicon import TrieDict
from .preprocess import Token
from .suggest import SuggestionList, suggest, validate_settings
from .translit import RuleSet, transform


class WordStatus(Enum):
    CORRECT = "correct"
    CORRECTED = "corrected"
    NO_SUGGESTION = "no_suggestion"
    DROPPED = "dropped"


class FlaggedBy(Enum):
    RULES = "rules"
    LEXICON = "lexicon"


class WordResult(NamedTuple):
    original: Token
    status: WordStatus
    corrected: str | None = None
    suggestions: SuggestionList | None = None
    flagged_by: FlaggedBy | None = None

    @property
    def output_word(self) -> str | None:
        """What the token becomes in the corrected text (None = dropped)."""
        if self.status is WordStatus.DROPPED:
            return None
        if self.status is WordStatus.CORRECTED:
            return self.corrected
        return self.original.surface


class CheckReport(NamedTuple):
    results: tuple[WordResult, ...]
    corrected_text: str


class SpellChecker:
    """A configured checker: lexicon, cost model, transliteration rules."""

    def __init__(self, lexicon: TrieDict, model: CostModel | None = None,
                 translit_rules: RuleSet | None = None, k: int = 10,
                 max_cost: int | None = None,
                 exclude: frozenset[str] | None = None):
        self.lexicon = lexicon
        self.model = model or CostModel()
        validate_settings(self.model, k, max_cost)
        self.translit_rules = translit_rules
        self.k = k
        self.max_cost = max_cost
        # each entry read as one token, as TrieDict reads its words
        self.exclude = frozenset(preprocess.word(entry) for entry in exclude or ())
        # rules verdicts of lexicon words seen so far; never more entries
        # than the lexicon has words
        self._lexicon_verdicts: dict[str, bool] = {}

    def check_word(self, word: str, position: int = 0) -> WordResult:
        """Run one normalized token through detection and correction."""
        if not word:
            raise ValueError("word must be non-empty")
        token = Token(word, position)
        if preprocess.contains_digit(word) or word in self.exclude:
            return WordResult(token, WordStatus.DROPPED)

        if self.lexicon.contains(word):
            valid = self._lexicon_verdicts.get(word)
            if valid is None:
                valid = self._lexicon_verdicts[word] = rules.validate(word).valid
            if valid:
                return WordResult(token, WordStatus.CORRECT)
            # A lexicon word that breaks the rules is still flagged by them.
            flagged = FlaggedBy.RULES
        elif rules.validate(word).valid:
            flagged = FlaggedBy.LEXICON
        else:
            flagged = FlaggedBy.RULES

        query = transform(word, self.translit_rules)
        if not query:
            return WordResult(token, WordStatus.NO_SUGGESTION, flagged_by=flagged)
        candidates = suggest(query, self.lexicon, self.model,
                             k=self.k, max_cost=self.max_cost)
        if not candidates.items:
            return WordResult(token, WordStatus.NO_SUGGESTION,
                              suggestions=candidates, flagged_by=flagged)
        return WordResult(token, WordStatus.CORRECTED,
                          corrected=candidates.items[0].word,
                          suggestions=candidates, flagged_by=flagged)

    def check_text(self, text: str) -> CheckReport:
        """Check whole text; corrections are substituted token-locally.

        Line structure is preserved: within a line, kept tokens are joined by
        single spaces; dropped tokens leave no residue.
        """
        results: list[WordResult] = []
        out_lines: list[str] = []
        position = 0
        for line in text.split("\n"):
            out_words: list[str] = []
            for raw in preprocess.tokens(line):
                result = self.check_word(raw, position)
                position += 1
                results.append(result)
                word = result.output_word
                if word is not None:
                    out_words.append(word)
            out_lines.append(" ".join(out_words))
        return CheckReport(tuple(results), "\n".join(out_lines))
