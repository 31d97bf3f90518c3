"""End-to-end checking: preprocess, validate, look up, transform, suggest.

Per token the flow is: phonotactic validation first, lexicon lookup second.
A token failing validation goes straight to correction and is never looked
up.  A token failing either check is transformed (French compound sounds
rewritten, foreign letters removed) and the transformed form queries the
suggestion engine; the top-ranked candidate becomes the correction.  Tokens
containing digits, and tokens on the exclusion list, are dropped: reported,
but excluded from correction and from the reassembled text.

``SpellChecker`` holds the configuration (lexicon, cost model, rules, k,
cost cap, exclusion list) and is the one entry point for checking a word
or a text.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import preprocess, rules
from .distance import CostModel, default_cost_model
from .lexicon import TrieDict
from .preprocess import Token
from .suggest import SuggestionList, suggest
from .translit import RuleSet, transform


class WordStatus(Enum):
    CORRECT = "correct"
    CORRECTED = "corrected"
    NO_SUGGESTION = "no_suggestion"
    DROPPED = "dropped"


class FlaggedBy(Enum):
    RULES = "rules"
    LEXICON = "lexicon"


@dataclass(frozen=True)
class WordResult:
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


@dataclass(frozen=True)
class CheckReport:
    results: tuple[WordResult, ...]
    corrected_text: str


class SpellChecker:
    """A configured checker: lexicon, cost model, transliteration rules."""

    def __init__(self, lexicon: TrieDict, model: CostModel | None = None,
                 translit_rules: RuleSet | None = None, k: int = 10,
                 max_cost: int | None = None,
                 exclude: frozenset[str] | None = None):
        self.lexicon = lexicon
        self.model = model or default_cost_model()
        self.translit_rules = translit_rules
        self.k = k
        self.max_cost = max_cost
        self.exclude = exclude or frozenset()

    def check_word(self, word: str, position: int = 0) -> WordResult:
        """Run one normalized token through detection and correction."""
        if not word:
            raise ValueError("word must be non-empty")
        token = Token(word, position)
        if preprocess.contains_digit(word) or word in self.exclude:
            return WordResult(token, WordStatus.DROPPED)

        verdict = rules.validate(word)
        if verdict.valid:
            if self.lexicon.contains(word):
                return WordResult(token, WordStatus.CORRECT)
            flagged = FlaggedBy.LEXICON
        else:
            # Failing the rules skips the lexicon lookup entirely.
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
            cleaned = preprocess.normalize(preprocess.strip_punctuation(line))
            out_words: list[str] = []
            for raw in cleaned.split():
                result = self.check_word(raw, position)
                position += 1
                results.append(result)
                word = result.output_word
                if word is not None:
                    out_words.append(word)
            out_lines.append(" ".join(out_words))
        return CheckReport(tuple(results), "\n".join(out_lines))
