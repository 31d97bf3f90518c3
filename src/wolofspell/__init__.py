"""Spelling detection and correction for Wolof.

Detection validates tokens against Wolof phonotactics and a trie-backed
lexicon; correction rewrites French-influenced spellings, then ranks
lexicon words by weighted edit distance computed along the trie.
"""

import os

from .alphabet import (
    Grapheme,
    GraphemeClass,
    UnsegmentableError,
    is_wolof_char,
    segment,
)
from .distance import CostModel, plain_edit_distance, weighted_levenshtein
from .lexicon import MalformedLexiconError, TrieDict, load
from .pipeline import CheckReport, FlaggedBy, SpellChecker, WordResult, WordStatus
from .preprocess import DATA_DIR, Token, normalize, strip_punctuation
from .rules import RuleVerdict, Violation, validate
from .suggest import EmptyLexiconError, Suggestion, SuggestionList, best, suggest
from .translit import RuleSet, transform

__version__ = "0.1.0"

# Re-exported from ``evaluation`` on first access, so that checking text
# (the CLI's ``check`` included) never pays for importing the harness.
_EVALUATION_NAMES = frozenset({
    "ConfusionCounts", "CorpusEntry", "DetectionMetrics", "EmptyCorpusError",
    "EvalReport", "MalformedCorpusError", "compute_metrics", "evaluate",
    "histogram", "load_corpus",
})


def __getattr__(name):
    if name in _EVALUATION_NAMES:
        from . import evaluation
        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sample_lexicon_path() -> str:
    """Path of the bundled sample lexicon."""
    return os.path.join(DATA_DIR, "sample_lexicon.txt")


def load_sample_lexicon() -> TrieDict:
    return load(sample_lexicon_path())
