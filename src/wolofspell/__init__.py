"""Spelling detection and correction for Wolof.

Detection validates tokens against Wolof phonotactics and a trie-backed
lexicon; correction rewrites French-influenced spellings, then ranks
lexicon words by weighted edit distance computed along the trie.
"""

from importlib import resources

from .alphabet import (
    Grapheme,
    GraphemeClass,
    GraphemeInventory,
    UnsegmentableError,
    is_wolof_char,
    segment,
)
from .distance import CostModel, plain_edit_distance, weighted_levenshtein
from .evaluation import (
    ConfusionCounts,
    CorpusEntry,
    EmptyCorpusError,
    EvalReport,
    MalformedCorpusError,
    compute_metrics,
    evaluate,
    histogram,
    load_corpus,
)
from .lexicon import MalformedLexiconError, TrieDict, load
from .pipeline import CheckReport, FlaggedBy, SpellChecker, WordResult, WordStatus
from .preprocess import Token, normalize, strip_punctuation, tokenize
from .rules import RuleVerdict, Violation, validate
from .suggest import EmptyLexiconError, Suggestion, SuggestionList, best, suggest
from .translit import RuleSet, TranslitRule, transform

__version__ = "0.1.0"


def sample_lexicon_path():
    """Path-like handle on the bundled sample lexicon."""
    return resources.files("wolofspell").joinpath("data/sample_lexicon.txt")


def load_sample_lexicon() -> TrieDict:
    with resources.as_file(sample_lexicon_path()) as path:
        return load(path)
