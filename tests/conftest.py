import pathlib

import pytest
from hypothesis import settings

from wolofspell import CostModel, TrieDict, load_sample_lexicon

TESTS_DIR = pathlib.Path(__file__).parent

# Selected in CI with --hypothesis-profile=ci: the same examples on every
# run, and a failure prints the blob that replays it locally.
settings.register_profile("ci", derandomize=True, print_blob=True)

KNOWN_MISSPELLINGS = (
    ("dadialé", "dajale"),
    ("guinaw", "ginnaaw"),
    ("mousiba", "musiba"),
    ("deuk", "dëkk"),
    ("thiossane", "cosaan"),
    ("gnopati", "ñoppati"),
    ("niaar", "ñaar"),
    ("sakhar", "saxaar"),
    ("tank", "tànk"),
)

# One model per cost field set below 0: suggest and SpellChecker reject each.
NEGATIVE_COSTS = {
    "insert": CostModel(insert=-1),
    "delete": CostModel(delete=-1),
    "mismatch": CostModel(mismatch=-1),
    "override": CostModel(substitution_overrides={("a", "à"): -3}),
}


@pytest.fixture(scope="session")
def sample_lexicon() -> TrieDict:
    return load_sample_lexicon()


@pytest.fixture(scope="session")
def sample_words(sample_lexicon) -> list[str]:
    return list(sample_lexicon.iterate())


@pytest.fixture(scope="session")
def model() -> CostModel:
    return CostModel()


@pytest.fixture(scope="session")
def distractors() -> list[str]:
    path = TESTS_DIR / "data" / "distractors.txt"
    words = [w.strip() for w in path.read_text(encoding="utf-8").splitlines()
             if w.strip() and not w.startswith("#")]
    assert len(words) == 50
    return words


@pytest.fixture(scope="session")
def correction_lexicon(distractors) -> TrieDict:
    golds = [gold for _, gold in KNOWN_MISSPELLINGS]
    return TrieDict(golds + distractors)
