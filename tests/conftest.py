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
