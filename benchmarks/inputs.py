"""Seeded input generator for the wolofspell benchmark.

Writes every input of one workload as files into a directory, before any
measured process starts:

  lexicon.txt     the dictionary (criterion 8's recipe: the bundled sample
                  lexicon padded with weak-consonant/vowel syllables), 1410
                  words, or 5000 for eval_corpus
  lines.jsonl     clean_text, dirty_text and cli_cold_start: one input line
                  per row, {"text": ..., "kinds": ..., "forms": ...}: forms
                  are the normalized tokens the checker sees, space-separated,
                  and kinds has one letter per token, "w" for a lexicon word,
                  "m" for a misspelling and "d" for a digit token the checker
                  drops
  corpus.tsv      eval_corpus: ``word<TAB>valid`` / ``word<TAB>invalid<TAB>gold``

The lexicon and the word-frequency ranking are fixed, as a language's are;
the seed picks the text drawn from them, which words get misspelt and how,
and the corpus entries.  The same seed gives byte-identical files.

Run: python3 benchmarks/inputs.py --workload NAME --seed N --out DIR [--scale tiny]
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from wolofspell import load_sample_lexicon  # noqa: E402
from wolofspell.alphabet import LONG_VOWELS, SHORT_VOWELS, WEAK_CONSONANTS, WOLOF_CHARS  # noqa: E402
from wolofspell.translit import transform  # noqa: E402

WORKLOADS = ("clean_text", "dirty_text", "eval_corpus", "cli_cold_start")

FULL_ALPHABET = sorted(WOLOF_CHARS)

# Inverse of the French-compound rules in translit_rules.tsv: how a writer
# schooled in French spells these Wolof letters.
FRENCH_HABITS = (("u", "ou"), ("x", "kh"), ("ñ", "gn"), ("c", "th"), ("ë", "eu"))

# Sizes of the generated pools.  The text and CLI pools hold four to ten
# times the lines one 20-second run consumes on a 2-core machine at the seed
# commit (about 7000 clean_text lines, 650 dirty_text lines, 130 processes),
# so a run wraps around only when the program gets several times faster.
# The corpus pool is bounded by the 5000-word lexicon, since no entry may
# repeat a word: 4000 entries is about seven 20-second runs' worth.
SIZES = {
    "full": {"clean_lines": 30000, "dirty_lines": 6000, "cli_lines": 1000,
             "eval_entries": 4000, "misspelt_types": 400},
    "tiny": {"clean_lines": 40, "dirty_lines": 40, "cli_lines": 8,
             "eval_entries": 40, "misspelt_types": 20},
}

# Share of dirty_text word tokens that are misspelt.
MISSPELT_SHARE = 0.2


def build_lexicon(sample_words: list[str], size: int) -> list[str]:
    """Sample lexicon padded with generated consonant-vowel words.

    The recipe of the acceptance suite's criterion 8, fixed seed included,
    so the 1410-word lexicon is the one that criterion times.
    """
    rng = random.Random(1410)
    weak = sorted(WEAK_CONSONANTS)
    vowels = sorted(SHORT_VOWELS | LONG_VOWELS)
    words = dict.fromkeys(sample_words)
    while len(words) < size:
        parts = []
        for _ in range(rng.randint(1, 3)):
            parts.append(rng.choice(weak))
            parts.append(rng.choice(vowels))
        if rng.random() < 0.7:
            parts.append(rng.choice(weak))
        words.setdefault("".join(parts))
    return list(itertools.islice(words, size))


def frequency_ranking(words: list[str]) -> list[str]:
    """The words in a fixed frequency order (rank 1 first)."""
    ranked = list(words)
    random.Random(0).shuffle(ranked)
    return ranked


def zipf_cum_weights(n: int) -> list[float]:
    """Cumulative Zipf (s=1) weights of ranks 1..n."""
    return list(itertools.accumulate(1.0 / r for r in range(1, n + 1)))


def mutate(word: str, rng: random.Random, edits: int) -> str:
    """Random insertions, deletions and substitutions over the Wolof alphabet."""
    chars = list(word)
    for _ in range(edits):
        op = rng.choice("ids")
        if op == "i" or not chars:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(FULL_ALPHABET))
        elif op == "d" and len(chars) > 1:
            del chars[rng.randrange(len(chars))]
        else:
            chars[rng.randrange(len(chars))] = rng.choice(FULL_ALPHABET)
    return "".join(chars)


def misspell(word: str, rng: random.Random, lexicon: set[str]) -> str:
    """French-habit rewrites plus 1-2 random edits; never a lexicon word.

    Each rewrite that applies is taken with probability 1/2: the inverse
    transliterations above, and the collapse of a doubled letter (geminate
    consonant or long vowel) to a single one.
    """
    while True:
        w = word
        for wolof, french in FRENCH_HABITS:
            if wolof in w and rng.random() < 0.5:
                w = w.replace(wolof, french)
        collapsed = []
        for c in w:
            if collapsed and collapsed[-1] == c and rng.random() < 0.5:
                continue
            collapsed.append(c)
        w = mutate("".join(collapsed), rng, rng.randint(1, 2))
        if w and w != word and w not in lexicon and transform(w):
            return w


def _decorate(forms: list[tuple[str, str]], rng: random.Random) -> str:
    """Render tokens as running text: sentence capitals, punctuation, digits."""
    out = []
    sentence_start = True
    for kind, form in forms:
        surface = form
        if kind != "d" and (sentence_start or rng.random() < 0.03):
            surface = form[:1].upper() + form[1:]
        sentence_start = False
        r = rng.random()
        if r < 0.08:
            surface += rng.choice(".!?")
            sentence_start = True
        elif r < 0.16:
            surface += rng.choice(",;:")
        out.append(surface)
    return " ".join(out)


def _line(forms: list[tuple[str, str]], rng: random.Random) -> dict:
    return {"text": _decorate(forms, rng),
            "kinds": "".join(kind for kind, _ in forms),
            "forms": " ".join(form for _, form in forms)}


def _digit_token(rng: random.Random) -> str:
    return str(rng.randint(1, 2030))


def text_lines(ranked: list[str], rng: random.Random, n_lines: int,
               length: tuple[int, int], misspellings: dict[str, str] | None = None):
    """Lines of Zipf-distributed words; a misspelt share when misspellings given.

    Misspelt tokens are drawn uniformly from the misspelt word types, each
    always misspelt the same way; drawing them by frequency instead would
    let a run's cost hinge on how the few head words happen to be misspelt.
    """
    cum = zipf_cum_weights(len(ranked))
    misspelt = list(misspellings) if misspellings else []
    for _ in range(n_lines):
        forms = []
        for word in rng.choices(ranked, cum_weights=cum, k=rng.randint(*length)):
            r = rng.random()
            if r < 0.02:
                forms.append(("d", _digit_token(rng)))
            elif misspelt and r < 0.02 + MISSPELT_SHARE:
                forms.append(("m", misspellings[rng.choice(misspelt)]))
            else:
                forms.append(("w", word))
        yield _line(forms, rng)


def cli_lines(ranked: list[str], rng: random.Random, n_lines: int,
              lexicon: set[str]):
    """Short lines of 3-6 words with exactly one misspelling."""
    cum = zipf_cum_weights(len(ranked))
    for _ in range(n_lines):
        forms = [("w", w) for w in rng.choices(ranked, cum_weights=cum,
                                               k=rng.randint(2, 5))]
        target = rng.choice(ranked)
        forms.insert(rng.randrange(len(forms) + 1),
                     ("m", misspell(target, rng, lexicon)))
        yield _line(forms, rng)


def corpus_entries(words: list[str], rng: random.Random, n_entries: int,
                   lexicon: set[str]):
    """Distinct valid and invalid entries, each batch of four half and half.

    Invalid entries have distinct golds, distinct misspellings and distinct
    correction queries, so no two entries repeat any work.
    """
    pool = list(words)
    rng.shuffle(pool)
    valid_words = iter(pool[: len(pool) // 2])
    gold_words = iter(pool[len(pool) // 2:])
    seen_words: set[str] = set()
    seen_queries: set[str] = set()
    entries = []
    while len(entries) < n_entries:
        batch = [(next(valid_words), None), (next(valid_words), None)]
        while len(batch) < 4:
            gold = next(gold_words)
            wrong = misspell(gold, rng, lexicon)
            query = transform(wrong)
            if wrong in seen_words or query in seen_queries:
                continue
            seen_words.add(wrong)
            seen_queries.add(query)
            batch.append((wrong, gold))
        rng.shuffle(batch)
        entries.extend(batch)
    return entries


def generate(workload: str, seed: int, out: Path, scale: str = "full") -> None:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[scale]
    out.mkdir(parents=True, exist_ok=True)
    sample = list(load_sample_lexicon().iterate())
    words = build_lexicon(sample, 5000 if workload == "eval_corpus" else 1410)
    lexicon = set(words)
    (out / "lexicon.txt").write_text("".join(w + "\n" for w in words),
                                     encoding="utf-8")
    rng = random.Random(f"{workload}:{seed}")
    ranked = frequency_ranking(words)

    if workload == "eval_corpus":
        entries = corpus_entries(words, rng, sizes["eval_entries"], lexicon)
        with open(out / "corpus.tsv", "w", encoding="utf-8") as fh:
            for word, gold in entries:
                fh.write(f"{word}\tvalid\n" if gold is None
                         else f"{word}\tinvalid\t{gold}\n")
        return

    if workload == "clean_text":
        lines = text_lines(ranked, rng, sizes["clean_lines"], (100, 140))
    elif workload == "dirty_text":
        types = rng.sample(words, sizes["misspelt_types"])
        misspellings = {w: misspell(w, rng, lexicon) for w in types}
        lines = text_lines(ranked, rng, sizes["dirty_lines"], (10, 14),
                           misspellings)
    else:
        lines = cli_lines(ranked, rng, sizes["cli_lines"], lexicon)
    with open(out / "lines.jsonl", "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, ensure_ascii=False) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scale", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
