"""Evaluation harness: corpus loading, confusion counts, the metric suite.

The labeled corpus is a TSV file of ``word<TAB>label[<TAB>gold]`` rows
(word non-empty; label ``valid`` or ``invalid``, case-insensitive; gold
required exactly when invalid).  Each entry runs through a ``SpellChecker``, whose own
depth ``k`` sets the suggestion lists scored; a word the checker
leaves untouched counts as recognized-correct, anything flagged counts as
recognized-incorrect.  From the four confusion counts come lexical and
error recall/precision/F-measure and predictive accuracy; suggestion
adequacy is top-1 accuracy of the correction over the invalid entries and
mean reciprocal rank scores the whole ranked list (a gold missing from the
list contributes rank infinity, i.e. zero).

Edit-distance histograms bucket the invalid entries by the plain unit-cost
distance between misspelling and gold: one over all invalid entries, one
over those the checker corrected to something other than the gold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distance import plain_edit_distance
from .pipeline import SpellChecker, WordStatus
from .preprocess import normalize, numbered_lines


class MalformedCorpusError(ValueError):
    """A corpus row breaks the format contract."""


class EmptyCorpusError(ValueError):
    """Evaluation needs at least one entry."""


@dataclass(frozen=True)
class CorpusEntry:
    word: str
    valid: bool
    gold: str | None = None


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int  # valid word recognized as correct
    fp: int  # invalid word recognized as correct
    fn: int  # valid word flagged
    tn: int  # invalid word flagged

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class DetectionMetrics:
    lexical_recall: float      # tp / (tp + fn)
    error_recall: float        # tn / (tn + fp)
    lexical_precision: float   # tp / (tp + fp)
    error_precision: float     # tn / (tn + fn)
    lexical_f_measure: float   # harmonic mean of lexical recall/precision
    error_f_measure: float     # harmonic mean of error recall/precision
    predictive_accuracy: float  # (tp + tn) / total


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    detection: DetectionMetrics
    suggestion_adequacy: float
    mean_reciprocal_rank: float
    histogram_all: dict[int, int]
    histogram_wrong: dict[int, int]


def _ratio(num: int | float, den: int | float) -> float:
    return num / den if den else 0.0


def _harmonic(a: float, b: float) -> float:
    return _ratio(2 * a * b, a + b)


def compute_metrics(counts: ConfusionCounts) -> DetectionMetrics:
    """The seven detection ratios from raw confusion counts."""
    r_c = _ratio(counts.tp, counts.tp + counts.fn)
    r_i = _ratio(counts.tn, counts.tn + counts.fp)
    p_c = _ratio(counts.tp, counts.tp + counts.fp)
    p_i = _ratio(counts.tn, counts.tn + counts.fn)
    return DetectionMetrics(
        lexical_recall=r_c,
        error_recall=r_i,
        lexical_precision=p_c,
        error_precision=p_i,
        lexical_f_measure=_harmonic(r_c, p_c),
        error_f_measure=_harmonic(r_i, p_i),
        predictive_accuracy=_ratio(counts.tp + counts.tn, counts.total),
    )


def load_corpus(path) -> list[CorpusEntry]:
    """Parse a corpus TSV file into entries."""
    entries = []
    for lineno, line in numbered_lines(path, MalformedCorpusError):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        where = f"{path}:{lineno}"
        if len(parts) > 3:
            raise MalformedCorpusError(f"{where}: extra columns")
        if len(parts) < 2:
            raise MalformedCorpusError(f"{where}: missing label column")
        word = normalize(parts[0].strip())
        if not word:
            raise MalformedCorpusError(f"{where}: empty word")
        label = parts[1].strip().lower()
        if label not in ("valid", "invalid"):
            raise MalformedCorpusError(f"{where}: unknown label {label!r}")
        if label == "valid":
            if len(parts) == 3 and parts[2].strip():
                raise MalformedCorpusError(f"{where}: gold on a valid row")
            entries.append(CorpusEntry(word, valid=True))
        else:
            if len(parts) < 3 or not parts[2].strip():
                raise MalformedCorpusError(f"{where}: invalid row missing gold")
            gold = normalize(parts[2].strip())
            if gold == word:
                raise MalformedCorpusError(f"{where}: gold equals the word")
            entries.append(CorpusEntry(word, valid=False, gold=gold))
    return entries


def _buckets(distances: Iterable[int]) -> dict[int, int]:
    """Count each distance: distance -> occurrences, ascending."""
    return dict(sorted(Counter(distances).items()))


def histogram(entries: Iterable[CorpusEntry],
              predicate=None) -> dict[int, tuple[int, float]]:
    """Bucket invalid entries by edit distance to gold: distance -> (count, %).

    Valid entries are skipped; ``predicate`` narrows the selection further.
    """
    counts = _buckets(plain_edit_distance(entry.word, entry.gold)
                      for entry in entries
                      if not entry.valid
                      and (predicate is None or predicate(entry)))
    total = sum(counts.values())
    return {d: (n, 100.0 * n / total) for d, n in counts.items()}


def evaluate(entries: Sequence[CorpusEntry],
             checker: SpellChecker) -> EvalReport:
    """Run every entry through the checker and score the results.

    Dropped entries (digit-bearing or excluded words) do not count toward
    any metric.  Suggestion lists are the checker's own depth ``k``.
    """
    if not entries:
        raise EmptyCorpusError("corpus has no entries")

    tp = fp = fn = tn = 0
    n_invalid = 0
    top1_hits = 0
    reciprocal_sum = 0.0
    distances_all: list[int] = []
    distances_wrong: list[int] = []

    for entry in entries:
        result = checker.check_word(entry.word)
        if result.status is WordStatus.DROPPED:
            continue
        recognized_correct = result.status is WordStatus.CORRECT
        if entry.valid:
            if recognized_correct:
                tp += 1
            else:
                fn += 1
            continue

        # invalid entry
        n_invalid += 1
        if recognized_correct:
            fp += 1
        else:
            tn += 1
        d = plain_edit_distance(entry.word, entry.gold)
        distances_all.append(d)
        top1 = result.corrected if result.status is WordStatus.CORRECTED else None
        if top1 == entry.gold:
            top1_hits += 1
        else:
            distances_wrong.append(d)
        if result.suggestions is not None:
            rank = result.suggestions.rank_of(entry.gold)
            if rank is not None:
                reciprocal_sum += 1.0 / rank

    counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    return EvalReport(
        counts=counts,
        detection=compute_metrics(counts),
        suggestion_adequacy=_ratio(top1_hits, n_invalid),
        mean_reciprocal_rank=_ratio(reciprocal_sum, n_invalid),
        histogram_all=_buckets(distances_all),
        histogram_wrong=_buckets(distances_wrong),
    )


_METRIC_ROWS = (
    ("lexical_recall", "Lexical recall"),
    ("error_recall", "Error recall"),
    ("lexical_precision", "Lexical precision"),
    ("error_precision", "Error precision"),
    ("lexical_f_measure", "Lexical F-measure"),
    ("error_f_measure", "Error F-measure"),
    ("predictive_accuracy", "Predictive accuracy"),
)


def format_report(report: EvalReport) -> str:
    """Human-readable metric table plus the two histograms."""
    c = report.counts
    lines = [
        f"Words scored: {c.total} "
        f"(TP={c.tp} FP={c.fp} FN={c.fn} TN={c.tn})",
        "",
        f"{'Metric':<22}{'Percentage':>10}",
    ]
    for attr, label in _METRIC_ROWS:
        value = getattr(report.detection, attr)
        lines.append(f"{label:<22}{100 * value:>9.2f}%")
    lines.append(f"{'Suggestion adequacy':<22}{100 * report.suggestion_adequacy:>9.2f}%")
    lines.append(f"{'Mean reciprocal rank':<22}{100 * report.mean_reciprocal_rank:>9.2f}%")
    for name, hist in (("all misspellings", report.histogram_all),
                       ("wrong corrections", report.histogram_wrong)):
        lines.append("")
        lines.append(f"Edit distance histogram ({name}):")
        total = sum(hist.values())
        for d, n in hist.items():
            lines.append(f"  {d:>3} {n:>6} {100 * n / total:>7.2f}%")
        lines.append(f"  all {total:>6}")
    return "\n".join(lines)


def format_report_structured(report: EvalReport) -> str:
    """Machine-readable key<TAB>value lines; round-trips via parse_report."""
    c = report.counts
    lines = [f"tp\t{c.tp}", f"fp\t{c.fp}", f"fn\t{c.fn}", f"tn\t{c.tn}"]
    for attr, _ in _METRIC_ROWS:
        lines.append(f"{attr}\t{getattr(report.detection, attr)!r}")
    lines.append(f"suggestion_adequacy\t{report.suggestion_adequacy!r}")
    lines.append(f"mean_reciprocal_rank\t{report.mean_reciprocal_rank!r}")
    for prefix, hist in (("histogram_all", report.histogram_all),
                         ("histogram_wrong", report.histogram_wrong)):
        for d, n in hist.items():
            lines.append(f"{prefix}.{d}\t{n}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvalReport:
    """Rebuild an EvalReport from its structured rendering."""
    counts: dict[str, int] = {}
    ratios: dict[str, float] = {}
    hists: dict[str, dict[int, int]] = {"histogram_all": {}, "histogram_wrong": {}}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, value = line.split("\t")
        if key in ("tp", "fp", "fn", "tn"):
            counts[key] = int(value)
        elif key.startswith("histogram_"):
            prefix, d = key.rsplit(".", 1)
            hists[prefix][int(d)] = int(value)
        else:
            ratios[key] = float(value)
    detection = DetectionMetrics(**{attr: ratios[attr] for attr, _ in _METRIC_ROWS})
    return EvalReport(
        counts=ConfusionCounts(**counts),
        detection=detection,
        suggestion_adequacy=ratios["suggestion_adequacy"],
        mean_reciprocal_rank=ratios["mean_reciprocal_rank"],
        histogram_all=hists["histogram_all"],
        histogram_wrong=hists["histogram_wrong"],
    )
