"""Evaluation harness: corpus loading, confusion counts, the metric suite.

The labeled corpus is a TSV file of ``word<TAB>label[<TAB>gold]`` rows,
read through ``preprocess.content_lines``: label ``valid`` or ``invalid``,
case-insensitive; gold required exactly when invalid; word and gold each
read as one token under ``preprocess.word`` and stand for that token.
Each entry runs through a ``SpellChecker``, whose own depth ``k`` sets the
suggestion lists scored; a word the checker leaves untouched counts as
recognized-correct, anything flagged counts as recognized-incorrect.  From
the four confusion counts come lexical and error recall/precision/F-measure
and predictive accuracy; suggestion adequacy is top-1 accuracy of the
correction over the invalid entries and mean reciprocal rank scores the
whole ranked list (a gold missing from the list contributes rank infinity,
i.e. zero).

Edit-distance histograms bucket the invalid entries by the plain unit-cost
distance between misspelling and gold: one over all of them, one over those
whose top-1 is not the gold, also when never flagged or without suggestion.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .distance import plain_edit_distance
from .pipeline import SpellChecker, WordStatus
from .preprocess import MalformedInputError, content_lines, word


class MalformedCorpusError(MalformedInputError):
    """A corpus row breaks the format contract."""


class EmptyCorpusError(ValueError):
    """Evaluation needs at least one entry."""


class CorpusEntry(NamedTuple):
    word: str
    valid: bool
    gold: str | None = None


class ConfusionCounts(NamedTuple):
    tp: int  # valid word recognized as correct
    fp: int  # invalid word recognized as correct
    fn: int  # valid word flagged
    tn: int  # invalid word flagged

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class DetectionMetrics(NamedTuple):
    lexical_recall: float      # tp / (tp + fn)
    error_recall: float        # tn / (tn + fp)
    lexical_precision: float   # tp / (tp + fp)
    error_precision: float     # tn / (tn + fn)
    lexical_f_measure: float   # harmonic mean of lexical recall/precision
    error_f_measure: float     # harmonic mean of error recall/precision
    predictive_accuracy: float  # (tp + tn) / total


class EvalReport(NamedTuple):
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


def _entry(text: str) -> CorpusEntry:
    """A corpus row; a bad row raises the reason alone."""
    parts = text.split("\t")
    if len(parts) > 3:
        raise MalformedCorpusError("extra columns")
    if len(parts) < 2:
        raise MalformedCorpusError("missing label column")
    entry = word(parts[0], MalformedCorpusError)
    label = parts[1].strip().lower()
    if label not in ("valid", "invalid"):
        raise MalformedCorpusError(f"unknown label {label!r}")
    gold = parts[2].strip() if len(parts) == 3 else ""
    if label == "valid" and gold:
        raise MalformedCorpusError("gold on a valid row")
    if label == "invalid" and not gold:
        raise MalformedCorpusError("invalid row missing gold")
    gold = gold and word(gold, MalformedCorpusError, "gold")
    if gold == entry:
        raise MalformedCorpusError("gold equals the word")
    return CorpusEntry(entry, label == "valid", gold or None)


def load_corpus(path) -> list[CorpusEntry]:
    """Parse a corpus TSV file into entries; a file without any is malformed."""
    entries = [entry for _, entry
               in content_lines(path, _entry, MalformedCorpusError)]
    if not entries:
        raise MalformedCorpusError(f"{path}: corpus has no entries")
    return entries


def _buckets(distances: Iterable[int]) -> dict[int, int]:
    """Count each distance: distance -> occurrences, ascending."""
    return dict(sorted(Counter(distances).items()))


def histogram(entries: Iterable[CorpusEntry]) -> dict[int, tuple[int, float]]:
    """Bucket invalid entries by edit distance to gold: distance -> (count, %).

    Valid entries are skipped.
    """
    return _with_shares(_buckets(plain_edit_distance(entry.word, entry.gold)
                                 for entry in entries if not entry.valid))


def _with_shares(counts: dict[int, int]) -> dict[int, tuple[int, float]]:
    """Each bucket's count and its percentage of all the buckets' counts."""
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
        suggestion_adequacy=_ratio(top1_hits, fp + tn),
        mean_reciprocal_rank=_ratio(reciprocal_sum, fp + tn),
        histogram_all=_buckets(distances_all),
        histogram_wrong=_buckets(distances_wrong),
    )


# The percentage rows: DetectionMetrics' fields in order, then the two
# suggestion scores.
_PERCENT_LABELS = ("Lexical recall", "Error recall", "Lexical precision",
                   "Error precision", "Lexical F-measure", "Error F-measure",
                   "Predictive accuracy", "Suggestion adequacy",
                   "Mean reciprocal rank")


def format_report(report: EvalReport) -> str:
    """Human-readable metric table plus the two histograms."""
    c = report.counts
    lines = [
        f"Words scored: {c.total} "
        f"(TP={c.tp} FP={c.fp} FN={c.fn} TN={c.tn})",
        "",
        f"{'Metric':<22}{'Percentage':>10}",
    ]
    ratios = (*report.detection, report.suggestion_adequacy,
              report.mean_reciprocal_rank)
    for label, value in zip(_PERCENT_LABELS, ratios):
        lines.append(f"{label:<22}{100 * value:>9.2f}%")
    for name, hist in (("all misspellings", report.histogram_all),
                       ("wrong corrections", report.histogram_wrong)):
        lines.append("")
        lines.append(f"Edit distance histogram ({name}):")
        for d, (n, share) in _with_shares(hist).items():
            lines.append(f"  {d:>3} {n:>6} {share:>7.2f}%")
        lines.append(f"  all {sum(hist.values()):>6}")
    return "\n".join(lines)


def format_report_structured(report: EvalReport) -> str:
    """Machine-readable key<TAB>value lines; round-trips via parse_report.

    One line per field in field order: a nested record's fields by their
    own names, a histogram's buckets as ``name.distance``.
    """
    pairs = []
    for name, value in zip(report._fields, report):
        if isinstance(value, tuple):  # ConfusionCounts, DetectionMetrics
            pairs += zip(value._fields, value)
        elif isinstance(value, dict):  # a histogram
            pairs += ((f"{name}.{d}", n) for d, n in value.items())
        else:
            pairs.append((name, value))
    return "".join(f"{key}\t{value!r}\n" for key, value in pairs)


def parse_report(text: str) -> EvalReport:
    """Rebuild an EvalReport from its structured rendering."""
    values: dict[str, str] = {}
    hists: dict[str, dict[int, int]] = {"histogram_all": {}, "histogram_wrong": {}}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, value = line.split("\t")
        name, _, d = key.partition(".")
        if d:
            hists[name][int(d)] = int(value)
        else:
            values[key] = value
    return EvalReport(
        counts=ConfusionCounts(*(int(values[f]) for f in ConfusionCounts._fields)),
        detection=DetectionMetrics(*(float(values[f])
                                     for f in DetectionMetrics._fields)),
        suggestion_adequacy=float(values["suggestion_adequacy"]),
        mean_reciprocal_rank=float(values["mean_reciprocal_rank"]),
        **hists,
    )
