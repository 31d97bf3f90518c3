import random

import pytest

from wolofspell.evaluation import (
    ConfusionCounts,
    CorpusEntry,
    EmptyCorpusError,
    MalformedCorpusError,
    compute_metrics,
    evaluate,
    format_report,
    format_report_structured,
    histogram,
    load_corpus,
    parse_report,
)
from wolofspell.lexicon import TrieDict
from wolofspell.pipeline import SpellChecker


def write_corpus(tmp_path, lines, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_invalid_row(self, tmp_path):
        path = write_corpus(tmp_path, ["deuk\tinvalid\tdëkk"])
        assert load_corpus(path) == [CorpusEntry("deuk", valid=False, gold="dëkk")]

    def test_valid_row(self, tmp_path):
        path = write_corpus(tmp_path, ["dëkk\tvalid"])
        assert load_corpus(path) == [CorpusEntry("dëkk", valid=True)]

    def test_comments_blanks_and_case(self, tmp_path):
        path = write_corpus(tmp_path, ["# header", "", "Dëkk\tVALID",
                                       "Deuk\tInvalid\tDËKK"])
        entries = load_corpus(path)
        assert entries == [CorpusEntry("dëkk", valid=True),
                           CorpusEntry("deuk", valid=False, gold="dëkk")]

    def test_missing_gold_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["deuk\tinvalid"])
        with pytest.raises(MalformedCorpusError):
            load_corpus(path)

    def test_empty_word_rejected(self, tmp_path):
        for row in ("\tvalid", " \tinvalid\tdëkk"):
            path = write_corpus(tmp_path, ["dëkk\tvalid", row])
            with pytest.raises(MalformedCorpusError, match=f"{path}:2"):
                load_corpus(path)

    def test_extra_columns_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["deuk\tinvalid\tdëkk\textra"])
        with pytest.raises(MalformedCorpusError):
            load_corpus(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["deuk\tbogus\tdëkk"])
        with pytest.raises(MalformedCorpusError):
            load_corpus(path)

    def test_gold_equal_to_word_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["deuk\tinvalid\tdeuk"])
        with pytest.raises(MalformedCorpusError):
            load_corpus(path)


class TestComputeMetrics:
    def test_reference_counts(self):
        m = compute_metrics(ConfusionCounts(tp=1023, fp=0, fn=52, tn=1995))
        assert m.lexical_recall == pytest.approx(1023 / 1075)
        assert m.lexical_precision == 1.0
        assert m.error_recall == 1.0
        assert m.error_precision == pytest.approx(1995 / 2047)
        assert m.predictive_accuracy == pytest.approx(3018 / 3070)
        assert m.lexical_f_measure == pytest.approx(0.9752, abs=5e-5)
        assert m.error_f_measure == pytest.approx(0.9871, abs=5e-5)

    def test_accuracy_consistency_identity(self):
        rng = random.Random(113)
        for _ in range(300):
            counts = ConfusionCounts(*(rng.randint(1, 500) for _ in range(4)))
            m = compute_metrics(counts)
            recomposed = (m.lexical_recall * (counts.tp + counts.fn)
                          + m.error_recall * (counts.tn + counts.fp)) / counts.total
            assert m.predictive_accuracy == pytest.approx(recomposed)

    def test_harmonic_means(self):
        rng = random.Random(127)
        for _ in range(300):
            counts = ConfusionCounts(*(rng.randint(1, 500) for _ in range(4)))
            m = compute_metrics(counts)
            for r, p, fm in ((m.lexical_recall, m.lexical_precision,
                              m.lexical_f_measure),
                             (m.error_recall, m.error_precision,
                              m.error_f_measure)):
                assert fm == pytest.approx(2 * r * p / (r + p))

    def test_all_ratios_within_unit_interval(self):
        rng = random.Random(131)
        for _ in range(200):
            counts = ConfusionCounts(*(rng.randint(0, 50) for _ in range(4)))
            m = compute_metrics(counts)
            for value in vars(m).values():
                assert 0.0 <= value <= 1.0

    def test_zero_denominators_give_zero(self):
        m = compute_metrics(ConfusionCounts(0, 0, 0, 0))
        assert m.predictive_accuracy == 0.0
        assert m.lexical_f_measure == 0.0


TOY_LEXICON = ("dëkk", "bi")
TOY_ENTRIES = (
    CorpusEntry("dëkk", valid=True),
    CorpusEntry("deuk", valid=False, gold="dëkk"),
    CorpusEntry("ppa", valid=False, gold="dëkk"),
)


@pytest.fixture()
def toy_checker():
    return SpellChecker(TrieDict(TOY_LEXICON))


class TestEvaluate:
    def test_hand_traced_toy_corpus(self, toy_checker):
        # dëkk: member -> TP.  deuk: flagged, suggestions (dëkk,1),(bi,5)
        # -> TN, top-1 hit, rank 1.  ppa: rules-invalid, transform keeps it,
        # suggestions (bi,5),(dëkk,7) -> TN, top-1 miss, gold at rank 2.
        report = evaluate(list(TOY_ENTRIES), toy_checker)
        assert report.counts == ConfusionCounts(tp=1, fp=0, fn=0, tn=2)
        assert report.detection.predictive_accuracy == 1.0
        assert report.suggestion_adequacy == pytest.approx(0.5)
        assert report.mean_reciprocal_rank == pytest.approx(0.75)
        assert report.histogram_all == {2: 1, 4: 1}
        assert report.histogram_wrong == {4: 1}

    def test_every_gold_at_rank_one(self):
        checker = SpellChecker(TrieDict(["dëkk", "musiba"]))
        entries = [CorpusEntry("deuk", valid=False, gold="dëkk"),
                   CorpusEntry("mousiba", valid=False, gold="musiba")]
        report = evaluate(entries, checker)
        assert report.suggestion_adequacy == 1.0
        assert report.mean_reciprocal_rank == 1.0

    def test_adequacy_bounded_by_mrr(self, sample_lexicon):
        checker = SpellChecker(sample_lexicon)
        entries = [CorpusEntry("deuk", valid=False, gold="dëkk"),
                   CorpusEntry("sakhar", valid=False, gold="saxaar"),
                   CorpusEntry("tiiq", valid=False, gold="xale"),
                   CorpusEntry("bëw", valid=False, gold="garab")]
        report = evaluate(entries, checker)
        assert report.suggestion_adequacy <= report.mean_reciprocal_rank <= 1.0

    def test_dropped_entries_excluded(self, toy_checker):
        entries = list(TOY_ENTRIES) + [CorpusEntry("a1b", valid=False, gold="bi")]
        report = evaluate(entries, toy_checker)
        assert report.counts.total == 3

    def test_empty_corpus_rejected(self, toy_checker):
        with pytest.raises(EmptyCorpusError):
            evaluate([], toy_checker)


class TestHistogram:
    def test_two_entry_toy(self):
        entries = [CorpusEntry("dëk", valid=False, gold="dëkk"),
                   CorpusEntry("dëkkabc", valid=False, gold="dëkk")]
        assert histogram(entries) == {1: (1, 50.0), 3: (1, 50.0)}

    def test_valid_entries_skipped(self):
        entries = [CorpusEntry("dëkk", valid=True),
                   CorpusEntry("dëk", valid=False, gold="dëkk")]
        assert histogram(entries) == {1: (1, 100.0)}

    def test_empty_selection(self):
        assert histogram([]) == {}

    def test_predicate_narrows(self):
        entries = [CorpusEntry("dëk", valid=False, gold="dëkk"),
                   CorpusEntry("dëkkabc", valid=False, gold="dëkk")]
        got = histogram(entries, predicate=lambda e: e.word == "dëk")
        assert got == {1: (1, 100.0)}

    def test_counts_sum_to_selection_size(self):
        entries = [CorpusEntry(w, valid=False, gold="dëkk")
                   for w in ("dëk", "dë", "dëkkk", "bëkk")]
        got = histogram(entries)
        assert sum(n for n, _ in got.values()) == 4
        assert sum(pct for _, pct in got.values()) == pytest.approx(100.0)


class TestReportFormats:
    def test_structured_round_trips(self, toy_checker):
        report = evaluate(list(TOY_ENTRIES), toy_checker)
        parsed = parse_report(format_report_structured(report))
        assert parsed == report

    def test_text_report_mentions_every_metric(self, toy_checker):
        report = evaluate(list(TOY_ENTRIES), toy_checker)
        text = format_report(report)
        for label in ("Lexical recall", "Error recall", "Lexical precision",
                      "Error precision", "Lexical F-measure", "Error F-measure",
                      "Predictive accuracy", "Suggestion adequacy",
                      "Mean reciprocal rank", "Edit distance histogram"):
            assert label in text
