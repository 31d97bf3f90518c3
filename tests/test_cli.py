import pytest
from click.testing import CliRunner

from wolofspell import SpellChecker, WordStatus, load_sample_lexicon
from wolofspell.cli import EXIT_ERROR, EXIT_MALFORMED, main, run
from wolofspell.evaluation import parse_report


def invoke(args, input=None, env=None):
    return CliRunner().invoke(main, args, input=input, env=env,
                              catch_exceptions=False)


class TestCheck:
    def test_corrects_stdin(self):
        result = invoke(["check"], input="deuk bi\n")
        assert result.exit_code == 0
        assert result.stdout == "dëkk bi\n"

    def test_empty_stdin(self):
        result = invoke(["check"], input="")
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_reads_input_file(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("Deuk, bi!\n", encoding="utf-8")
        result = invoke(["check", str(path)])
        assert result.stdout == "dëkk bi\n"

    def test_diagnostics_on_stderr(self):
        result = invoke(["check"], input="deuk bi\n")
        assert "deuk" in result.stderr
        assert "dëkk" in result.stderr

    def test_structured_diagnostics(self):
        result = invoke(["check", "--format", "structured"], input="deuk\n")
        line = result.stderr.strip().split("\t")
        assert line[0] == "0"
        assert line[1] == "deuk"
        assert line[2] == "corrected"
        assert line[3] == "dëkk"
        assert line[4].startswith("dëkk:1")

    def test_line_structure_preserved(self):
        result = invoke(["check"], input="deuk\nbi xar\n")
        assert result.stdout == "dëkk\nbi xar\n"

    def test_5000_character_token(self):
        token = "ba" * 2500
        expected = SpellChecker(load_sample_lexicon()).check_word(token)
        assert expected.status is WordStatus.CORRECTED
        result = invoke(["check"], input=token + "\n")
        assert result.exit_code == 0
        assert result.stdout == expected.corrected + "\n"

    def test_missing_lexicon_exits_1(self, capsys):
        assert run(["check", "--lexicon", "/no/such/file", "-"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_lexicon_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("dëkk bi\n", encoding="utf-8")
        path = tmp_path / "in.txt"
        path.write_text("dëkk\n", encoding="utf-8")
        assert run(["check", "--lexicon", str(bad), str(path)]) == EXIT_MALFORMED


class TestSuggest:
    def test_known_misspelling(self):
        result = invoke(["suggest", "tank"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "tànk\t1"

    def test_lexicon_member_costs_zero(self):
        result = invoke(["suggest", "dëkk"])
        assert result.stdout.splitlines()[0] == "dëkk\t0"

    def test_k_limits_output(self):
        result = invoke(["suggest", "-k", "1", "tank"])
        assert result.stdout.splitlines() == ["tànk\t1"]

    @pytest.mark.parametrize("word", [" ", ""])
    def test_empty_word_is_a_usage_error(self, capsys, word):
        assert run(["suggest", word]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "Usage:" in err
        assert f"WORD {word!r} is empty" in err

    def test_costs_ascending(self):
        result = invoke(["suggest", "deuk"])
        costs = [int(line.split("\t")[1]) for line in result.stdout.splitlines()]
        assert costs == sorted(costs)
        assert len(costs) == 10


class TestEval:
    CORPUS = ["dëkk\tvalid", "deuk\tinvalid\tdëkk", "mousiba\tinvalid\tmusiba"]

    def test_text_report(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(self.CORPUS) + "\n", encoding="utf-8")
        result = invoke(["eval", str(path)])
        assert result.exit_code == 0
        assert "Predictive accuracy" in result.stdout
        assert "100.00%" in result.stdout

    def test_structured_report_parses_back(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(self.CORPUS) + "\n", encoding="utf-8")
        result = invoke(["eval", "--format", "structured", str(path)])
        report = parse_report(result.stdout)
        assert report.counts.tp == 1
        assert report.counts.tn == 2
        assert report.suggestion_adequacy == 1.0

    def test_missing_gold_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("deuk\tinvalid\n", encoding="utf-8")
        assert run(["eval", str(path)]) == EXIT_MALFORMED

    @pytest.mark.parametrize("row", ["\tvalid", "\tinvalid\tdëkk"])
    def test_empty_word_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "corpus.tsv"
        path.write_text(row + "\n", encoding="utf-8")
        assert run(["eval", str(path)]) == EXIT_MALFORMED
        assert f"{path}:1" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert run(["eval", "/no/such/corpus.tsv"]) == EXIT_ERROR


class TestLexiconStats:
    def test_reports_word_count(self, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("dëkk\nbi\nñaar\n", encoding="utf-8")
        result = invoke(["lexicon-stats", "--lexicon", str(lex)])
        lines = dict(line.split("\t") for line in result.stdout.splitlines())
        assert lines["words"] == "3"
        assert int(lines["trie_nodes"]) > 3

    def test_grapheme_class_frequencies(self, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("dëkk\n", encoding="utf-8")
        result = invoke(["lexicon-stats", "--lexicon", str(lex)])
        lines = dict(line.split("\t") for line in result.stdout.splitlines())
        assert lines["graphemes.weak_consonant"] == "1"
        assert lines["graphemes.short_vowel"] == "1"
        assert lines["graphemes.geminate_consonant"] == "1"

    def test_empty_lexicon(self, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("", encoding="utf-8")
        result = invoke(["lexicon-stats", "--lexicon", str(lex)])
        assert "words\t0" in result.stdout

    def test_malformed_exits_2(self, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("a b\n", encoding="utf-8")
        assert run(["lexicon-stats", "--lexicon", str(lex)]) == EXIT_MALFORMED


class TestConfigResolution:
    def test_env_var_sets_k(self):
        result = invoke(["suggest", "deuk"], env={"WOLOFSPELL_K": "2"})
        assert len(result.stdout.splitlines()) == 2

    def test_config_file_sets_k(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n", encoding="utf-8")
        result = invoke(["suggest", "--config", str(cfg), "deuk"])
        assert len(result.stdout.splitlines()) == 3

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n", encoding="utf-8")
        result = invoke(["suggest", "--config", str(cfg), "-k", "1", "deuk"])
        assert len(result.stdout.splitlines()) == 1

    def test_env_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n", encoding="utf-8")
        result = invoke(["suggest", "--config", str(cfg), "deuk"],
                        env={"WOLOFSPELL_K": "2"})
        assert len(result.stdout.splitlines()) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert run(["suggest", "--config", str(cfg), "deuk"]) == EXIT_ERROR

    def test_determinism(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("Deuk bi sakhar\n", encoding="utf-8")
        first = invoke(["check", str(path)])
        second = invoke(["check", str(path)])
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
