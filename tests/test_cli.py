import io
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import wolofspell
from wolofspell import SpellChecker, WordStatus, load_sample_lexicon
from wolofspell.cli import EXIT_ERROR, EXIT_MALFORMED, EXIT_OK, run
from wolofspell.evaluation import parse_report


def set_stdin(monkeypatch, data: bytes) -> None:
    """Replace stdin with a byte-backed text stream, as a pipe would be."""
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@pytest.fixture
def invoke(capsys, monkeypatch):
    """Run ``cli.run(args)`` in process with ``input`` on stdin and ``env``
    as the only WOLOFSPELL_* variables; returns the code and both streams."""
    def invoke(args, input="", env=None):
        for name in list(os.environ):
            if name.startswith("WOLOFSPELL_"):
                monkeypatch.delenv(name)
        for name, value in (env or {}).items():
            monkeypatch.setenv(name, value)
        set_stdin(monkeypatch, input.encode("utf-8"))
        capsys.readouterr()
        code = run(args)
        out, err = capsys.readouterr()
        return SimpleNamespace(exit_code=code, stdout=out, stderr=err)
    return invoke


def fresh_python(*args, input=None):
    """Run ``python *args`` in a new interpreter that imports this package."""
    src = str(pathlib.Path(wolofspell.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], input=input, env=env,
                          capture_output=True, encoding="utf-8", timeout=60)


class TestCheck:
    def test_corrects_stdin(self, invoke):
        result = invoke(["check"], input="deuk bi\n")
        assert result.exit_code == 0
        assert result.stdout == "dëkk bi\n"

    def test_empty_stdin(self, invoke):
        result = invoke(["check"], input="")
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_reads_input_file(self, invoke, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("Deuk, bi!\n", encoding="utf-8")
        result = invoke(["check", str(path)])
        assert result.stdout == "dëkk bi\n"

    def test_diagnostics_on_stderr(self, invoke):
        result = invoke(["check"], input="deuk bi\n")
        assert "deuk" in result.stderr
        assert "dëkk" in result.stderr

    def test_structured_diagnostics(self, invoke):
        result = invoke(["check", "--format", "structured"], input="deuk\n")
        line = result.stderr.strip().split("\t")
        assert line[0] == "0"
        assert line[1] == "deuk"
        assert line[2] == "corrected"
        assert line[3] == "dëkk"
        assert line[4].startswith("dëkk:1")

    def test_line_structure_preserved(self, invoke):
        result = invoke(["check"], input="deuk\nbi xar\n")
        assert result.stdout == "dëkk\nbi xar\n"

    def test_5000_character_token(self, invoke):
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

    def test_non_utf8_lexicon_exits_2_naming_it(self, tmp_path, capsys):
        lex = tmp_path / "latin1.txt"
        lex.write_bytes("dëkk\n".encode("latin-1"))
        assert run(["check", "--lexicon", str(lex), "-"]) == EXIT_MALFORMED
        assert capsys.readouterr().err.startswith(f"error: {lex}: not UTF-8")

    def test_stdin_has_universal_newlines(self, invoke):
        result = invoke(["check"], input="deuk bi\r\nxar\rbi\r\n")
        assert result.stdout == "dëkk bi\nxar\nbi\n"

    def test_non_utf8_stdin_exits_1(self, monkeypatch, capsys):
        set_stdin(monkeypatch, "dëkk\n".encode("latin-1"))
        assert run(["check"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: <stdin>: not UTF-8")

    def test_stdin_stays_open_for_a_second_run(self, monkeypatch, capsys):
        # the reader leaves stdin to its opener, so a second in-process run
        # reads it at its end, as an empty input
        set_stdin(monkeypatch, b"deuk\n")
        assert run(["check"]) == EXIT_OK
        assert run(["check"]) == EXIT_OK
        assert not sys.stdin.buffer.closed
        out, err = capsys.readouterr()
        assert out == "dëkk\n"
        assert err == "word 0 'deuk': corrected to 'dëkk'\n"

    def test_input_file_closed_after_the_run(self, tmp_path, monkeypatch):
        opened = []
        real_open = open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        path = tmp_path / "in.txt"
        path.write_bytes(b"deuk\n")
        monkeypatch.setattr("builtins.open", recording_open)
        assert run(["check", str(path)]) == EXIT_OK
        assert opened and all(f.closed for f in opened)

    def test_non_utf8_input_file_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("dëkk\n".encode("latin-1"))
        assert run(["check", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")

    def test_positions_count_across_lines(self, invoke):
        result = invoke(["check"], input="bi deuk\nxar\n\ndeuk")
        assert result.stdout == "bi dëkk\nxar\n\ndëkk"
        assert result.stderr == ("word 1 'deuk': corrected to 'dëkk'\n"
                                 "word 3 'deuk': corrected to 'dëkk'\n")

    def test_lines_before_a_late_non_utf8_byte_are_written(self, monkeypatch,
                                                            capsys):
        # past the first chunk the reader decodes, so the lines before the
        # bad byte are checked and written before the error is
        set_stdin(monkeypatch, b"bi xar\n" * 2000 + b"\xff\n")
        assert run(["check"]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out and ("bi xar\n" * 2000).startswith(out)
        assert err == "error: <stdin>: not UTF-8 text (invalid start byte)\n"

    def test_memory_flat_in_input_size(self, tmp_path):
        # INPUT is read, checked and written one line at a time, so four
        # times the lines must not need more memory than once the lines
        lexicon = load_sample_lexicon()
        checker = SpellChecker(lexicon)
        words = [w for w in lexicon.iterate()
                 if checker.check_word(w).status is WordStatus.CORRECT]
        rng = random.Random(1)

        def peak(lines):
            path = tmp_path / f"{lines}.txt"
            path.write_text("".join(" ".join(rng.choices(words, k=12)) + "\n"
                                    for _ in range(lines)), encoding="utf-8")
            with open(os.devnull, "w") as sink, redirect_stdout(sink), \
                    redirect_stderr(sink):
                tracemalloc.start()
                try:
                    assert run(["check", str(path)]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(10)  # imports and first-call caches
        assert peak(2000) <= 1.25 * peak(500)

    @settings(max_examples=60, deadline=None)
    @given(bom=st.booleans(),
           text=st.lists(st.sampled_from(["deuk", "bi", "Xar", "dëkk", "a1",
                                          ",", " ", "\ufeff", "\n", "\r\n",
                                          "\r"]), max_size=10).map("".join))
    def test_output_matches_checking_the_whole_text(self, bom, text):
        # the library checks the whole text at once; check must print the
        # same corrected text and flag the same tokens at the same positions
        data = ("\ufeff" if bom else "") + text
        whole = data.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
        report = SpellChecker(load_sample_lexicon(), k=3).check_text(whole)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(data.encode("utf-8")), encoding="utf-8")), \
                redirect_stdout(out), redirect_stderr(err):
            assert run(["check", "--format", "structured", "-k", "3"]) == 0
        assert out.getvalue() == report.corrected_text
        flagged = [line.split("\t") for line in err.getvalue().splitlines()]
        assert flagged == [[str(r.original.position), r.original.surface,
                            r.status.value, r.corrected or "",
                            *([",".join(f"{s.word}:{s.cost}" for s in r.suggestions)]
                              if r.suggestions is not None else [])]
                           for r in report.results
                           if r.status is not WordStatus.CORRECT]

    def test_translit_file_replaces_bundled_rules(self, invoke, tmp_path):
        rules = tmp_path / "one.tsv"
        rules.write_text("gn\tñ\n", encoding="utf-8")
        result = invoke(["check", "--translit", str(rules)],
                        input="deuk gnopati\n")
        assert result.exit_code == 0
        # Without the bundled "eu" -> "ë" rule, "deuk" no longer becomes "dëkk".
        assert result.stdout == "dee ñoppati\n"
        assert invoke(["check"], input="deuk gnopati\n").stdout == "dëkk ñoppati\n"

    def test_translit_row_with_three_columns_names_line(self, tmp_path, capsys):
        rules = tmp_path / "three.tsv"
        rules.write_text("gn\tñ\t1\n", encoding="utf-8")
        assert run(["check", "--translit", str(rules), "-"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {rules}:1: expected pattern<TAB>replacement\n")


class TestInputWordsReadLikeText:
    """Lexicon and exclusion-list words are read the way ``check`` reads
    text, and a leading byte-order mark changes no output."""

    def test_lexicon_word_split_by_punctuation_exits_2_naming_line(
            self, invoke, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("dëkk\nsu-nu\n", encoding="utf-8")
        result = invoke(["check", "--lexicon", str(lex)], input="su-nu\n")
        assert result.exit_code == EXIT_MALFORMED
        assert result.stderr == f"error: {lex}:2: punctuation inside word 'su-nu'\n"

    def test_lexicon_word_with_colon_exits_2(self, invoke, tmp_path):
        # it would read as "ta:nk:1" in a structured suggestion field
        lex = tmp_path / "lex.txt"
        lex.write_text("dëkk\nta:nk\n", encoding="utf-8")
        result = invoke(["check", "--format", "structured", "--lexicon", str(lex)],
                        input="tank\n")
        assert result.exit_code == EXIT_MALFORMED
        assert result.stderr.startswith(f"error: {lex}:2: ")

    def test_exclusion_line_with_whitespace_exits_1_naming_line(
            self, invoke, tmp_path):
        excl = tmp_path / "exclude.txt"
        excl.write_text("dëkk bi\n", encoding="utf-8")
        result = invoke(["check", "--exclude", str(excl)], input="dëkk bi\n")
        assert result.exit_code == EXIT_ERROR
        assert result.stderr == (
            f"error: {excl}:1: whitespace inside word 'dëkk bi'\n")

    @pytest.mark.parametrize("where", ["lexicon", "config", "stdin"])
    def test_leading_bom_gives_the_same_output(self, invoke, tmp_path, where):
        def outputs(bom):
            texts = {"lexicon": "dëkk\nbi\n", "config": "format = structured\n",
                     "stdin": "dëkk bi deuk\n"}
            texts[where] = bom + texts[where]
            lex, cfg = tmp_path / "lex.txt", tmp_path / "cfg.txt"
            lex.write_text(texts["lexicon"], encoding="utf-8")
            cfg.write_text(texts["config"], encoding="utf-8")
            result = invoke(["check", "--lexicon", str(lex), "--config", str(cfg)],
                            input=texts["stdin"])
            return result.exit_code, result.stdout, result.stderr

        plain = outputs("")
        assert plain[:2] == (0, "dëkk bi dëkk\n")
        assert outputs("\ufeff") == plain


class TestSuggest:
    def test_known_misspelling(self, invoke):
        result = invoke(["suggest", "tank"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "tànk\t1"

    def test_lexicon_member_costs_zero(self, invoke):
        result = invoke(["suggest", "dëkk"])
        assert result.stdout.splitlines()[0] == "dëkk\t0"

    def test_k_limits_output(self, invoke):
        result = invoke(["suggest", "-k", "1", "tank"])
        assert result.stdout.splitlines() == ["tànk\t1"]

    @pytest.mark.parametrize("word", [" ", "", "dëkk bi"])
    def test_empty_word_is_a_usage_error(self, capsys, word):
        assert run(["suggest", word]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "Usage:" in err
        fragment = f"whitespace inside WORD {word!r}" if word.strip() else "empty WORD"
        assert f"error: {fragment}\n" in err

    def test_word_read_like_text(self, invoke):
        assert invoke(["suggest", "-k", "1", "Dëkk,"]).stdout == "dëkk\t0\n"
        result = invoke(["suggest", "su-nu"])
        assert result.exit_code == EXIT_ERROR
        assert result.stderr.startswith("error: punctuation inside WORD 'su-nu'\n")

    def test_costs_file_replaces_the_bundled_couples(self, invoke, tmp_path):
        costs = tmp_path / "costs.tsv"
        costs.write_text("x\tq\t1\n", encoding="utf-8")
        bundled = invoke(["suggest", "-k", "3", "tank"])
        assert bundled.stdout == "tànk\t1\nak\t2\ntakk\t2\n"
        # a\tà is a bundled couple no longer listed, so it costs 2
        result = invoke(["suggest", "-k", "3", "--costs", str(costs), "tank"])
        assert result.stdout == "ak\t2\ntakk\t2\ntànk\t2\n"

    def test_costs_ascending(self, invoke):
        result = invoke(["suggest", "deuk"])
        costs = [int(line.split("\t")[1]) for line in result.stdout.splitlines()]
        assert costs == sorted(costs)
        assert len(costs) == 10


class TestEval:
    CORPUS = ["dëkk\tvalid", "deuk\tinvalid\tdëkk", "mousiba\tinvalid\tmusiba"]

    def test_text_report(self, invoke, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(self.CORPUS) + "\n", encoding="utf-8")
        result = invoke(["eval", str(path)])
        assert result.exit_code == 0
        assert "Predictive accuracy" in result.stdout
        assert "100.00%" in result.stdout

    def test_structured_report_parses_back(self, invoke, tmp_path):
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

    def test_corpus_without_entries_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("# only a comment\n\n", encoding="utf-8")
        assert run(["eval", str(path)]) == EXIT_MALFORMED
        assert capsys.readouterr().err == f"error: {path}: corpus has no entries\n"

    def test_non_utf8_corpus_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_bytes("dëkk\tvalid\n".encode("latin-1"))
        assert run(["eval", str(path)]) == EXIT_MALFORMED
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")

    def test_malformed_corpus_exits_2_in_fresh_process(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("deuk\tinvalid\n", encoding="utf-8")
        proc = fresh_python("-m", "wolofspell.cli", "eval", str(path))
        assert proc.returncode == EXIT_MALFORMED
        assert proc.stderr.startswith(f"error: {path}:1")


class TestCommandLine:
    def test_bare_command_exits_1(self, capsys):
        assert run([]) == EXIT_ERROR
        assert "Usage: wolofspell" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "lexicon-stats" in capsys.readouterr().out

    def test_flag_abbreviation_rejected(self, capsys):
        assert run(["check", "--lex", "lexicon.txt"]) == EXIT_ERROR
        assert "--lex" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert run(["frob"]) == EXIT_ERROR


class TestReadmeExamples:
    README = pathlib.Path(__file__).parents[1] / "README.md"

    @pytest.mark.parametrize("command, args, stdin", [
        ('echo "Deuk bi, sakhar!" | wolofspell check', ["check"], "Deuk bi, sakhar!\n"),
        ("wolofspell suggest -k 3 tank", ["suggest", "-k", "3", "tank"], ""),
    ])
    def test_output_matches_readme(self, invoke, command, args, stdin):
        text = self.README.read_text(encoding="utf-8")
        assert f"$ {command}\n" in text
        # the documented output: the lines after the command, up to a blank line
        documented = text.split(f"$ {command}\n", 1)[1].split("\n\n", 1)[0]
        result = invoke(args, input=stdin)
        assert result.exit_code == 0
        assert (result.stdout + result.stderr).split() == documented.split()

    def test_library_example_prints_what_it_documents(self, capsys):
        text = self.README.read_text(encoding="utf-8")
        block = text.split("## Library\n", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        # each print's output is the comment on its line; the last comment
        # describes the candidate list rather than spelling it out
        documented = [line.split("# ", 1)[1].strip('"')
                      for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(documented) == 3
        assert printed[:2] == documented[:2] == ["dëkk bi", "WordStatus.CORRECTED musiba"]
        assert printed[2].startswith("[('musiba', 0), ")


class TestColdStart:
    def test_import_and_check_skip_evaluation(self):
        proc = fresh_python(
            "-c", "import sys, wolofspell.cli; "
            "loaded = lambda: 'wolofspell.evaluation' in sys.modules; "
            "print(loaded()); code = wolofspell.cli.run(['check']); "
            "print(code, loaded())",
            input="deuk bi\n")
        assert proc.stdout == "False\ndëkk bi\n0 False\n", proc.stderr

    def test_bundled_data_read_without_importlib_resources(self):
        # -S: some hosts' site hooks import importlib.resources themselves
        proc = fresh_python(
            "-S", "-c", "import sys, wolofspell.cli; "
            "wolofspell.load_sample_lexicon(); "
            "code = wolofspell.cli.run(['check']); "
            "print(code, 'importlib.resources' in sys.modules)",
            input="deuk bi\n")
        assert proc.stdout == "dëkk bi\n0 False\n", proc.stderr

    def test_import_builds_one_dataclass(self):
        # the records are named tuples; only SuggestionList runs the decorator
        proc = fresh_python(
            "-c", "import dataclasses, inspect, sys, wolofspell.cli; "
            "print([c.__name__ for name, m in list(sys.modules.items()) "
            "if name.startswith('wolofspell') "
            "for c in vars(m).values() if inspect.isclass(c) "
            "and c.__module__ == name and dataclasses.is_dataclass(c)])")
        assert proc.stdout == "['SuggestionList']\n", proc.stderr


class TestLexiconStats:
    def test_reports_word_count(self, invoke, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("dëkk\nbi\nñaar\n", encoding="utf-8")
        result = invoke(["lexicon-stats", "--lexicon", str(lex)])
        lines = dict(line.split("\t") for line in result.stdout.splitlines())
        assert lines["words"] == "3"
        assert int(lines["trie_nodes"]) > 3

    def test_grapheme_class_frequencies(self, invoke, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("dëkk\n", encoding="utf-8")
        result = invoke(["lexicon-stats", "--lexicon", str(lex)])
        lines = dict(line.split("\t") for line in result.stdout.splitlines())
        assert lines["graphemes.weak_consonant"] == "1"
        assert lines["graphemes.short_vowel"] == "1"
        assert lines["graphemes.geminate_consonant"] == "1"

    def test_empty_lexicon(self, invoke, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("", encoding="utf-8")
        result = invoke(["lexicon-stats", "--lexicon", str(lex)])
        assert "words\t0" in result.stdout

    # the input named after the lexicon does not exist: it must not be read
    @pytest.mark.parametrize("args", [["check", "/no/such/input"],
                                      ["suggest", "deuk"],
                                      ["eval", "/no/such/corpus"]])
    def test_lexicon_without_words_exits_2_first(self, invoke, tmp_path, args):
        lex = tmp_path / "lex.txt"
        lex.write_text("# no words\n\n", encoding="utf-8")
        result = invoke(args[:1] + ["--lexicon", str(lex)] + args[1:])
        assert result.exit_code == EXIT_MALFORMED
        assert result.stdout == ""
        assert result.stderr == f"error: {lex}: lexicon has no words\n"

    def test_malformed_exits_2(self, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("a b\n", encoding="utf-8")
        assert run(["lexicon-stats", "--lexicon", str(lex)]) == EXIT_MALFORMED


class TestConfigResolution:
    def test_env_var_sets_k(self, invoke):
        result = invoke(["suggest", "deuk"], env={"WOLOFSPELL_K": "2"})
        assert len(result.stdout.splitlines()) == 2

    def test_config_file_sets_k(self, invoke, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n", encoding="utf-8")
        result = invoke(["suggest", "--config", str(cfg), "deuk"])
        assert len(result.stdout.splitlines()) == 3

    def test_flag_beats_config_file(self, invoke, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n", encoding="utf-8")
        result = invoke(["suggest", "--config", str(cfg), "-k", "1", "deuk"])
        assert len(result.stdout.splitlines()) == 1

    def test_env_beats_config_file(self, invoke, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n", encoding="utf-8")
        result = invoke(["suggest", "--config", str(cfg), "deuk"],
                        env={"WOLOFSPELL_K": "2"})
        assert len(result.stdout.splitlines()) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert run(["suggest", "--config", str(cfg), "deuk"]) == EXIT_ERROR

    def test_repeated_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("k = 3\n# comment\nk = 0\n", encoding="utf-8")
        assert run(["suggest", "--config", str(cfg), "deuk"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: duplicate setting 'k'\n")

    def test_determinism(self, invoke, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("Deuk bi sakhar\n", encoding="utf-8")
        first = invoke(["check", str(path)])
        second = invoke(["check", str(path)])
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_empty_env_var_counts_as_unset(self, invoke):
        result = invoke(["suggest", "deuk"], env={"WOLOFSPELL_K": ""})
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 10

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("flag, key, value", [
        ("-k", "k", "x"),
        ("-k", "k", "0"),
        ("--max-cost", "max_cost", "x"),
        ("--max-cost", "max_cost", "-1"),
        ("--format", "format", "xml"),
    ])
    def test_bad_setting_names_its_source(self, invoke, tmp_path, source,
                                          flag, key, value):
        args, env = ["check"], {}
        if source == "flag":
            args += [flag, value]
            named = flag
        elif source == "env":
            named = f"WOLOFSPELL_{key.upper()}"
            env[named] = value
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            args += ["--config", str(cfg)]
            named = f"{cfg}: {key}"
        result = invoke(args, input="deuk\n", env=env)
        assert result.exit_code == EXIT_ERROR
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {named}: invalid value {value!r}")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("source, key", [
        *(("flag", key) for key in ("lexicon", "costs", "translit", "exclude",
                                    "config")),
        *(("config", key) for key in ("lexicon", "costs", "translit", "exclude")),
    ])
    def test_empty_path_names_its_source(self, invoke, tmp_path, source, key):
        # an empty path is not the default: --lexicon "$UNSET" must not check
        # against the bundled sample
        if source == "flag":
            args, named = ["check", f"--{key}", ""], f"--{key}"
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text(f"{key} =\n", encoding="utf-8")
            args, named = ["check", "--config", str(cfg)], f"{cfg}: {key}"
        result = invoke(args, input="deuk\n")
        assert result.exit_code == EXIT_ERROR
        assert result.stdout == ""
        assert result.stderr == f"error: {named}: invalid value '': empty path\n"

    @pytest.mark.parametrize("key", ["lexicon", "costs", "translit", "exclude",
                                     "config"])
    def test_empty_path_env_var_counts_as_unset(self, invoke, key):
        result = invoke(["check"], input="deuk\n",
                        env={f"WOLOFSPELL_{key.upper()}": ""})
        assert result.exit_code == 0
        assert result.stdout == "dëkk\n"


# Fragments that generated input files are built from: pieces of every file
# format the CLI reads, plus bytes that are not UTF-8.
_FRAGMENTS = [b"\t", b"\n", b"\r\n", b" ", b"#", b"=", b"k", b"max_cost",
              b"format", b"lexicon", b"0", b"-1", b"3", b"x", b"ou", b"u", b"gn",
              b"d\xc3\xabkk", b"deuk", b"valid", b"invalid", b"structured",
              b"\xff", b"\xc3", b"1 2", b"\xc3\xa0"]
_FILE_OPTIONS = ("--lexicon", "--costs", "--translit", "--exclude", "--config")
_VALUE_VARS = ("WOLOFSPELL_K", "WOLOFSPELL_MAX_COST", "WOLOFSPELL_FORMAT")
_env_text = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"), max_size=6)


class TestContract:
    """Every generated input file or setting ends in exit code 0, 1 or 2 with
    a one-line-prefixed error, never in an uncaught exception."""

    @settings(max_examples=120, deadline=None)
    @given(target=st.sampled_from(_FILE_OPTIONS + ("corpus", "input")),
           via_env=st.booleans(),
           content=st.one_of(st.lists(st.sampled_from(_FRAGMENTS),
                                      max_size=12).map(b"".join),
                             st.binary(max_size=24)),
           values=st.dictionaries(st.sampled_from(_VALUE_VARS),
                                  st.one_of(st.sampled_from(["1", "2", "text",
                                                             "structured"]),
                                            _env_text)))
    def test_generated_inputs_exit_cleanly(self, target, via_env, content,
                                           values):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input")
            with open(path, "wb") as fh:
                fh.write(content)
            env = {k: v for k, v in os.environ.items()
                   if not k.startswith("WOLOFSPELL_")}
            env.update(values)
            if target == "corpus":
                args = ["eval", path]
            elif target == "input":
                args = ["check", path]
            elif via_env:
                args = ["check"]
                env[f"WOLOFSPELL_{target[2:].upper()}"] = path
            else:
                args = ["check", target, path]
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, env, clear=True), \
                    mock.patch.object(sys, "stdin", io.TextIOWrapper(
                        io.BytesIO(b"deuk bi\n"), encoding="utf-8")), \
                    redirect_stdout(out), redirect_stderr(err):
                code = run(args)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: ")
        if code == EXIT_MALFORMED:  # only a lexicon or corpus file is malformed
            assert path in err.getvalue()
