"""Command-line front end: check, suggest, eval, lexicon-stats.

Settings resolve in the order command-line flag, then WOLOFSPELL_* environment
variable (an empty one counts as unset), then config file (flat ``key =
value`` lines, keys named like the long flags with dashes as underscores),
then built-in default.  Whichever source wins, its value is parsed and
checked the same way, and a bad value is reported with its source.  The
bundled sample lexicon is the default dictionary.

Exit codes: 0 success, 1 usage, I/O or configuration error, 2 malformed
lexicon or corpus file.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import Counter

from . import load_sample_lexicon
from .alphabet import UnsegmentableError, default_inventory
from .distance import CostModel, default_cost_model
from .lexicon import MalformedLexiconError, load as load_lexicon
from .pipeline import SpellChecker, WordStatus
from .preprocess import load_exclusion_list, normalize, numbered_lines
from .suggest import suggest as suggest_words
from .translit import RuleSet

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MALFORMED = 2


def _integer(text: str, least: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError("not an integer") from None
    if least is not None and value < least:
        raise ValueError(f"must be at least {least}")
    return value


def _output_format(text: str) -> str:
    if text not in ("text", "structured"):
        raise ValueError("must be 'text' or 'structured'")
    return text


# setting: (flag, parse-and-check, default, metavar, help).  A setting is
# also read from WOLOFSPELL_<SETTING> and from the config key <setting>.
_SETTINGS = {
    "lexicon": ("--lexicon", str, None, "PATH", "Lexicon file (default: bundled sample)."),
    "costs": ("--costs", str, None, "PATH", "Substitution-cost override file."),
    "translit": ("--translit", str, None, "PATH", "Transliteration rule file."),
    "exclude": ("--exclude", str, None, "PATH", "Exclusion list of words to drop."),
    "k": ("-k", lambda text: _integer(text, least=1), 10, "N",
          "Suggestion list depth (default: 10)."),
    "max_cost": ("--max-cost", _integer, None, "C", "Drop candidates above this edit cost."),
    "format": ("--format", _output_format, "text", "{text,structured}",
               "Output style for diagnostics and reports (default: text)."),
}


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` config lines; '#' comments; unknown keys rejected."""
    values = {}
    for lineno, line in numbered_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = value.strip()
    return values


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Every setting from its first source: flag, environment, config, default."""
    config = (args.config if args.config is not None
              else os.environ.get("WOLOFSPELL_CONFIG"))
    file_values = read_config_file(config) if config else {}
    settings = {}
    for name, (flag, parse, default, _, _) in _SETTINGS.items():
        env = f"WOLOFSPELL_{name.upper()}"
        settings[name] = default
        for source, text in ((flag, getattr(args, name)),
                             (env, os.environ.get(env) or None),
                             (f"{config}: {name}", file_values.get(name))):
            if text is not None:
                try:
                    settings[name] = parse(text)
                except ValueError as err:
                    raise ValueError(f"{source}: invalid value {text!r}: {err}") from None
                break
    return settings


def _build_checker(s: dict) -> SpellChecker:
    return SpellChecker(
        load_lexicon(s["lexicon"]) if s["lexicon"] else load_sample_lexicon(),
        CostModel.from_file(s["costs"]) if s["costs"] else default_cost_model(),
        RuleSet.from_file(s["translit"]) if s["translit"] else None,
        s["k"], s["max_cost"],
        load_exclusion_list(s["exclude"]) if s["exclude"] else frozenset())


def check(args, checker: SpellChecker, fmt: str) -> int:
    """Correct text from INPUT (a file, or stdin by default).

    The corrected text goes to stdout; one diagnostic line per flagged
    token goes to stderr (position, original, status, replacement).
    """
    # strict UTF-8 with universal newlines, from a file or from stdin
    if args.INPUT == "-":
        text = io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()), encoding="utf-8").read()
    else:
        with open(args.INPUT, encoding="utf-8") as fh:
            text = fh.read()
    report = checker.check_text(text)
    # corrected_text carries the input's own line breaks, trailing one included
    sys.stdout.write(report.corrected_text)
    for result in report.results:
        if result.status is WordStatus.CORRECT:
            continue
        if fmt == "structured":
            fields = [str(result.original.position), result.original.surface,
                      result.status.value, result.corrected or ""]
            if result.suggestions is not None:
                fields.append(",".join(f"{s.word}:{s.cost}"
                                       for s in result.suggestions))
            print("\t".join(fields), file=sys.stderr)
        else:
            detail = {WordStatus.CORRECTED: f"corrected to {result.corrected!r}",
                      WordStatus.NO_SUGGESTION: "no suggestion found",
                      }.get(result.status, "dropped")
            print(f"word {result.original.position} "
                  f"{result.original.surface!r}: {detail}", file=sys.stderr)
    return EXIT_OK


def suggest(args, checker: SpellChecker, fmt: str) -> int:
    """Print up to k suggestions for WORD as word<TAB>cost lines."""
    norm = normalize(args.WORD).strip()
    if not norm:
        args.parser.error(f"WORD {args.WORD!r} is empty after normalization")
    result = checker.check_word(norm)
    if result.status is WordStatus.CORRECT:
        candidates = suggest_words(norm, checker.lexicon, checker.model,
                                   k=checker.k, max_cost=checker.max_cost)
    elif result.suggestions is not None and result.suggestions.items:
        candidates = result.suggestions
    else:
        raise ValueError(f"no suggestions for {args.WORD!r}")
    for s in candidates:
        print(f"{s.word}\t{s.cost}")
    return EXIT_OK


def eval_cmd(args, checker: SpellChecker, fmt: str) -> int:
    """Score the checker against a labeled corpus TSV file."""
    from . import evaluation

    try:
        entries = evaluation.load_corpus(args.CORPUS)
    except evaluation.MalformedCorpusError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    report = evaluation.evaluate(entries, checker)
    if fmt == "structured":
        sys.stdout.write(evaluation.format_report_structured(report))
    else:
        print(evaluation.format_report(report))
    return EXIT_OK


def lexicon_stats(args, checker: SpellChecker, fmt: str) -> int:
    """Word count, trie node count and grapheme-class frequencies."""
    lexicon = checker.lexicon
    inventory = default_inventory()
    class_counts: Counter[str] = Counter()
    unsegmentable = 0
    for word in lexicon.iterate():
        try:
            class_counts.update(g.cls.value for g in inventory.segment(word))
        except UnsegmentableError:
            unsegmentable += 1
    print(f"words\t{lexicon.word_count}")
    print(f"trie_nodes\t{lexicon.node_count()}")
    for name in sorted(class_counts):
        print(f"graphemes.{name}\t{class_counts[name]}")
    if unsegmentable:
        print(f"unsegmentable_words\t{unsegmentable}")
    return EXIT_OK


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def _parser() -> _Parser:
    parser = _Parser(prog="wolofspell",
                     description="Wolof spell checking and correction.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, command, operand in (("check", check, "INPUT"),
                                   ("suggest", suggest, "WORD"),
                                   ("eval", eval_cmd, "CORPUS"),
                                   ("lexicon-stats", lexicon_stats, None)):
        sub = commands.add_parser(name, help=command.__doc__.split("\n")[0],
                                  description=command.__doc__)
        sub.set_defaults(command=command, parser=sub)
        sub.add_argument("--config", metavar="PATH",
                         help="Config file (key = value lines).")
        for setting, (flag, _, _, metavar, help_text) in _SETTINGS.items():
            sub.add_argument(flag, dest=setting, metavar=metavar, help=help_text)
        if operand:  # only check's INPUT is optional, and stdin by default
            sub.add_argument(operand, nargs="?" if operand == "INPUT" else None,
                             default="-")
    return parser


def run(argv=None) -> int:
    """Entry point that maps errors onto the documented exit codes."""
    try:
        args = _parser().parse_args(argv)
        settings = _resolve_settings(args)
        return args.command(args, _build_checker(settings), settings["format"])
    except SystemExit as done:  # --help
        return done.code
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED if isinstance(err, MalformedLexiconError) else EXIT_ERROR
    except KeyboardInterrupt:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(run())
