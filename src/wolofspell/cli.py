"""Command-line front end: check, suggest, eval, lexicon-stats.

Settings resolve in the order command-line flag, then WOLOFSPELL_* environment
variable, then config file (flat ``key = value`` lines, keys named like the
long flags with dashes as underscores), then built-in default.  The bundled
sample lexicon is the default dictionary.

Exit codes: 0 success, 1 I/O or configuration error, 2 malformed lexicon or
corpus file.
"""

from __future__ import annotations

import sys

import click
from click.core import ParameterSource

from . import load_sample_lexicon
from .alphabet import UnsegmentableError, default_inventory
from .distance import CostModel, default_cost_model
from .evaluation import (
    MalformedCorpusError,
    evaluate,
    format_report,
    format_report_structured,
    load_corpus,
)
from .lexicon import MalformedLexiconError, load as load_lexicon
from .pipeline import SpellChecker, WordStatus
from .preprocess import load_exclusion_list, normalize
from .suggest import EmptyLexiconError, suggest as suggest_words
from .translit import RuleSet

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MALFORMED = 2

_SETTINGS = ("lexicon", "costs", "translit", "exclude", "k", "max_cost", "format")


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` config lines; '#' comments; unknown keys rejected."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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


def _resolve(ctx: click.Context, name: str, file_values: dict[str, str], cast):
    """Apply the flag > env > config file > default precedence for one option."""
    source = ctx.get_parameter_source(name)
    if source in (ParameterSource.COMMANDLINE, ParameterSource.ENVIRONMENT):
        return ctx.params[name]
    if name in file_values:
        return cast(file_values[name])
    return ctx.params[name]


def _build_config(ctx: click.Context) -> tuple[SpellChecker, str]:
    """The configured checker and the output format."""
    params = ctx.params
    file_values = read_config_file(params["config"]) if params.get("config") else {}

    lexicon_path = _resolve(ctx, "lexicon", file_values, str)
    costs_path = _resolve(ctx, "costs", file_values, str)
    translit_path = _resolve(ctx, "translit", file_values, str)
    exclude_path = _resolve(ctx, "exclude", file_values, str)
    k = _resolve(ctx, "k", file_values, int)
    max_cost = _resolve(ctx, "max_cost", file_values, int)
    fmt = _resolve(ctx, "format", file_values, str)

    if k < 1:
        raise click.ClickException("-k must be at least 1")
    if fmt not in ("text", "structured"):
        raise click.ClickException(f"unknown format {fmt!r}")

    lexicon = load_lexicon(lexicon_path) if lexicon_path else load_sample_lexicon()
    model = CostModel.from_file(costs_path) if costs_path else default_cost_model()
    rules = RuleSet.from_file(translit_path) if translit_path else None
    exclude = load_exclusion_list(exclude_path) if exclude_path else frozenset()
    return SpellChecker(lexicon, model, rules, k, max_cost, exclude), fmt


def common_options(fn):
    opts = [
        click.option("--config", type=click.Path(), envvar="WOLOFSPELL_CONFIG",
                     default=None, help="Config file (key = value lines)."),
        click.option("--lexicon", type=click.Path(), default=None,
                     envvar="WOLOFSPELL_LEXICON",
                     help="Lexicon file (default: bundled sample)."),
        click.option("--costs", type=click.Path(), default=None,
                     envvar="WOLOFSPELL_COSTS",
                     help="Substitution-cost override file."),
        click.option("--translit", type=click.Path(), default=None,
                     envvar="WOLOFSPELL_TRANSLIT",
                     help="Transliteration rule file."),
        click.option("--exclude", type=click.Path(), default=None,
                     envvar="WOLOFSPELL_EXCLUDE",
                     help="Exclusion list of words to drop."),
        click.option("-k", type=int, default=10, show_default=True,
                     envvar="WOLOFSPELL_K", help="Suggestion list depth."),
        click.option("--max-cost", type=int, default=None,
                     envvar="WOLOFSPELL_MAX_COST",
                     help="Drop candidates above this edit cost."),
        click.option("--format", type=click.Choice(["text", "structured"]),
                     default="text", show_default=True,
                     envvar="WOLOFSPELL_FORMAT",
                     help="Output style for diagnostics and reports."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Wolof spell checking and correction."""


@main.command()
@common_options
@click.argument("input", type=click.File("r", encoding="utf-8"), default="-")
@click.pass_context
def check(ctx, input, **_kwargs):
    """Correct text from INPUT (a file, or stdin by default).

    The corrected text goes to stdout; one diagnostic line per flagged
    token goes to stderr (position, original, status, replacement).
    """
    checker, fmt = _build_config(ctx)
    text = input.read()
    report = checker.check_text(text)
    # corrected_text carries the input's own line breaks, trailing one included
    click.echo(report.corrected_text, nl=False)
    for result in report.results:
        if result.status is WordStatus.CORRECT:
            continue
        if fmt == "structured":
            fields = [str(result.original.position), result.original.surface,
                      result.status.value, result.corrected or ""]
            if result.suggestions is not None:
                fields.append(",".join(f"{s.word}:{s.cost}"
                                       for s in result.suggestions))
            click.echo("\t".join(fields), err=True)
        else:
            if result.status is WordStatus.CORRECTED:
                detail = f"corrected to {result.corrected!r}"
            elif result.status is WordStatus.NO_SUGGESTION:
                detail = "no suggestion found"
            else:
                detail = "dropped"
            click.echo(f"word {result.original.position} "
                       f"{result.original.surface!r}: {detail}", err=True)


@main.command()
@common_options
@click.argument("word")
@click.pass_context
def suggest(ctx, word, **_kwargs):
    """Print up to k suggestions for WORD as word<TAB>cost lines."""
    checker, _ = _build_config(ctx)
    norm = normalize(word).strip()
    if not norm:
        raise click.UsageError(f"WORD {word!r} is empty after normalization")
    result = checker.check_word(norm)
    if result.status is WordStatus.CORRECT:
        candidates = suggest_words(norm, checker.lexicon, checker.model,
                                   k=checker.k, max_cost=checker.max_cost)
    elif result.suggestions is not None and result.suggestions.items:
        candidates = result.suggestions
    else:
        raise click.ClickException(f"no suggestions for {word!r}")
    for s in candidates:
        click.echo(f"{s.word}\t{s.cost}")


@main.command(name="eval")
@common_options
@click.argument("corpus", type=click.Path(exists=False))
@click.pass_context
def eval_cmd(ctx, corpus, **_kwargs):
    """Score the checker against a labeled corpus TSV file."""
    checker, fmt = _build_config(ctx)
    entries = load_corpus(corpus)
    report = evaluate(entries, checker)
    if fmt == "structured":
        click.echo(format_report_structured(report), nl=False)
    else:
        click.echo(format_report(report))


@main.command(name="lexicon-stats")
@common_options
@click.pass_context
def lexicon_stats(ctx, **_kwargs):
    """Word count, trie node count and grapheme-class frequencies."""
    lexicon = _build_config(ctx)[0].lexicon
    inventory = default_inventory()
    class_counts: dict[str, int] = {}
    unsegmentable = 0
    for word in lexicon.iterate():
        try:
            graphemes = inventory.segment(word)
        except UnsegmentableError:
            unsegmentable += 1
            continue
        for g in graphemes:
            class_counts[g.cls.value] = class_counts.get(g.cls.value, 0) + 1
    click.echo(f"words\t{lexicon.word_count}")
    click.echo(f"trie_nodes\t{lexicon.node_count()}")
    for name in sorted(class_counts):
        click.echo(f"graphemes.{name}\t{class_counts[name]}")
    if unsegmentable:
        click.echo(f"unsegmentable_words\t{unsegmentable}")


def run(argv=None) -> int:
    """Entry point that maps errors onto the documented exit codes."""
    try:
        main.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except (MalformedLexiconError, MalformedCorpusError) as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_MALFORMED
    except click.ClickException as err:
        err.show()
        return EXIT_ERROR
    except click.Abort:
        return EXIT_ERROR
    except (OSError, EmptyLexiconError, ValueError) as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(run())
