"""In-memory span recorder for the benchmark's traced runs.

``Tracer.install()`` wraps the public functions each wolofspell module
exposes, at the names their callers resolve, so the unmodified package runs
through the wrappers.  Every wrapped call records one span: layer function,
start and end (``perf_counter_ns``), the index of the enclosing span, the id
of the line or corpus entry it serves, and up to two counters read from the
call's arguments and result.  Spans are kept in typed arrays while the run
lasts and written out once at the end.

A layer's self time is its spans' durations minus the durations of their
direct child spans; the layers here are wrapped at their entry points, so
nested wrapped calls (check_text -> check_word -> validate) never overlap.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import wolofspell.evaluation
import wolofspell.pipeline
import wolofspell.preprocess
import wolofspell.rules
from wolofspell.lexicon import TrieDict
from wolofspell.pipeline import SpellChecker


@dataclass(frozen=True)
class Hook:
    """One wrapped function: the object holding it, its name, its layer."""
    owner: object
    attr: str
    layer: str
    # counters read after the call: f(args, result) -> (aux1, aux2)
    counters: Callable | None = None


def _suggest_counters(args, result):
    return result.nodes_expanded, len(result.query) + 1


HOOKS = (
    Hook(wolofspell.preprocess, "strip_punctuation", "preprocess"),
    Hook(wolofspell.preprocess, "normalize", "preprocess"),
    Hook(wolofspell.rules, "validate", "rules",
         lambda args, verdict: (0 if verdict.valid else 1, 0)),
    Hook(TrieDict, "contains", "lexicon",
         lambda args, hit: (1 if hit else 0, 0)),
    Hook(wolofspell.pipeline, "transform", "translit",
         lambda args, out: (1 if out != args[0] else 0, 0)),
    Hook(wolofspell.pipeline, "suggest", "suggest", _suggest_counters),
    Hook(SpellChecker, "check_text", "pipeline"),
    Hook(SpellChecker, "check_word", "pipeline"),
    Hook(wolofspell.evaluation, "plain_edit_distance", "distance"),
    Hook(wolofspell.evaluation, "evaluate", "evaluation"),
)

FUNCTIONS = tuple(hook.attr for hook in HOOKS)

_FIELDS = ("func", "start", "end", "parent", "request", "aux1", "aux2")


class Tracer:
    """Records spans of the hooked functions while installed.

    ``request_fn`` names the function whose every call starts a new request
    id: check_text for text (one id per line), check_word for a corpus (one
    id per entry).  The wrappers are built once, around the functions found
    at construction; a hook whose name no longer exists raises
    AttributeError here, so a rename in the package cannot silently read as
    a layer doing nothing.
    """

    def __init__(self, request_fn: str = "check_text"):
        self.request_fn = FUNCTIONS.index(request_fn)
        self.arrays = {name: array("q") for name in _FIELDS}
        self.queries: list[str] = []  # one per suggest span, in span order
        self.command_ns: list[int] = []  # CLI runs timed by main()
        self._stack: list[int] = []
        self._request = -1
        self._originals = [getattr(hook.owner, hook.attr) for hook in HOOKS]
        self._wrappers = [self._wrap(code, original, hook.counters)
                          for code, (hook, original)
                          in enumerate(zip(HOOKS, self._originals))]

    def __len__(self) -> int:
        return len(self.arrays["func"])

    def _wrap(self, code: int, fn, counters):
        a = self.arrays
        func, start, end, parent = a["func"], a["start"], a["end"], a["parent"]
        request, aux1, aux2 = a["request"], a["aux1"], a["aux2"]
        stack = self._stack
        starts_request = code == self.request_fn
        records_query = fn.__name__ == "suggest"

        def wrapper(*args, **kwargs):
            if starts_request:
                self._request += 1
            idx = len(func)
            func.append(code)
            parent.append(stack[-1] if stack else -1)
            request.append(self._request)
            start.append(0)
            end.append(0)
            aux1.append(0)
            aux2.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counters:
                aux1[idx], aux2[idx] = counters(args, result)
            if records_query:
                self.queries.append(result.query)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every hooked function by its recording wrapper."""
        for hook, wrapper in zip(HOOKS, self._wrappers):
            setattr(hook.owner, hook.attr, wrapper)

    def uninstall(self) -> None:
        for hook, original in zip(HOOKS, self._originals):
            setattr(hook.owner, hook.attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then each array's bytes."""
        header = {"functions": FUNCTIONS, "count": len(self),
                  "fields": _FIELDS, "queries": self.queries,
                  "command_ns": self.command_ns}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, ensure_ascii=False).encode() + b"\n")
            for name in _FIELDS:
                self.arrays[name].tofile(fh)


@dataclass
class Spans:
    """Spans read back from one or more files, with self times computed."""
    arrays: dict[str, array]
    queries: list[str]
    command_ns: list[int]

    @classmethod
    def read(cls, paths) -> "Spans":
        arrays = {name: array("q") for name in _FIELDS}
        queries: list[str] = []
        command_ns: list[int] = []
        for path in paths:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                if tuple(header["functions"]) != FUNCTIONS:
                    raise ValueError(f"{path}: span file from another hook set")
                base = len(arrays["func"])
                for name in _FIELDS:
                    part = array("q")
                    part.fromfile(fh, header["count"])
                    if name == "parent":
                        part = array("q", (p + base if p >= 0 else -1 for p in part))
                    arrays[name].extend(part)
                queries.extend(header["queries"])
                command_ns.extend(header["command_ns"])
        return cls(arrays, queries, command_ns)

    def self_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        start, end, parent = (self.arrays[n] for n in ("start", "end", "parent"))
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own


def main(argv: list[str]) -> int:
    """Run ``wolofspell`` CLI arguments with every layer traced.

    python3 benchmarks/spans.py SPAN_FILE CLI_ARGS...
    """
    import wolofspell.cli

    span_file, *cli_args = argv
    tracer = Tracer("check_text")
    with tracer:
        t0 = perf_counter_ns()
        code = wolofspell.cli.run(cli_args)
        tracer.command_ns.append(perf_counter_ns() - t0)
    tracer.write(span_file)
    return code


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
