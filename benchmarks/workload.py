"""Measured side of the wolofspell benchmark: one workload in one process.

    python3 benchmarks/workload.py setup LEXICON K
        Set-up probe, run in a fresh process: times the path from a lexicon
        file to a checker whose lazy initialisation is done, and prints
        {"setup_s", "load_s", "trie_nodes", "words"} as JSON.

    python3 benchmarks/workload.py run --workload W --inputs DIR --seconds S
            --trace 0|1 --seed N
        Runs workload W in a closed loop (one caller, the next call only after
        the previous returns) on the generated inputs in DIR and prints its
        result as JSON.  With --trace 1 each operation runs twice, untraced
        and then on a second instance with every layer wrapped by
        spans.Tracer, until S/2 seconds of untraced calls have accumulated.

Only the calls into the package are timed; checking each output against the
expected one happens between calls, outside the timed intervals, and the
costly linear-scan reference check runs once the loop has ended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wolofspell import evaluation  # noqa: E402
from wolofspell.evaluation import ConfusionCounts, load_corpus  # noqa: E402
from wolofspell.lexicon import load  # noqa: E402
from wolofspell.pipeline import SpellChecker, WordStatus  # noqa: E402
from wolofspell.translit import transform  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("clean_text", "dirty_text", "eval_corpus", "cli_cold_start")

# A line that reaches every lazy load but never the search: "dëkk" and "bi"
# pass the rules and the lexicon, and "hvz" fails the rules and is
# transliterated (loading the default transliteration rules) to an empty
# query, so check_word returns NO_SUGGESTION before any suggest call.
WARMUP_LINE = "Dëkk bi, hvz!"
WARMUP_STATUSES = ("CORRECT", "CORRECT", "NO_SUGGESTION")

# Suggestion depth per workload: the CLI default (10) except dirty_text,
# which measures a checker that only needs its top candidate.
K = {"clean_text": 10, "dirty_text": 1, "eval_corpus": 10, "cli_cold_start": 10}

# The end-to-end tail percentile, fixed per workload so that it means the
# same thing on every run: the highest percentile with at least ten samples
# beyond it in a 20 s run at the seed commit's speed on a 2-core machine,
# capped at p95.  On clean_text (about 7000 lines of 3 ms) p99 would qualify,
# but it moved between 4.6 and 8.8 ms from run to run with host preemption,
# while p95 held within a few percent.
TAIL_PERCENTILE = {"clean_text": 95, "dirty_text": 95, "eval_corpus": 90,
                   "cli_cold_start": 90}

# Corpus entries per evaluate() call (two valid, two invalid).
EVAL_BATCH = 4

# Distinct misspellings (corpus batches for eval_corpus) checked per run
# against the linear-scan reference; the benchmark's own test checks all.
REFERENCE_SAMPLE = {"clean_text": 0, "dirty_text": 24, "eval_corpus": 4,
                    "cli_cold_start": 8}

# Layers each workload must exercise; zero calls to one of them fails the
# traced run, so a renamed function cannot pass as an idle layer.
REQUIRED_LAYERS = {
    "clean_text": ("preprocess", "rules", "lexicon", "pipeline"),
    "dirty_text": ("preprocess", "rules", "lexicon", "translit", "suggest",
                   "pipeline"),
    "eval_corpus": ("rules", "lexicon", "translit", "suggest", "distance",
                    "pipeline", "evaluation"),
    "cli_cold_start": ("preprocess", "rules", "lexicon", "translit", "suggest",
                       "pipeline"),
}

CLI_PROBE_REPEATS = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def beyond(n: int, p: float) -> int:
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100 * n))


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p50/p90/p95/p99/p99.9 with at
    least ten samples beyond it."""
    p = 50.0
    for q in (90.0, 95.0, 99.0, 99.9):
        if beyond(len(values), q) >= 10:
            p = q
    return p, percentile(values, p)


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's package, no
    WOLOFSPELL_* settings inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WOLOFSPELL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def read_words(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split()


# --------------------------------------------------------------- workloads
#
# Each workload offers: items() - an endless stream of operation inputs,
# cycling over the generated pool; call(item) - the timed call; size(item) -
# the units of work in the item; check(op, item, out) - the cheap check of
# one output, run between calls; finish(rng, check_all) - the reference
# check after the loop, returning the failed operation numbers.


class TextWorkload:
    """check_text on one line per call (clean_text, dirty_text)."""

    request_fn = "check_text"

    def __init__(self, name: str, inputs: Path):
        self.name = name
        self.k = K[name]
        self.words = read_words(inputs / "lexicon.txt")
        self.lexicon = load(inputs / "lexicon.txt")
        self.checker = SpellChecker(self.lexicon, k=self.k)
        self.checker.check_text(WARMUP_LINE)
        self.path = inputs / "lines.jsonl"
        self.memo: dict[str, tuple[str, tuple]] = {}  # misspelling -> (query, list)
        self.ops_of: dict[str, list[int]] = {}
        self.tokens = 0
        self.flagged = 0
        self.wrapped = False

    def items(self):
        while True:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    yield json.loads(line)
            self.wrapped = True

    def call(self, item):
        return self.checker.check_text(item["text"])

    def size(self, item) -> int:
        return len(item["kinds"])

    def check(self, op: int, item, report) -> bool:
        """Correct words pass, digits drop, each misspelling is flagged and
        corrected to its top candidate, the same list every time."""
        forms = item["forms"].split(" ")
        if len(report.results) != len(forms):
            return False
        ok = True
        out = []
        for kind, form, r in zip(item["kinds"], forms, report.results):
            self.tokens += 1
            ok &= r.original.surface == form
            if kind == "d":
                ok &= r.status is WordStatus.DROPPED
                continue
            if kind == "w":
                ok &= r.status is WordStatus.CORRECT
                out.append(form)
                continue
            self.flagged += 1
            query = r.suggestions.query if r.suggestions else ""
            ranked = tuple((s.word, s.cost) for s in r.suggestions or ())
            ok &= self.memo.setdefault(form, (query, ranked)) == (query, ranked)
            self.ops_of.setdefault(form, []).append(op)
            top = ranked[0][0] if ranked else None
            ok &= r.corrected == top
            ok &= r.status is (WordStatus.CORRECTED if top else WordStatus.NO_SUGGESTION)
            out.append(top or form)
        return ok and report.corrected_text == " ".join(out)

    def finish(self, rng: random.Random, check_all: bool) -> set[int]:
        """Compare each sampled misspelling's query and list to the reference."""
        forms = sorted(self.memo)
        if not check_all:
            forms = rng.sample(forms, min(REFERENCE_SAMPLE[self.name], len(forms)))
        bad: set[int] = set()
        for form in forms:
            query = transform(form)
            want = (query, reference.top_k(query, self.words, self.k) if query else ())
            if self.memo[form] != want:
                bad.update(self.ops_of[form])
        return bad

    def properties(self, ops: int) -> dict:
        return {"lines": ops, "tokens": self.tokens,
                "flagged_share": self.flagged / self.tokens if self.tokens else 0.0,
                "distinct_misspellings": len(self.memo),
                "lexicon_words": self.lexicon.word_count,
                "trie_nodes": self.lexicon.node_count(),
                "pool_wrapped": self.wrapped}


class EvalWorkload:
    """evaluate() at k=10 over consecutive batches of a labeled corpus."""

    request_fn = "check_word"

    def __init__(self, name: str, inputs: Path):
        self.name = name
        self.words = read_words(inputs / "lexicon.txt")
        self.lexicon = load(inputs / "lexicon.txt")
        self.checker = SpellChecker(self.lexicon, k=K[name])
        self.checker.check_text(WARMUP_LINE)
        entries = load_corpus(inputs / "corpus.tsv")
        self.batches = [entries[i:i + EVAL_BATCH]
                        for i in range(0, len(entries), EVAL_BATCH)]
        self.reports: dict[int, list[tuple[int, object]]] = {}
        self.wrapped = False

    def items(self):
        while True:
            yield from range(len(self.batches))
            self.wrapped = True

    def call(self, item):
        # resolved through the module, so a traced run records the call
        return evaluation.evaluate(self.batches[item], self.checker)

    def size(self, item) -> int:
        return len(self.batches[item])

    def check(self, op: int, item, report) -> bool:
        """Every valid entry accepted, every invalid one flagged, and the
        histogram of all misspellings right; the scores wait for finish()."""
        batch = self.batches[item]
        invalid = [e for e in batch if not e.valid]
        hist = Counter(reference.unit_distance(e.word, e.gold) for e in invalid)
        self.reports.setdefault(item, []).append((op, report))
        return (report.counts == ConfusionCounts(tp=len(batch) - len(invalid), fp=0,
                                                 fn=0, tn=len(invalid))
                and report.histogram_all == dict(sorted(hist.items())))

    def finish(self, rng: random.Random, check_all: bool) -> set[int]:
        """Recompute adequacy, MRR and the wrong-correction histogram of the
        sampled batches from reference lists."""
        chosen = sorted(self.reports)
        if not check_all:
            chosen = rng.sample(chosen, min(REFERENCE_SAMPLE[self.name], len(chosen)))
        bad: set[int] = set()
        for item in chosen:
            invalid = [(e.word, e.gold, reference.top_k(transform(e.word), self.words,
                                                        K[self.name]))
                       for e in self.batches[item] if not e.valid]
            adequacy, mrr, wrong = reference.eval_scores(invalid)
            for op, report in self.reports[item]:
                if not (math.isclose(report.suggestion_adequacy, adequacy)
                        and math.isclose(report.mean_reciprocal_rank, mrr)
                        and report.histogram_wrong == wrong):
                    bad.add(op)
        return bad

    def properties(self, ops: int) -> dict:
        entries = [e for item in self.reports for e in self.batches[item]]
        invalid = sum(1 for e in entries if not e.valid)
        return {"batches": ops, "entries": sum(len(self.batches[i]) * len(r)
                                               for i, r in self.reports.items()),
                "flagged_share": invalid / len(entries) if entries else 0.0,
                "distinct_misspellings": invalid,
                "lexicon_words": self.lexicon.word_count,
                "trie_nodes": self.lexicon.node_count(),
                "pool_wrapped": self.wrapped}


class CliWorkload:
    """One ``wolofspell check`` process per line, one after another."""

    def __init__(self, name: str, inputs: Path):
        self.name = name
        self.inputs = inputs
        self.lexicon_path = inputs / "lexicon.txt"
        self.lexicon = load(self.lexicon_path)
        with open(inputs / "lines.jsonl", encoding="utf-8") as fh:
            self.lines = [json.loads(line) for line in fh]
        self.env = child_env()
        self.spans_dir: Path | None = None  # set for the traced phase
        self.traced_calls = 0
        self.outputs: list[tuple[int, int, tuple[int, str]]] = []
        self.library: TextWorkload | None = None
        self.wrapped = False
        self.call(0)  # compile and cache the package bytecode before timing

    def items(self):
        while True:
            yield from range(len(self.lines))
            self.wrapped = True

    def command(self) -> list[str]:
        args = ["check", "--lexicon", str(self.lexicon_path)]
        if self.spans_dir is None:
            return [sys.executable, "-m", "wolofspell.cli", *args]
        self.traced_calls += 1
        span_file = self.spans_dir / f"{self.traced_calls}.bin"
        return [sys.executable, str(HERE / "spans.py"), str(span_file), *args]

    def call(self, item):
        proc = subprocess.run(self.command(), input=self.lines[item]["text"] + "\n",
                              capture_output=True, encoding="utf-8",
                              env=self.env, timeout=120)
        return proc.returncode, proc.stdout

    def size(self, item) -> int:
        return 1

    def check(self, op: int, item, out) -> bool:
        self.outputs.append((op, item, out))
        return out[0] == 0

    def finish(self, rng: random.Random, check_all: bool) -> set[int]:
        """Each process's stdout must equal the library's corrected text, and
        the library's lists must match the reference on sampled lines."""
        self.library = TextWorkload(self.name, self.inputs)
        expected = {}
        wrong_items: set[int] = set()
        for item in sorted({item for _, item, _ in self.outputs}):
            report = self.library.call(self.lines[item])
            if not self.library.check(item, self.lines[item], report):
                wrong_items.add(item)
            # check_text keeps line breaks, the input's final one included
            expected[item] = report.corrected_text + "\n"
        wrong_items |= self.library.finish(rng, check_all)
        return {op for op, item, (code, stdout) in self.outputs
                if code != 0 or stdout != expected[item] or item in wrong_items}

    def properties(self, ops: int) -> dict:
        lib = self.library
        return {"processes": ops, "tokens": lib.tokens if lib else 0,
                "flagged_share": lib.flagged / lib.tokens if lib and lib.tokens else 0.0,
                "distinct_misspellings": len(lib.memo) if lib else 0,
                "lexicon_words": self.lexicon.word_count,
                "trie_nodes": self.lexicon.node_count(),
                "pool_wrapped": self.wrapped}


def make_workload(name: str, inputs: Path):
    if name in ("clean_text", "dirty_text"):
        return TextWorkload(name, inputs)
    if name == "eval_corpus":
        return EvalWorkload(name, inputs)
    if name == "cli_cold_start":
        return CliWorkload(name, inputs)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ measurement


class Phase:
    """What one pass of the closed loop saw."""

    def __init__(self):
        self.latencies: list[float] = []
        self.units = 0
        self.busy = 0.0
        self.digests: list[str] = []
        self.failed: set[int] = set()


def step(wl, item, phase: Phase, op: int) -> None:
    """Make one timed call, then check its output."""
    t0 = perf_counter()
    try:
        out = wl.call(item)
    except Exception as err:  # a failed operation; the loop goes on
        elapsed = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        out, ok = repr(err), False
    else:
        elapsed = perf_counter() - t0
        ok = wl.check(op, item, out)
    phase.busy += elapsed
    phase.latencies.append(elapsed)
    phase.units += wl.size(item)
    phase.digests.append(hashlib.sha1(repr(out).encode()).hexdigest())
    if not ok:
        phase.failed.add(op)


def keep_going(phase: Phase, seconds: float, max_ops: int | None) -> bool:
    if max_ops is None:
        return phase.busy < seconds
    return len(phase.latencies) < max_ops


def closed_loop(wl, seconds: float, max_ops: int | None) -> Phase:
    """Call the workload back to back until ``seconds`` of timed calls have
    accumulated, or ``max_ops`` calls were made."""
    phase = Phase()
    items = wl.items()
    while keep_going(phase, seconds, max_ops):
        step(wl, next(items), phase, len(phase.latencies))
    return phase


def paired_loop(plain_wl, traced_wl, tracer: spans.Tracer | None,
                seconds: float, max_ops: int | None) -> tuple[Phase, Phase]:
    """Run each operation untraced on ``plain_wl``, then traced on
    ``traced_wl``, a second instance built from the same inputs.

    Pairing the two calls makes the overhead measurement see the same host
    conditions on both sides; the separate instances keep any state one
    call leaves behind from speeding up its twin.  Operations are numbered
    2i (untraced) and 2i + 1 (traced).
    """
    plain, traced = Phase(), Phase()
    items = plain_wl.items()
    while keep_going(plain, seconds, max_ops):
        item = next(items)
        op = 2 * len(plain.latencies)
        step(plain_wl, item, plain, op)
        if tracer is not None:
            tracer.install()
        try:
            step(traced_wl, item, traced, op + 1)
        finally:
            if tracer is not None:
                tracer.uninstall()
    return plain, traced


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


def end_to_end(name: str, phase: Phase) -> dict:
    lat_ms = [1000 * x for x in phase.latencies]
    p = TAIL_PERCENTILE[name]
    return {
        "items_per_s": phase.units / phase.busy,
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": percentile(lat_ms, p),
        "tail_percentile": p,
        "tail_beyond": beyond(len(lat_ms), p),
        "samples": len(lat_ms),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli_cold_start"
                                   else resource.RUSAGE_SELF),
    }


def layer_metrics(trace: spans.Spans, wall_s: float,
                  trie_nodes: int) -> tuple[dict, Counter]:
    """Per-layer counts, busy (self) times and shares of the traced wall time,
    and the number of calls each layer recorded."""
    own = trace.self_ns()
    func, start, end = (trace.arrays[n] for n in ("func", "start", "end"))
    aux1, aux2 = trace.arrays["aux1"], trace.arrays["aux2"]
    calls = Counter()  # per function and, separately, per layer
    layer_calls = Counter()
    self_ns = Counter()
    counts = Counter()
    durations: dict[str, list[int]] = {"validate": [], "suggest": []}
    dp_cells = 0
    for i, code in enumerate(func):
        fn = spans.FUNCTIONS[code]
        layer = spans.HOOKS[code].layer
        calls[fn] += 1
        layer_calls[layer] += 1
        self_ns[layer] += own[i]
        counts[fn] += aux1[i]
        if fn in durations:
            durations[fn].append(end[i] - start[i])
        if fn == "suggest":
            dp_cells += aux1[i] * aux2[i]

    def busy(layer):
        return self_ns[layer] / 1e9

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("preprocess", "rules", "lexicon", "translit", "suggest", "distance"):
        key = "lexicon.lookups" if layer == "lexicon" else f"{layer}.calls"
        m[key] = layer_calls[layer]
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.share"] = busy(layer) / wall_s
    validate_ns = durations["validate"]
    m["rules.call_us_p50"] = percentile(validate_ns, 50) / 1e3 if validate_ns else 0.0
    m["rules.flag_share"] = share(counts["validate"], calls["validate"])
    m["lexicon.hit_share"] = share(counts["contains"], calls["contains"])
    m["translit.rewrite_share"] = share(counts["transform"], calls["transform"])
    suggest_ms = [ns / 1e6 for ns in durations["suggest"]]
    m["suggest.distinct_query_share"] = share(len(set(trace.queries)), calls["suggest"])
    m["suggest.call_ms_p50"] = percentile(suggest_ms, 50) if suggest_ms else 0.0
    tail_p, tail_ms = tail(suggest_ms) if suggest_ms else (50.0, 0.0)
    m["suggest.call_ms_tail"] = tail_ms
    m["suggest.call_ms_tail_percentile"] = tail_p
    m["suggest.nodes_expanded"] = counts["suggest"]
    m["suggest.expanded_share"] = share(counts["suggest"], trie_nodes * calls["suggest"])
    m["suggest.dp_cells"] = dp_cells
    m["pipeline.check_word_calls"] = calls["check_word"]
    m["pipeline.self_s"] = busy("pipeline")
    m["pipeline.share"] = busy("pipeline") / wall_s
    m["evaluation.self_s"] = busy("evaluation")
    m["evaluation.share"] = busy("evaluation") / wall_s
    return m, layer_calls


def cli_probes(env: dict[str, str]) -> dict:
    """Bare interpreter start and CLI import, each the median of fresh runs,
    alternating so that both see the same host conditions."""
    bare, imported = [], []
    for _ in range(CLI_PROBE_REPEATS):
        for cmd, out in (([sys.executable, "-c", "pass"], bare),
                         ([sys.executable, "-c", "import wolofspell.cli"], imported)):
            t0 = perf_counter()
            subprocess.run(cmd, env=env, check=True, timeout=120)
            out.append(1000 * (perf_counter() - t0))
    interpreter = statistics.median(bare)
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": statistics.median(imported) - interpreter}


def run(name: str, inputs: Path, seconds: float, trace: bool, seed: int,
        check_all: bool = False, max_ops: int | None = None) -> dict:
    """Measure one workload; see the module docstring."""
    wl = make_workload(name, inputs)
    result: dict = {"workload": name}
    if not trace:
        phase = closed_loop(wl, seconds, max_ops)
        result["end_to_end"] = end_to_end(name, phase)
        failed = phase.failed | wl.finish(random.Random(seed), check_all)
        attempted = len(phase.latencies)
    else:
        spans_dir = inputs / "spans"
        spans_dir.mkdir(exist_ok=True)
        twin = make_workload(name, inputs)
        tracer = None
        if name == "cli_cold_start":
            twin.spans_dir = spans_dir  # each traced child writes its own file
        else:
            tracer = spans.Tracer(wl.request_fn)
        phase, traced = paired_loop(wl, twin, tracer, seconds / 2, max_ops)
        if tracer is not None:
            tracer.write(spans_dir / "0.bin")
        if traced.digests != phase.digests:
            raise RuntimeError("traced outputs differ from untraced outputs")
        trace_spans = spans.Spans.read(sorted(spans_dir.iterdir()))
        layers, calls = layer_metrics(trace_spans, traced.busy, wl.lexicon.node_count())
        missing = [layer for layer in REQUIRED_LAYERS[name] if not calls[layer]]
        if missing:
            raise RuntimeError(f"{name}: no calls recorded in layer(s) {missing}")
        layers["trace.overhead_share"] = traced.busy / phase.busy - 1
        if name == "cli_cold_start":
            layers.update(cli_probes(wl.env))
            # the command's own run, timed inside each traced child
            layers["cli.command_ms"] = statistics.median(trace_spans.command_ns) / 1e6
        else:
            layers.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                           "cli.command_ms": 0.0})
        result["per_layer"] = layers
        # the traced twin of an operation returned the same output
        wrong = wl.finish(random.Random(seed), check_all)
        failed = phase.failed | traced.failed | wrong | {op + 1 for op in wrong}
        attempted = 2 * len(phase.latencies)
    result.update(attempted=attempted, failed=len(failed),
                  digest=hashlib.sha256("".join(phase.digests).encode()).hexdigest(),
                  properties=wl.properties(len(phase.latencies)))
    return result


def setup_probe(lexicon_path: str, k: int) -> dict:
    """Lexicon file path to a checker that has finished lazy initialisation."""
    t0 = perf_counter()
    lexicon = load(lexicon_path)
    t1 = perf_counter()
    checker = SpellChecker(lexicon, k=k)
    report = checker.check_text(WARMUP_LINE)
    t2 = perf_counter()
    statuses = tuple(r.status.name for r in report.results)
    if statuses != WARMUP_STATUSES or any(r.suggestions for r in report.results):
        raise RuntimeError(f"warm-up line gave {statuses}, expected {WARMUP_STATUSES}"
                           " with no search")
    return {"setup_s": t2 - t0, "load_s": t1 - t0,
            "trie_nodes": lexicon.node_count(), "words": lexicon.word_count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("lexicon")
    p_setup.add_argument("k", type=int)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True, choices=WORKLOADS)
    p_run.add_argument("--inputs", required=True, type=Path)
    p_run.add_argument("--seconds", required=True, type=float)
    p_run.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p_run.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_probe(args.lexicon, args.k)
    else:
        result = run(args.workload, args.inputs, args.seconds, bool(args.trace),
                     args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
