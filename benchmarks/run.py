"""The wolofspell benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from the
seed (benchmarks/inputs.py, in its own process, so the generator's memory is
not counted), times set-up in fresh processes, runs the workload in another
fresh process (benchmarks/workload.py), checks its outputs, and prints every
metric by name with its unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
METRICS.md explains every name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("clean_text", "dirty_text", "eval_corpus", "cli_cold_start")

# Fresh-process set-up probes per run; setup_s is their median.  Half run
# before the workload and half after it, so that the probes sample the host
# over the whole run rather than over the few seconds before it.
SETUP_REPEATS = {"full": 21, "tiny": 2}

# What the generic end-to-end names mean on each workload.
ALIASES = {
    "clean_text": ("tokens_per_s", "line_ms_p50", "line_ms_tail"),
    "dirty_text": ("tokens_per_s", "line_ms_p50", "line_ms_tail"),
    "eval_corpus": ("entries_per_s", "batch_ms_p50", "batch_ms_tail"),
    "cli_cold_start": ("processes_per_s", "cold_start_ms_p50", "cold_start_ms_tail"),
}


def child(args: list[str], timeout: float):
    """Run a benchmark script in a fresh interpreter on this checkout and
    return the JSON object its last line of output holds, if any."""
    from workload import child_env

    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, encoding="utf-8", timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{Path(args[0]).name} exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def setup_probes(lexicon: Path, k: int, repeats: int) -> list[dict]:
    return [child([str(HERE / "workload.py"), "setup", str(lexicon), str(k)],
                  timeout=60)
            for _ in range(repeats)]


def setup(probes: list[dict]) -> dict:
    return {"setup_s": statistics.median(p["setup_s"] for p in probes),
            "lexicon.build_s": statistics.median(p["load_s"] for p in probes),
            "lexicon.trie_nodes": probes[0]["trie_nodes"]}


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<34} {value!r:>24} {unit:<6} {note}".rstrip())


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    from workload import K  # imports the package, so only after main's check

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        child([str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
               "--out", str(work), "--scale", scale], timeout=120)
        probe_args = (work / "lexicon.txt", K[workload])
        repeats = SETUP_REPEATS[scale]
        probes = setup_probes(*probe_args, repeats // 2)
        result = child([str(HERE / "workload.py"), "run", "--workload", workload,
                        "--inputs", str(work), "--seconds", str(seconds),
                        "--trace", str(int(trace)), "--seed", str(seed)],
                       timeout=150)
        built = setup(probes + setup_probes(*probe_args, repeats - repeats // 2))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for key, value in result["properties"].items():
        show(f"input.{key}", value, "")
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        values = dict(result["per_layer"], **{k: built[k] for k in
                                               ("lexicon.build_s", "lexicon.trie_nodes")})
        suggest_tail = values.pop("suggest.call_ms_tail_percentile")
        metrics = {}
        for m in spec["per_layer"]:
            note = f"(p{suggest_tail:g})" if m["name"] == "suggest.call_ms_tail" else ""
            show(m["name"], values[m["name"]], m["unit"], note)
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        e2e = dict(result["end_to_end"], setup_s=built["setup_s"])
        alias = dict(zip(("items_per_s", "latency_ms_p50", "latency_ms_tail"),
                         ALIASES[workload]))
        tail_note = (f"(p{e2e['tail_percentile']:g} of {e2e['samples']} samples, "
                     f"{e2e['tail_beyond']} beyond)")
        metrics = {}
        for m in spec["end_to_end"]:
            label = alias.get(m["name"], m["name"])
            note = tail_note if m["name"] == "latency_ms_tail" else ""
            show(label, e2e[m["name"]], m["unit"], note)
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
        if e2e["tail_beyond"] < 10:
            print(f"warning: only {e2e['tail_beyond']} samples beyond the tail percentile")
    show("failed_share", failed / attempted, "ratio", f"({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one wolofspell benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input pool size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "wolofspell" / "__init__.py").is_file():
        print(f"error: no wolofspell package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.scale)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
