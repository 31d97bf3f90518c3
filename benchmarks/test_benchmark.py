"""Tests of the benchmark itself: seeded inputs, output checks, result line.

Run from the repository root: PYTHONPATH=src python -m pytest benchmarks -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workload  # noqa: E402
import wolofspell.pipeline  # noqa: E402
from wolofspell.suggest import Suggestion  # noqa: E402
from wolofspell.translit import transform  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Names the human-readable lines carry on each workload, besides setup_s,
# peak_rss_mb and failed_share.
PRINTED = {
    "clean_text": ("tokens_per_s", "line_ms_p50", "line_ms_tail"),
    "dirty_text": ("tokens_per_s", "line_ms_p50", "line_ms_tail"),
    "eval_corpus": ("entries_per_s", "batch_ms_p50", "batch_ms_tail"),
    "cli_cold_start": ("processes_per_s", "cold_start_ms_p50", "cold_start_ms_tail"),
}


def generate(root: Path, name: str, seed: int) -> Path:
    out = root / f"{name}-{seed}"
    inputs.generate(name, seed, out, scale="tiny")
    return out


def contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def ops_for(name: str) -> int:
    return 2 if name == "cli_cold_start" else 6


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_outputs(tmp_path, name):
    a = generate(tmp_path / "a", name, 7)
    b = generate(tmp_path / "b", name, 7)
    assert contents(a) == contents(b)
    first = workload.run(name, a, 0, False, 7, check_all=True, max_ops=ops_for(name))
    second = workload.run(name, b, 0, False, 7, check_all=True, max_ops=ops_for(name))
    assert first["failed"] == 0
    assert first["digest"] == second["digest"]


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_different_seed_gives_different_inputs(tmp_path, name):
    assert contents(generate(tmp_path, name, 7)) != contents(generate(tmp_path, name, 8))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_tiny_run_passes_and_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, encoding="utf-8", timeout=170)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == wanted
    labels = {line.split()[0] for line in report if line.strip()}
    assert "failed_share" in labels
    if trace:
        assert set(wanted) <= labels
    else:
        assert {"setup_s", "peak_rss_mb", *PRINTED[name]} <= labels


def test_wrong_suggestion_is_counted_as_failed(tmp_path, monkeypatch):
    inputs_dir = generate(tmp_path, "dirty_text", 5)
    with open(inputs_dir / "lines.jsonl", encoding="utf-8") as fh:
        first = next(line for line in map(json.loads, fh) if "m" in line["kinds"])
    misspelt = first["forms"].split()[first["kinds"].index("m")]
    target = transform(misspelt)
    real = wolofspell.pipeline.suggest

    def one_wrong(query, *args, **kwargs):
        found = real(query, *args, **kwargs)
        if query != target:
            return found
        best = found.items[0]
        return dataclasses.replace(found, items=[Suggestion(best.word + "a", best.cost)])

    monkeypatch.setattr(wolofspell.pipeline, "suggest", one_wrong)
    result = workload.run("dirty_text", inputs_dir, 0, False, 5, check_all=True,
                          max_ops=6)
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_setup_probe_loads_lazy_state_without_a_search(tmp_path):
    lexicon = generate(tmp_path, "clean_text", 1) / "lexicon.txt"
    script = (
        "import sys, workload\n"
        "import wolofspell.pipeline as pipeline, wolofspell.translit as translit\n"
        "searches = []\n"
        "pipeline.suggest = lambda *args, **kwargs: searches.append(args)\n"
        "assert translit._DEFAULT is None\n"
        "workload.setup_probe(sys.argv[1], 10)\n"
        "assert translit._DEFAULT is not None, 'transliteration rules not loaded'\n"
        "assert not searches, 'set-up ran a search'\n")
    proc = subprocess.run([sys.executable, "-c", script, str(lexicon)], cwd=HERE,
                          env=workload.child_env(), capture_output=True,
                          encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_bare_benchmark_directory_exits_without_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "benchmarks" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "clean_text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
