"""Smoke test of the paper benchmark: ``python3 -m pytest paperbench``.

Runs ``paper-quick`` once untraced and once traced (about 6 s) and checks
the benchmark's own contract, not the program's speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "paper_bench.py"), "--workload", "paper-quick",
         "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return out, {run["trace"]: run for run in json.loads(out.read_text())["runs"]}


def test_every_declared_metric_is_emitted_with_its_unit(quick_result):
    _, runs = quick_result
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        emitted = runs[trace]["metrics"]
        assert sorted(emitted) == sorted(m["name"] for m in declared)
        for metric in declared:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
    assert all(runs[0]["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_no_exhibit_fails(quick_result):
    _, runs = quick_result
    for run in runs.values():
        assert run["attempted"] >= 11
        assert run["failed"] == 0 and run["correct"]


def test_every_layer_entry_point_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        for entries in layers.LAYERS.values():
            for entry in entries:
                layers.resolve(entry)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_compare_of_a_run_with_itself_is_within_bound(quick_result):
    out, _ = quick_result
    proc = subprocess.run(
        [sys.executable, str(HERE / "paper_bench.py"), "compare", str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("paper-quick")]
    assert len(rows) == len(SPEC["end_to_end"])
    assert all("within-bound" in row for row in rows)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/paper_bench.py", "--workload", "paper-quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
