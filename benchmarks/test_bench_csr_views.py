"""Benchmark regression guard for the batched CSR view core.

Measures what the batched expander actually replaces: *class
detection* — the per-entity ``view_signature`` / ``edge_view_signature``
scan — against the batched
:class:`~repro.local_model.batch_views.BatchBallExpander` partition
over the compiled :class:`~repro.graphs.csr.CSRGraph` arrays, on
Δ ∈ {4, 6} balanced regular trees (n=4373 and n=4687, radius 2).
Asserts

* the headline claim: **>= 2.5x speedup** on both node-class cells —
  the numbers ``docs/PERFORMANCE.md`` quotes;
* no regression: each cell's speedup stays within **2x** of the
  committed baseline (the last entry of
  ``benchmarks/BENCH_csr_views.json``) — a ratio of two timings on the
  same machine, so machine-independent;
* exactness, every repeat: the batched partition is bit-identical to
  the reference-signature partition (same labels, same class count);
* determinism: class counts match the baseline *exactly* — they depend
  only on the graph, never on the machine.

Run with ``BENCH_UPDATE=1`` to append the current measurements as a new
trajectory entry (and commit the json); plain runs never write.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict

import pytest

from repro.graphs import balanced_regular_tree
from repro.local_model.batch_views import BatchBallExpander
from repro.local_model.views import edge_view_signature, view_signature

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_csr_views.json")

#: The measured grid.  Keep keys stable: they index the json trajectory.
#: ``measure`` selects what the cell times: a node or an edge class
#: partition (reference scan vs batched expander).
CONFIGS = {
    "tree-d4-node-classes-r2": {
        "delta": 4, "depth": 7, "radius": 2, "measure": "node-classes",
    },
    "tree-d6-node-classes-r2": {
        "delta": 6, "depth": 5, "radius": 2, "measure": "node-classes",
    },
    "tree-d4-edge-classes-r2": {
        "delta": 4, "depth": 7, "radius": 2, "measure": "edge-classes",
    },
}

#: Cells that must meet the headline >= 2.5x bar (class detection on
#: both regular-tree sizes — the tentpole's acceptance criterion).
HEADLINE_MIN_SPEEDUP = 2.5
HEADLINE_CONFIGS = ("tree-d4-node-classes-r2", "tree-d6-node-classes-r2")

#: Regression tolerance against the committed baseline speedup.
BASELINE_TOLERANCE = 2.0

_REPEATS = 5


def _assert_partition_exact(part, signatures) -> int:
    """Batched partition == reference partition; returns class count."""
    sig_label: Dict[Any, int] = {}
    labels = []
    for sig in signatures:
        labels.append(sig_label.setdefault(sig, len(sig_label)))
    assert part.path == "numpy"  # the cell must measure the fast path
    assert list(part.labels) == labels
    assert part.class_count == len(sig_label)
    return part.class_count


def _measure_node_classes(graph, radius: int) -> Dict[str, Any]:
    # One expander for all repeats, exactly like ``expander_for``
    # (which caches it on the graph's CSRGraph).
    expander = BatchBallExpander(graph)
    ref_times, csr_times = [], []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        signatures = [
            view_signature(graph, v, radius) for v in graph.nodes()
        ]
        ref_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        part = expander.node_classes(radius)
        csr_times.append(time.perf_counter() - start)
        classes = _assert_partition_exact(part, signatures)
    return _cell(graph, ref_times, csr_times, classes)


def _measure_edge_classes(graph, radius: int) -> Dict[str, Any]:
    edges = list(graph.edges())
    expander = BatchBallExpander(graph)
    ref_times, csr_times = [], []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        signatures = [
            edge_view_signature(graph, e, radius) for e in edges
        ]
        ref_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        part = expander.edge_classes(edges, radius)
        csr_times.append(time.perf_counter() - start)
        classes = _assert_partition_exact(part, signatures)
    return _cell(graph, ref_times, csr_times, classes)


_MEASURES = {
    "node-classes": _measure_node_classes,
    "edge-classes": _measure_edge_classes,
}


def _cell(graph, ref_times, csr_times, classes: int) -> Dict[str, Any]:
    ref_s, csr_s = min(ref_times), min(csr_times)
    return {
        "n": graph.n,
        "reference_seconds": round(ref_s, 6),
        "csr_seconds": round(csr_s, 6),
        "speedup": round(ref_s / csr_s, 3),
        "distinct_classes": classes,
    }


def _measure(config: Dict[str, Any]) -> Dict[str, Any]:
    graph = balanced_regular_tree(config["delta"], config["depth"])
    # Untimed warmup: build the CSR arrays and the expander's block
    # buffers, and let the CPU leave its idle frequency state — the
    # first seconds of a fresh process time everything ~20% slow.
    for v in range(0, graph.n, 7):
        view_signature(graph, v, config["radius"])
    BatchBallExpander(graph).node_classes(config["radius"])
    return _MEASURES[config["measure"]](graph, config["radius"])


def _load_bench() -> Dict[str, Any]:
    with open(BENCH_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _baseline() -> Dict[str, Any]:
    """The most recent committed trajectory entry."""
    return _load_bench()["trajectory"][-1]["results"]


@pytest.fixture(scope="module")
def measurements() -> Dict[str, Dict[str, Any]]:
    results = {name: _measure(config) for name, config in CONFIGS.items()}
    if os.environ.get("BENCH_UPDATE") == "1":
        data = _load_bench()
        data["trajectory"].append(
            {"entry": len(data["trajectory"]) + 1, "results": results}
        )
        with open(BENCH_PATH, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results


def test_baseline_file_is_committed():
    data = _load_bench()
    assert data["schema"] == "repro.bench-csr-views/1"
    assert data["trajectory"], "baseline trajectory must not be empty"
    assert set(_baseline()) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(HEADLINE_CONFIGS))
def test_headline_speedup_on_class_detection(measurements, name):
    result = measurements[name]
    assert result["n"] >= 2000
    assert result["speedup"] >= HEADLINE_MIN_SPEEDUP, (
        f"{name}: batched expander is only {result['speedup']}x faster "
        f"(need >= {HEADLINE_MIN_SPEEDUP}x)"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_speedup_within_tolerance_of_baseline(measurements, name):
    baseline = _baseline()[name]
    current = measurements[name]
    floor = baseline["speedup"] / BASELINE_TOLERANCE
    assert current["speedup"] >= floor, (
        f"{name}: speedup regressed to {current['speedup']}x, more than "
        f"{BASELINE_TOLERANCE}x below the committed {baseline['speedup']}x"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_class_counts_are_deterministic(measurements, name):
    # Class counts are functions of the graph alone.
    baseline = _baseline()[name]
    current = measurements[name]
    assert current["n"] == baseline["n"]
    assert current["distinct_classes"] == baseline["distinct_classes"]
