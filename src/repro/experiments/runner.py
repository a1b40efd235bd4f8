"""Parallel experiment runner: fan independent cells out over processes.

The legacy report (``python -m repro.experiments`` with no flags) runs
every experiment serially in one process.  This module decomposes the
same workload into independent *cells* — one (experiment × parameters ×
seed) unit each — and executes them with :mod:`multiprocessing`, one
JSON artifact per cell, so that

* multi-core machines regenerate the paper in wall-clock time bounded
  by the slowest single cell rather than the sum of all of them;
* every cell leaves a structured, diffable artifact (verdict, metrics,
  timings) instead of a line of stdout — the raw material for
  regression tracking across PRs;
* instrumented algorithm cells (driven by
  :class:`~repro.instrumentation.MetricsTracer`) report message counts,
  bandwidth, and halt histograms alongside the verdicts.

Two cell kinds exist:

``local-algorithm``
    Run one message-passing :class:`~repro.local_model.LocalAlgorithm`
    on one generated graph under one derived seed, verify the output
    with the matching LCL verifier, and attach the full
    :class:`~repro.instrumentation.RunMetrics` report.

``report``
    Wrap one of the classic experiment runners (Table 1, the log\\*
    sweep, Claims 10-12, ...) and record its verdict — the parallel
    equivalent of one section of the legacy report.

Component names resolve through :mod:`repro.core.registry`: graph
families via :data:`~repro.core.registry.GRAPH_FAMILIES`, algorithms
via :data:`~repro.core.registry.ALGORITHMS` (whose
``solves`` metadata names the matching LCL problem in
:data:`~repro.core.registry.PROBLEMS`), and the classic report specs via
:data:`~repro.core.registry.REPORTS` — registered below, next to
nothing: one decorator at each definition site replaces the string
dispatch that used to live here.

Determinism: each cell's seed is derived as
``sha256(f"{base_seed}:{cell_id}")`` — the system-wide scheme of
:func:`repro.core.engine.derive_seed` — so results are independent of
``--jobs``, scheduling order, and which other cells exist.

Artifact schema: see ``docs/OBSERVABILITY.md`` (``repro.experiment-cell/1``).
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import random
import re
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.engine import derive_seed
from ..core.registry import (
    ALGORITHMS,
    PROBLEMS,
    REPORTS,
    build_graph,
    ensure_builtins,
)
from ..graphs.identifiers import random_permutation_ids
from ..instrumentation import MetricsTracer
from ..local_model.network import run_local

__all__ = [
    "ARTIFACT_SCHEMA",
    "ExperimentCell",
    "CellResult",
    "RunnerSummary",
    "derive_cell_seed",
    "execute_cell",
    "run_cells",
    "default_plan",
]

#: Version tag embedded in every artifact.
ARTIFACT_SCHEMA = "repro.experiment-cell/1"


def derive_cell_seed(base_seed: int, cell_id: str) -> int:
    """Deterministic 64-bit seed for one cell.

    Stable across processes, job counts, and plan composition: it
    depends only on the base seed and the cell's identity.  Delegates to
    :func:`repro.core.engine.derive_seed`, the one seed-derivation
    scheme in the system.
    """
    return derive_seed(base_seed, cell_id)


@dataclass(frozen=True)
class ExperimentCell:
    """One independently executable unit of the experiment plan."""

    cell_id: str
    experiment: str  # group label ("table1", "local-luby-mis", ...)
    kind: str  # "local-algorithm" | "report"
    params: Dict[str, Any] = field(default_factory=dict)
    base_seed: int = 0

    @property
    def seed(self) -> int:
        return derive_cell_seed(self.base_seed, self.cell_id)


@dataclass
class CellResult:
    """Outcome of one cell, artifact-shaped."""

    cell: ExperimentCell
    verdict: Optional[bool]
    metrics: Optional[Dict[str, Any]]
    detail: Dict[str, Any]
    wall_seconds: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Verdict true and no error."""
        return self.error is None and bool(self.verdict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "cell_id": self.cell.cell_id,
            "experiment": self.cell.experiment,
            "kind": self.cell.kind,
            "params": self.cell.params,
            "seed": self.cell.seed,
            "verdict": self.verdict,
            "metrics": self.metrics,
            "detail": self.detail,
            "timings": {"wall_seconds": self.wall_seconds},
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# Cell kind: local-algorithm
# ---------------------------------------------------------------------------

def _build_graph(params: Dict[str, Any]):
    """Registry-backed graph construction (see :func:`build_graph`)."""
    return build_graph(params)


def _make_algorithm(name: str):
    """Resolve ``(algorithm, verifier, needs_ids)`` through the registries.

    The algorithm's ``solves`` metadata — ``(problem_name, kwargs)`` —
    names the LCL problem in :data:`PROBLEMS` that judges its output; a
    registered algorithm without one is not runnable as a
    ``local-algorithm`` cell.  Neither is one whose kwargs hold
    ``"auto:..."`` values: those depend on the concrete graph, and a
    cell builds its verifier without looking at the graph.
    """
    ensure_builtins()
    entry = ALGORITHMS.get(name)
    solves = entry.metadata.get("solves")
    if entry.metadata.get("kind") != "local" or solves is None:
        raise ValueError(
            f"algorithm {name!r} is not runnable as a local-algorithm cell "
            f"(kind={entry.metadata.get('kind')!r}, no registered verifier)"
        )
    problem_name, problem_kwargs = solves
    if any(isinstance(v, str) and v.startswith("auto:")
           for v in problem_kwargs.values()):
        raise ValueError(
            f"algorithm {name!r} declares graph-dependent verifier "
            f"parameters ({problem_kwargs}); local-algorithm cells "
            f"only run verifiers with fixed parameters"
        )
    verifier = PROBLEMS.create(problem_name, **problem_kwargs)
    return entry.create(), verifier, entry.metadata.get("needs") == "ids"


def _run_local_algorithm_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    graph = _build_graph(params)
    algorithm, verifier, needs_ids = _make_algorithm(params["algorithm"])
    rng = random.Random(seed)
    ids = random_permutation_ids(graph, rng) if needs_ids else None
    tracer = MetricsTracer(per_round=params.get("per_round", True))
    result = run_local(graph, algorithm, ids=ids, rng=rng, tracer=tracer)
    verdict = result.all_halted() and verifier.is_feasible(graph, result.outputs)
    return {
        "verdict": verdict,
        "metrics": tracer.report(),
        "detail": {
            "n": graph.n,
            "m": graph.m,
            "rounds": result.rounds,
            "all_halted": result.all_halted(),
            "verifier": verifier.name,
        },
    }


# ---------------------------------------------------------------------------
# Cell kind: report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ReportSpec:
    fn: Callable[..., Any]
    verdict: Callable[[Any], bool]
    detail: Optional[Callable[[Any], Dict[str, Any]]] = None


def _register_report(
    name: str,
    runner_attr: str,
    verdict: Callable[[Any], bool],
    detail: Optional[Callable[[Any], Dict[str, Any]]] = None,
    description: str = "",
) -> None:
    """Register one classic report spec in :data:`REPORTS`.

    The factory resolves the experiment function lazily (it lives on the
    :mod:`repro.experiments` package), so registration — which happens
    when this module is imported, including from ``ensure_builtins`` —
    never pays for the heavy experiment modules.
    """

    def factory() -> _ReportSpec:
        experiments = importlib.import_module("repro.experiments")
        return _ReportSpec(getattr(experiments, runner_attr), verdict, detail)

    REPORTS.add(name, factory, runner=runner_attr, description=description)


_register_report(
    "table1", "run_table1",
    lambda r: all(row.all_verified for row in r.rows),
    lambda r: {"rounds": {row.example: row.measurements for row in r.rows}},
    description="Table 1: homogeneous LCL complexities",
)
_register_report(
    "logstar-sweep", "run_logstar_sweep",
    lambda r: r.monotone_in_log_star() and all(p.verified for p in r.points),
    lambda r: {"rounds_by_id_bits": dict(r.rounds_series())},
    description="Theta(log* n) identifier-space sweep",
)
_register_report(
    "speedup-figures", "run_speedup_figures",
    lambda r: r.all_bounds_hold(),
    description="Figures 1-2: speedup lemma bounds",
)
_register_report(
    "theorem4", "run_theorem4",
    lambda r: r.all_verified(),
    description="Theorem 4: P* is Theta(log n)",
)
_register_report(
    "classification", "run_classification",
    lambda r: all(row.all_verified for row in r.rows),
    description="Theorem 5: the four-class classification",
)
_register_report(
    "lemma2", "run_lemma2",
    lambda r: r.rounds_are_constant() and all(p.verified for p in r.points),
    lambda r: {"rounds": {p.n: p.rounds for p in r.points}},
    description="Lemma 2: minimality reduction is O(1)",
)
_register_report(
    "claim10", "run_claim10",
    lambda r: r.all_bounds_hold(),
    description="Claim 10: independent executions",
)
_register_report(
    "recurrence", "run_recurrence_experiment",
    lambda r: r.crossover_height == 10,
    description="Claims 11-12 / Theorem 13: the recurrence endgame",
)
_register_report(
    "cycle-trichotomy", "run_cycle_trichotomy",
    lambda r: all(row.all_verified for row in r.rows),
    description="Cycle trichotomy (introduction)",
)
_register_report(
    "linial", "run_linial_experiment",
    lambda r: r.derived_algorithm_valid,
    description="Linial's neighborhood graphs",
)
_register_report(
    "global-failure", "run_global_failure",
    lambda r: r.success_decays(),
    description="Global failure amplification (Claim 10 -> Lemma 9)",
)


def _report_specs() -> Dict[str, _ReportSpec]:
    """All registered report specs, resolved (compatibility helper)."""
    return {name: REPORTS.get(name).create() for name in REPORTS.names()}


def _run_report_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    name = params["report"]
    if name not in REPORTS:
        raise ValueError(f"unknown report {name!r}")
    spec = REPORTS.get(name).create()
    result = spec.fn(**params.get("kwargs", {}))
    detail: Dict[str, Any] = {}
    if spec.detail is not None:
        try:
            detail = spec.detail(result)
        except Exception:  # detail is best-effort decoration, never a verdict
            detail = {}
    return {"verdict": bool(spec.verdict(result)), "metrics": None, "detail": detail}


_CELL_KINDS: Dict[str, Callable[[Dict[str, Any], int], Dict[str, Any]]] = {
    "local-algorithm": _run_local_algorithm_cell,
    "report": _run_report_cell,
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_cell(cell: ExperimentCell) -> CellResult:
    """Run one cell in the current process; never raises."""
    started = time.perf_counter()
    try:
        runner = _CELL_KINDS[cell.kind]
        payload = runner(cell.params, cell.seed)
        return CellResult(
            cell=cell,
            verdict=payload["verdict"],
            metrics=payload.get("metrics"),
            detail=payload.get("detail", {}),
            wall_seconds=time.perf_counter() - started,
        )
    except Exception:
        return CellResult(
            cell=cell,
            verdict=None,
            metrics=None,
            detail={},
            wall_seconds=time.perf_counter() - started,
            error=traceback.format_exc(limit=8),
        )


@dataclass
class RunnerSummary:
    """Aggregate outcome of one plan execution."""

    results: List[CellResult]
    jobs: int
    wall_seconds: float
    artifacts_dir: Optional[str] = None

    @property
    def failed(self) -> List[CellResult]:
        return [r for r in self.results if not r.ok]

    @property
    def exit_code(self) -> int:
        """The CLI exit-code contract: 0 iff every cell passed."""
        return 1 if self.failed else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ARTIFACT_SCHEMA.replace("cell", "summary"),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cells": len(self.results),
            "passed": len(self.results) - len(self.failed),
            "failed": [r.cell.cell_id for r in self.failed],
            "results": [
                {
                    "cell_id": r.cell.cell_id,
                    "experiment": r.cell.experiment,
                    "verdict": r.verdict,
                    "wall_seconds": r.wall_seconds,
                    "error": None if r.error is None else r.error.splitlines()[-1],
                }
                for r in self.results
            ],
        }


_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def _artifact_path(directory: str, cell_id: str) -> str:
    """The artifact file for ``cell_id``, always inside ``directory``.

    Cell ids come from plans, which may embed user-supplied strings
    (``--seed`` labels, custom plan files), so the filename is
    sanitized, never trusted: path separators and other hostile
    characters collapse to ``_``, leading dots are stripped (no hidden
    files, no ``..`` traversal), and the result must still resolve to a
    direct child of ``directory``.
    """
    safe = _SAFE_NAME.sub("_", cell_id).lstrip(".")
    if not safe:
        raise ValueError(f"cell_id {cell_id!r} has no filename-safe characters")
    path = os.path.join(directory, safe + ".json")
    if os.path.dirname(os.path.abspath(path)) != os.path.abspath(directory):
        raise ValueError(f"cell_id {cell_id!r} escapes the artifact directory")
    return path


def write_artifacts(summary: RunnerSummary, directory: str) -> None:
    """One ``<cell_id>.json`` per cell plus ``summary.json``."""
    os.makedirs(directory, exist_ok=True)
    for result in summary.results:
        with open(_artifact_path(directory, result.cell.cell_id), "w",
                  encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(directory, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_cells(
    cells: Sequence[ExperimentCell],
    jobs: int = 1,
    artifacts_dir: Optional[str] = None,
    progress: Optional[Callable[[CellResult], None]] = None,
) -> RunnerSummary:
    """Execute ``cells``, ``jobs`` at a time, and collect artifacts.

    ``jobs=1`` runs in-process (no multiprocessing import cost, easier
    debugging); ``jobs>1`` fans out over a process pool.  Results are
    returned sorted by ``cell_id`` regardless of completion order, so
    the summary is byte-stable across job counts.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ids = [c.cell_id for c in cells]
    if len(set(ids)) != len(ids):
        raise ValueError("cell_ids must be unique within a plan")
    started = time.perf_counter()
    results: List[CellResult] = []
    if jobs == 1 or len(cells) <= 1:
        for cell in cells:
            result = execute_cell(cell)
            results.append(result)
            if progress is not None:
                progress(result)
    else:
        with multiprocessing.Pool(processes=min(jobs, len(cells))) as pool:
            for result in pool.imap_unordered(execute_cell, cells):
                results.append(result)
                if progress is not None:
                    progress(result)
    results.sort(key=lambda r: r.cell.cell_id)
    summary = RunnerSummary(
        results=results,
        jobs=jobs,
        wall_seconds=time.perf_counter() - started,
        artifacts_dir=artifacts_dir,
    )
    if artifacts_dir is not None:
        write_artifacts(summary, artifacts_dir)
    return summary


# ---------------------------------------------------------------------------
# The default plan
# ---------------------------------------------------------------------------

def default_plan(quick: bool = False, base_seed: int = 0) -> List[ExperimentCell]:
    """The standard cell decomposition of ``python -m repro.experiments``.

    Instrumented algorithm cells form a (graph × size × seed ×
    algorithm) grid; report cells carry the classic per-claim verdicts
    with the same parameter choices as the legacy serial report.
    """
    cells: List[ExperimentCell] = []

    def add(cell_id: str, experiment: str, kind: str, params: Dict[str, Any]) -> None:
        cells.append(
            ExperimentCell(
                cell_id=cell_id,
                experiment=experiment,
                kind=kind,
                params=params,
                base_seed=base_seed,
            )
        )

    # -- instrumented algorithm grid ------------------------------------
    if quick:
        graph_specs = [
            ("cycle64", {"graph": "cycle", "n": 64}),
            ("tree3d4", {"graph": "tree", "delta": 3, "depth": 4}),
        ]
        seeds = (0, 1)
    else:
        graph_specs = [
            ("cycle64", {"graph": "cycle", "n": 64}),
            ("cycle256", {"graph": "cycle", "n": 256}),
            ("tree3d4", {"graph": "tree", "delta": 3, "depth": 4}),
            ("tree4d4", {"graph": "tree", "delta": 4, "depth": 4}),
        ]
        seeds = (0, 1, 2)
    for algorithm in ("luby-mis", "randomized-weak-coloring", "flood-leader-parity"):
        for graph_name, graph_params in graph_specs:
            for seed_index in seeds:
                add(
                    f"local-{algorithm}-{graph_name}-s{seed_index}",
                    f"local-{algorithm}",
                    "local-algorithm",
                    {"algorithm": algorithm, "seed_index": seed_index, **graph_params},
                )

    # -- classic report cells (legacy __main__ parameters) ---------------
    sizes = (50, 200, 800) if quick else (50, 200, 800, 3200)
    reports: List[Dict[str, Any]] = [
        {"report": "table1", "kwargs": {"sizes": sizes}},
        {"report": "logstar-sweep",
         "kwargs": {"id_bits": (8, 64, 1024, 16384), "tree_depth": 3}},
        {"report": "speedup-figures", "kwargs": {"method": "exact"}},
        {"report": "theorem4", "kwargs": {"sizes": sizes}},
        {"report": "classification", "kwargs": {"sizes": sizes}},
        {"report": "lemma2", "kwargs": {"sizes": sizes}},
        {"report": "claim10",
         "kwargs": {"depth": 8 if quick else 10, "ts": (1, 2),
                    "seed_radius": 2, "verify_pairwise": quick}},
        {"report": "recurrence", "kwargs": {"heights": (8, 10, 12, 14)}},
        {"report": "cycle-trichotomy",
         "kwargs": {"sizes": (16, 64, 256) if quick else (16, 64, 256, 1024)}},
        {"report": "linial", "kwargs": {"check_threshold": not quick}},
        {"report": "global-failure",
         "kwargs": {"sizes": (3, 6, 9) if quick else (3, 6, 9, 12), "trials": 120}},
    ]
    for params in reports:
        add(f"report-{params['report']}", params["report"], "report", params)

    return cells
