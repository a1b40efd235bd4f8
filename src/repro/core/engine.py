"""The engine seam: one request/report pair, one engine.

Every execution model in the repository — message passing
(:func:`~repro.local_model.network.run_local`), node views
(:func:`~repro.local_model.network.run_view_algorithm`), edge views
(:func:`~repro.local_model.edge_model.run_edge_view_algorithm`), and
the oriented finite runner
(:func:`~repro.speedup.finite_runner.run_node_algorithm_on_oriented_graph`)
— is one *kind* of :class:`SimRequest`, and every outcome is one
:class:`SimReport`.  :class:`~repro.core.direct.DirectEngine` maps
requests to reports with one evaluation path per kind.

:func:`simulate` is the facade the rest of the system calls; the legacy
entry points are thin adapters over the engine (their signatures and
semantics are unchanged).  One :class:`~repro.instrumentation.Tracer`
threads through every kind the same way.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..instrumentation.tracer import Tracer

__all__ = [
    "KINDS",
    "SimRequest",
    "SimReport",
    "derive_seed",
    "simulate",
]

#: The four execution models the seam covers.
KINDS = ("local", "view", "edge", "finite")


def derive_seed(base_seed: int, label: str) -> int:
    """Deterministic 64-bit seed for one unit of work.

    The one seed-derivation scheme in the system:
    ``sha256(f"{base_seed}:{label}")``, shared by
    :meth:`SimRequest.resolved_rng` and the speedup pipeline's Monte
    Carlo defaults.  Stable across processes and Python versions.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class SimRequest:
    """One simulation, fully described.

    ``kind`` selects the execution model; the remaining fields are the
    union of what the four models accept (unused fields are ignored by
    the other kinds, mirroring the legacy signatures):

    * ``"local"`` — ``algorithm`` is a
      :class:`~repro.local_model.algorithm.LocalAlgorithm`; honors
      ``rng`` / ``seed`` / ``deterministic`` / ``max_rounds``.
    * ``"view"`` — ``algorithm`` is a
      :class:`~repro.local_model.algorithm.ViewAlgorithm`.
    * ``"edge"`` — ``algorithm`` is an
      :class:`~repro.local_model.edge_model.EdgeViewAlgorithm`.
    * ``"finite"`` — ``algorithm`` is a
      :class:`~repro.speedup.algorithms.NodeAlgorithm`; requires
      ``values`` (per-node random words) or a ``batch`` of them (one
      per-node list per trial), and ``orientation`` unless ``tables``
      (precomputed ball tables) are given.  ``first_failure_only`` stops
      each trial's failure scan at its first failing node.

    ``seed`` is the reproducible alternative to ``rng``: when set (and
    ``rng`` is not), the engine constructs
    ``random.Random(derive_seed(seed, label))``, so a seeded run is
    reproducible from ``(seed, label)`` alone.

    ``ids``, ``inputs`` and ``randomness`` need one entry per node
    wherever the kind reads them; the engine raises ``ValueError``
    otherwise.
    """

    kind: str
    graph: Any
    algorithm: Any
    ids: Optional[Sequence[int]] = None
    inputs: Optional[Sequence[Any]] = None
    randomness: Optional[Sequence[Any]] = None
    orientation: Optional[Any] = None
    # -- "local" kind ---------------------------------------------------
    rng: Optional[random.Random] = None
    seed: Optional[int] = None
    deterministic: bool = False
    max_rounds: Optional[int] = None
    # -- "finite" kind --------------------------------------------------
    values: Optional[Sequence[int]] = None
    batch: Optional[Sequence[Sequence[int]]] = None
    tables: Optional[List[List[int]]] = None
    first_failure_only: bool = False
    # -- bookkeeping ----------------------------------------------------
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r} (have {KINDS})")

    def resolved_rng(self) -> random.Random:
        """The run's master RNG.

        Priority: an explicit ``rng``; else ``seed`` through
        :func:`derive_seed`; else the legacy default ``Random(0)``.
        """
        if self.rng is not None:
            return self.rng
        if self.seed is not None:
            return random.Random(derive_seed(self.seed, self.label))
        return random.Random(0)


@dataclass
class SimReport:
    """One simulation's outcome.

    ``outputs`` is a per-node list for ``local`` / ``view`` / ``finite``
    requests and an ``{edge: label}`` dict for ``edge`` requests.
    ``halt_rounds`` and ``failing_nodes`` are populated by the kinds
    that define them (``None`` elsewhere).  A ``finite`` request with a
    ``batch`` reports one ``outputs`` list and one ``failing_nodes``
    list per trial, in order; a request with ``values`` is the batch of
    one, unwrapped.  :meth:`identity` is the
    comparable core — what the differential suites compare;
    ``backend`` (the engine's name) is a diagnostic.
    """

    kind: str
    outputs: Any
    rounds: int
    halt_rounds: Optional[List[Optional[int]]] = None
    failing_nodes: Optional[List[int]] = None
    backend: str = ""

    def identity(self) -> Tuple[Any, ...]:
        """The bit-comparable result: everything except diagnostics."""
        return (
            self.kind,
            self.outputs,
            self.halt_rounds,
            self.rounds,
            self.failing_nodes,
        )

    def all_halted(self) -> bool:
        """Whether every node halted (vacuously true for view kinds)."""
        if self.halt_rounds is None:
            return True
        return all(r is not None for r in self.halt_rounds)

    # -- legacy adapters ------------------------------------------------
    def to_execution_result(self) -> Any:
        """As a legacy :class:`~repro.local_model.network.ExecutionResult`."""
        from ..local_model.network import ExecutionResult

        if self.kind not in ("local", "view"):
            raise ValueError(f"{self.kind!r} reports have no ExecutionResult form")
        return ExecutionResult(
            outputs=self.outputs,
            halt_rounds=self.halt_rounds,
            rounds=self.rounds,
        )

    def to_edge_result(self) -> Any:
        """As a legacy :class:`~repro.local_model.edge_model.EdgeExecutionResult`."""
        from ..local_model.edge_model import EdgeExecutionResult

        if self.kind != "edge":
            raise ValueError(f"{self.kind!r} reports have no EdgeExecutionResult form")
        return EdgeExecutionResult(outputs=self.outputs, rounds=self.rounds)

    def to_finite_result(self) -> Any:
        """As a legacy :class:`~repro.speedup.finite_runner.FiniteRunResult`."""
        from ..speedup.finite_runner import FiniteRunResult

        if self.kind != "finite":
            raise ValueError(f"{self.kind!r} reports have no FiniteRunResult form")
        return FiniteRunResult(
            outputs=self.outputs, failing_nodes=self.failing_nodes
        )


def simulate(request: SimRequest, tracer: Optional[Tracer] = None) -> SimReport:
    """Run one request on :class:`~repro.core.direct.DirectEngine`.

    The one entry point every call site shares.  ``tracer`` threads
    through unchanged — instrumented runs produce the exact same report
    as uninstrumented ones.  The engine is imported at call time
    because :mod:`repro.core.direct` imports this module.
    """
    from .direct import DirectEngine

    return DirectEngine().run(request, tracer=tracer)
