"""The synchronous LOCAL execution entry points.

:func:`run_local` executes a :class:`~repro.local_model.algorithm.LocalAlgorithm`
(message passing) or a :class:`~repro.local_model.algorithm.ViewAlgorithm`
(mapping from radius-T views) on a port-numbered graph and reports every
node's output together with the exact round each node halted in.

Faithfulness guarantees:

* nodes exchange messages only along edges, one message per port per
  round, delivered synchronously;
* a node that has halted is silent from the next round on;
* per-node randomness is private and derived from independent streams;
* deterministic runs poison the RNG so accidental randomness raises.

Both functions are adapters over the engine seam: the loops themselves
live in :class:`repro.core.direct.DirectEngine`, and these entry points
keep their historical signatures and result types on top of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from ..instrumentation.tracer import Tracer
from .algorithm import LocalAlgorithm, ViewAlgorithm

__all__ = ["ExecutionResult", "run_local", "run_view_algorithm"]


@dataclass
class ExecutionResult:
    """Outcome of a LOCAL execution.

    Attributes
    ----------
    outputs:
        ``outputs[v]`` is node ``v``'s committed output (``UNSET`` if the
        node never produced one).
    halt_rounds:
        ``halt_rounds[v]`` is the round in which node ``v`` halted
        (0 means it halted before any communication); ``None`` if the
        node was still running when the engine stopped.
    rounds:
        Total rounds executed — the algorithm's running time, i.e. the
        maximum halting round.
    """

    outputs: List[Any]
    halt_rounds: List[Optional[int]]
    rounds: int

    def labeling(self) -> Dict[int, Any]:
        """Outputs as a ``{node: label}`` dict (UNSET entries included)."""
        return dict(enumerate(self.outputs))

    def all_halted(self) -> bool:
        """Whether every node halted before the engine gave up."""
        return all(r is not None for r in self.halt_rounds)


def run_local(
    graph: Graph,
    algorithm: LocalAlgorithm,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
    rng: Optional[random.Random] = None,
    deterministic: bool = False,
    max_rounds: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> ExecutionResult:
    """Run a message-passing algorithm to completion.

    Parameters
    ----------
    graph:
        The network.
    algorithm:
        A stateless :class:`LocalAlgorithm`; per-node state lives in the
        node contexts.
    ids:
        Unique identifiers per node, or ``None`` for an anonymous run.
    inputs:
        Per-node LCL input labels, or ``None``.
    orientation:
        Consistent orientation; if given, every context exposes
        ``port_directions``.
    rng:
        Seed source for the per-node private random streams.
    deterministic:
        If true, node RNGs raise when touched.
    max_rounds:
        Safety valve; defaults to ``4 * n + 16`` (any LOCAL problem is
        solvable in ``O(n)`` rounds, so a correct algorithm that exceeds
        this on a connected graph is looping).
    tracer:
        Optional :class:`~repro.instrumentation.Tracer` observing the
        run (rounds, messages, halts).  ``None`` / ``NullTracer`` cost
        nothing; tracers never alter the execution or its result.

    Raises
    ------
    RuntimeError
        If ``max_rounds`` elapses with nodes still running.
    """
    # Imported here, not at module scope: the core package imports
    # sibling local_model modules, so the reverse edge stays lazy.
    from ..core.direct import DirectEngine
    from ..core.engine import SimRequest

    report = DirectEngine().run(
        SimRequest(
            kind="local",
            graph=graph,
            algorithm=algorithm,
            ids=ids,
            inputs=inputs,
            orientation=orientation,
            rng=rng,
            deterministic=deterministic,
            max_rounds=max_rounds,
        ),
        tracer=tracer,
    )
    return report.to_execution_result()


def run_view_algorithm(
    graph: Graph,
    algorithm: ViewAlgorithm,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
    tracer: Optional[Tracer] = None,
) -> ExecutionResult:
    """Run a view-style T-round algorithm (Section 2.1's functional form).

    Every node's output is ``algorithm.output(B_T(v))``; the running time
    is ``T = algorithm.radius`` by definition.  An optional ``tracer``
    observes one ``view`` event per materialized ball (the view
    engine's bandwidth analogue).
    """
    from ..core.direct import DirectEngine
    from ..core.engine import SimRequest

    report = DirectEngine().run(
        SimRequest(
            kind="view",
            graph=graph,
            algorithm=algorithm,
            ids=ids,
            inputs=inputs,
            randomness=randomness,
            orientation=orientation,
        ),
        tracer=tracer,
    )
    return report.to_execution_result()
