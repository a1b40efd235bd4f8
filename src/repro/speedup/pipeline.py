"""The full speedup pipeline: iterate Lemmas 7 and 8 down to zero rounds.

Starting from any t-round weak-coloring node algorithm, alternate the
two speedup transformations; each node->edge->node round trip costs one
round of radius and squares-and-exponentiates the nominal palette,
while the local failure probability degrades within the lemma bounds.
Claim 11's recurrence is this pipeline run symbolically; here it runs
*concretely*, with exact rational failure probabilities wherever
enumeration is feasible.

The records returned expose, per stage: kind, radius, nominal palette,
threshold used, measured failure, and the failure bound predicted by
the lemma from the previous stage — so tests and benches can assert
``measured <= bound`` mechanically (Figures 1 and 2 made quantitative).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from ..analysis.towers import TowerNumber
from ..core.engine import derive_seed
from ..instrumentation.tracer import Tracer, effective_tracer

from .algorithms import NodeAlgorithm
from .failure import FailureEstimate, edge_local_failure, node_local_failure
from .transform import (
    first_lemma_bound,
    first_speedup,
    paper_threshold_first,
    paper_threshold_second,
    second_lemma_bound,
    second_speedup,
)

__all__ = ["PipelineStage", "SpeedupPipelineResult", "run_speedup_pipeline"]


@dataclass
class PipelineStage:
    """One rung of the speedup ladder."""

    kind: str  # "node" or "edge"
    radius: int  # node radius t, or edge endpoint-ball radius r
    nominal_palette: TowerNumber
    measured_failure: FailureEstimate
    lemma_bound: Optional[float]  # bound implied by the previous stage, if any
    threshold: Optional[Fraction]  # threshold used to *construct* this stage
    name: str

    def bound_satisfied(self) -> Optional[bool]:
        """Whether measured failure respects the lemma bound (None if no bound)."""
        if self.lemma_bound is None:
            return None
        return self.measured_failure.as_float() <= self.lemma_bound + 1e-12


@dataclass
class SpeedupPipelineResult:
    """The whole ladder, top (slow, few colors) to bottom (0 rounds)."""

    stages: List[PipelineStage] = field(default_factory=list)

    def final_failure(self) -> float:
        """Failure probability of the 0-round endpoint."""
        return self.stages[-1].measured_failure.as_float()

    def all_bounds_hold(self) -> bool:
        """Whether every stage respects its lemma bound."""
        return all(s.bound_satisfied() is not False for s in self.stages)


def run_speedup_pipeline(
    start: NodeAlgorithm,
    method: str = "auto",
    samples: int = 100_000,
    threshold_override: Optional[Fraction] = None,
    tracer: Optional[Tracer] = None,
    base_seed: int = 0,
) -> SpeedupPipelineResult:
    """Iterate first/second speedup until the node radius hits zero.

    Parameters
    ----------
    start:
        A node algorithm with radius >= 1.
    method:
        Failure evaluation method (``auto`` / ``exact`` / ``monte_carlo``).
    samples:
        Monte Carlo budget when sampling is needed.
    threshold_override:
        Fix the frequency threshold ``f`` for every transformation
        instead of the paper's per-stage optimizing choice — the knob
        the ablation bench sweeps.
    tracer:
        Optional :class:`~repro.instrumentation.Tracer`; sees one
        :meth:`~repro.instrumentation.Tracer.on_stage` per ladder rung
        (kind, radius, measured failure, lemma bound).
    base_seed:
        Base seed for Monte Carlo stages; each stage's rng is derived
        via :func:`repro.core.derive_seed` labeled by the stage index
        and algorithm name, so stage estimates are independent and the
        whole ladder is reproducible from one integer.  Ignored when
        every stage evaluates exactly.
    """
    tracer = effective_tracer(tracer)
    if tracer is not None:
        tracer.on_run_start("pipeline", start.name, start.t)

    def stage_rng(index: int, name: str) -> random.Random:
        return random.Random(derive_seed(base_seed, f"pipeline:{index}:{name}"))

    def note(stage: PipelineStage) -> None:
        if tracer is not None:
            tracer.on_stage(
                stage.kind,
                stage.radius,
                {
                    "name": stage.name,
                    "measured_failure": stage.measured_failure.as_float(),
                    "lemma_bound": stage.lemma_bound,
                    "threshold": None if stage.threshold is None else float(stage.threshold),
                },
            )

    result = SpeedupPipelineResult()
    node = start
    p = node_local_failure(node, method=method, samples=samples,
                           rng=stage_rng(0, node.name))
    result.stages.append(
        PipelineStage(
            kind="node",
            radius=node.t,
            nominal_palette=node.palette,
            measured_failure=p,
            lemma_bound=None,
            threshold=None,
            name=node.name,
        )
    )
    note(result.stages[-1])

    while node.t >= 1:
        delta = node.delta
        c = node.palette
        p_val = p.as_float()
        f1 = threshold_override or paper_threshold_first(p_val, c, delta)
        edge = first_speedup(node, f1)
        p_edge = edge_local_failure(edge, method=method, samples=samples,
                                    rng=stage_rng(len(result.stages), edge.name))
        result.stages.append(
            PipelineStage(
                kind="edge",
                radius=edge.r,
                nominal_palette=edge.palette,
                measured_failure=p_edge,
                lemma_bound=first_lemma_bound(p_val, c, delta),
                threshold=f1,
                name=edge.name,
            )
        )
        note(result.stages[-1])

        c_edge = edge.palette
        p_edge_val = p_edge.as_float()
        f2 = threshold_override or paper_threshold_second(p_edge_val, c_edge, delta)
        node = second_speedup(edge, f2)
        p = node_local_failure(node, method=method, samples=samples,
                               rng=stage_rng(len(result.stages), node.name))
        result.stages.append(
            PipelineStage(
                kind="node",
                radius=node.t,
                nominal_palette=node.palette,
                measured_failure=p,
                lemma_bound=second_lemma_bound(p_edge_val, c_edge, delta),
                threshold=f2,
                name=node.name,
            )
        )
        note(result.stages[-1])

    if tracer is not None:
        tracer.on_run_end(len(result.stages))
    return result
