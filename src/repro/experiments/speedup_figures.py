"""Figures 1 and 2, made quantitative.

The paper's two figures illustrate the speedup lemmas' simulations; the
reproducible content is the *inequalities* they prove:

* Figure 1 / Lemma 7 (general: Lemma 14): from a node algorithm with
  failure ``p`` and palette ``c``, the constructed edge algorithm's
  failure obeys ``p' <= (Delta+1) p^{1/(Delta+1)} c^{Delta/(Delta+1)}``;
* Figure 2 / Lemma 8 (general: Lemma 15): from an edge algorithm, the
  constructed node algorithm obeys ``p' <= Delta p^{1/Delta} c^{1-1/Delta}``.

:func:`run_speedup_figures` executes the transformations on a battery
of seed algorithms with *exact* failure probabilities and reports the
measured / bound pairs, plus the palette blow-up trajectory (the other
quantity the figures depict).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..speedup.algorithms import (
    NodeAlgorithm,
    local_maximum_coloring,
    smaller_count_coloring,
)
from ..speedup.pipeline import SpeedupPipelineResult, run_speedup_pipeline

__all__ = ["SpeedupFigureRow", "SpeedupFiguresResult", "run_speedup_figures", "default_seeds"]


@dataclass
class SpeedupFigureRow:
    """One seed algorithm's trip through the pipeline."""

    seed_name: str
    k: int
    stages: List[dict] = field(default_factory=list)
    bounds_hold: bool = True
    final_failure: float = 0.0
    final_palette_nominal: object = None


@dataclass
class SpeedupFiguresResult:
    """All seeds."""

    rows: List[SpeedupFigureRow] = field(default_factory=list)

    def all_bounds_hold(self) -> bool:
        return all(r.bounds_hold for r in self.rows)

    def format_table(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(f"seed={row.seed_name} (k={row.k}):")
            for s in row.stages:
                bound = "-" if s["bound"] is None else f"{s['bound']:.4g}"
                lines.append(
                    f"  {s['kind']:4s} radius={s['radius']} "
                    f"palette=2^{s['palette_log2']:.6g} "
                    f"p={s['failure']:.6g} bound={bound} exact={s['exact']}"
                )
        return "\n".join(lines)


def default_seeds(k: int = 2) -> List[NodeAlgorithm]:
    """The seed battery: different palettes and failure regimes."""
    return [
        local_maximum_coloring(k, bits=1),
        local_maximum_coloring(k, bits=2),
        smaller_count_coloring(k, bits=1),
        smaller_count_coloring(k, bits=2),
    ]


def run_speedup_figures(
    seeds: Optional[Sequence[NodeAlgorithm]] = None,
    method: str = "auto",
    samples: int = 50_000,
) -> SpeedupFiguresResult:
    """Run the pipeline for every seed and collect stage tables."""
    if seeds is None:
        seeds = default_seeds(2)
    result = SpeedupFiguresResult()
    for seed in seeds:
        pipeline: SpeedupPipelineResult = run_speedup_pipeline(
            seed, method=method, samples=samples
        )
        row = SpeedupFigureRow(seed_name=seed.name, k=seed.k)
        for stage in pipeline.stages:
            row.stages.append(
                {
                    "kind": stage.kind,
                    "radius": stage.radius,
                    "palette_log2": stage.nominal_palette.log2().to_float(),
                    "failure": stage.measured_failure.as_float(),
                    "bound": stage.lemma_bound,
                    "exact": stage.measured_failure.exact,
                }
            )
            if stage.bound_satisfied() is False:
                row.bounds_hold = False
        row.final_failure = pipeline.final_failure()
        row.final_palette_nominal = pipeline.stages[-1].nominal_palette
        result.rows.append(row)
    return result
