"""Claims 11-12, Lemma 9, Theorem 13: the quantitative chain, evaluated.

Three exhibits:

1. **Palette towers** (Claim 11's setting): the nominal palettes the
   downward walk needs, per round budget ``t`` and degree ``Delta`` —
   tower-represented because they dwarf floats after two steps.
2. **Failure floors** (Claims 11/16): ``(p0 / ((Delta+1) c0))^{(Delta+1)^{2t+1}}``
   in log2 space, swept over ``t`` and Delta.
3. **The endgame** (Claim 12 + Lemma 9 + Theorem 13): at
   ``n = 2 ↑↑ h`` the global success ceiling drops below 1/2 exactly
   once the asymptotic regime opens (``log* n >= 2(b + 4)``), which the
   evaluator certifies with tower arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..analysis.recurrence import (
    Lemma9Evaluation,
    claim11_failure_floor_log2,
    lemma9_evaluate,
    palette_trajectory,
    theorem13_crossover_height,
)
from ..analysis.towers import tower

__all__ = ["RecurrenceResult", "run_recurrence_experiment"]


@dataclass
class RecurrenceResult:
    """All three exhibits."""

    palette_rows: List[dict] = field(default_factory=list)
    floor_rows: List[dict] = field(default_factory=list)
    endgame_rows: List[dict] = field(default_factory=list)
    crossover_height: int = 0

    def format_table(self) -> str:
        lines = ["palette towers (c_0 per t, Delta):"]
        for row in self.palette_rows:
            lines.append(
                f"  t={row['t']} Delta={row['delta']}: c_0 = {row['c0']!r} "
                f"(log* = {row['c0_log_star']})"
            )
        lines.append("failure floors (log2 p_t):")
        for row in self.floor_rows:
            lines.append(
                f"  t={row['t']} Delta={row['delta']}: log2 floor = {row['floor_log2']:.4g}"
            )
        lines.append("endgame (n = 2^^h):")
        for row in self.endgame_rows:
            lines.append(
                f"  h={row['h']}: t={row['t']} regime={row['regime']} "
                f"below_half={row['below_half']}"
            )
        lines.append(f"Theorem 13 crossover at tower height {self.crossover_height}")
        return "\n".join(lines)


def run_recurrence_experiment(
    ts: Sequence[int] = (1, 2, 3, 4),
    deltas: Sequence[int] = (4, 6, 8),
    heights: Sequence[int] = (6, 8, 10, 12, 14, 16),
    b: int = 1,
) -> RecurrenceResult:
    """Evaluate the whole quantitative chain."""
    result = RecurrenceResult()
    for delta in deltas:
        for t in ts:
            c0 = palette_trajectory(t, delta)[-1]
            result.palette_rows.append(
                {"t": t, "delta": delta, "c0": c0, "c0_log_star": c0.log_star()}
            )
            # A representative calibration: p0 at the uniform floor of a
            # moderate palette (c0 capped for the float computation).
            c0_log2_capped = min(c0.log2().to_float(), 1e6)
            p0_log2 = -delta * c0_log2_capped  # uniform-guess floor
            result.floor_rows.append(
                {
                    "t": t,
                    "delta": delta,
                    "floor_log2": claim11_failure_floor_log2(
                        p0_log2, c0_log2_capped, t, delta
                    ),
                }
            )
    for h in heights:
        evaluation: Lemma9Evaluation = lemma9_evaluate(tower(h), b)
        result.endgame_rows.append(
            {
                "h": h,
                "t": evaluation.t,
                "regime": evaluation.regime_reached,
                "below_half": evaluation.below_half,
            }
        )
    result.crossover_height = theorem13_crossover_height(b)
    return result
