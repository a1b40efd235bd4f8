"""Experiment harness: one runner per table / figure / headline claim.

:data:`EXHIBITS` lists them as the report runs them, with their
arguments and verdicts (:mod:`repro.experiments.exhibits`).
"""

from .fitting import GrowthFit, fit_growth, GROWTH_MODELS
from .table1 import Table1Row, Table1Result, run_table1, DEFAULT_SIZES
from .logstar_sweep import (
    LogStarSweepPoint,
    LogStarSweepResult,
    run_logstar_sweep,
    DEFAULT_ID_BITS,
)
from .speedup_figures import (
    SpeedupFigureRow,
    SpeedupFiguresResult,
    run_speedup_figures,
    default_seeds,
)
from .pstar_theorem4 import (
    PStarUpperPoint,
    Lemma18Witness,
    Theorem4Result,
    run_theorem4,
)
from .classification import (
    ClassRow,
    ClassificationResult,
    run_classification,
)
from .lemma2_experiment import (
    plant_distance_k_weak_coloring,
    Lemma2Point,
    Lemma2Result,
    run_lemma2,
)
from .claim10_experiment import Claim10Point, Claim10Result, run_claim10
from .recurrence_experiment import RecurrenceResult, run_recurrence_experiment
from .linial_experiment import LinialPoint, LinialResult, run_linial_experiment
from .cycle_trichotomy import (
    TrichotomyRow,
    CycleTrichotomyResult,
    run_cycle_trichotomy,
)
from .global_failure import (
    GlobalFailurePoint,
    GlobalFailureResult,
    run_global_failure,
)
from .exhibits import EXHIBITS, Exhibit

__all__ = [
    "GrowthFit",
    "fit_growth",
    "GROWTH_MODELS",
    "Table1Row",
    "Table1Result",
    "run_table1",
    "DEFAULT_SIZES",
    "LogStarSweepPoint",
    "LogStarSweepResult",
    "run_logstar_sweep",
    "DEFAULT_ID_BITS",
    "SpeedupFigureRow",
    "SpeedupFiguresResult",
    "run_speedup_figures",
    "default_seeds",
    "PStarUpperPoint",
    "Lemma18Witness",
    "Theorem4Result",
    "run_theorem4",
    "ClassRow",
    "ClassificationResult",
    "run_classification",
    "plant_distance_k_weak_coloring",
    "Lemma2Point",
    "Lemma2Result",
    "run_lemma2",
    "Claim10Point",
    "Claim10Result",
    "run_claim10",
    "RecurrenceResult",
    "run_recurrence_experiment",
    "LinialPoint",
    "LinialResult",
    "run_linial_experiment",
    "TrichotomyRow",
    "CycleTrichotomyResult",
    "run_cycle_trichotomy",
    "GlobalFailurePoint",
    "GlobalFailureResult",
    "run_global_failure",
    "EXHIBITS",
    "Exhibit",
]
