"""LCL problems: framework, catalog, the pointer problem P*, homogeneous LCLs."""

from .problem import Violation, NodeLCL, EdgeLCL, NodeLabeling, EdgeLabeling
from .catalog import (
    WeakColoring,
    ProperColoring,
    MaximalIndependentSet,
    WeakEdgeColoring,
    SinklessOrientation,
    ProperEdgeColoring,
    MaximalMatching,
)
from .pointer import (
    PStarLabel,
    PStar,
    LowDegreeIrregularity,
    CycleIrregularity,
    Irregularity,
    enumerate_cycles,
    degree_delta_cycles,
    closest_irregularity,
)
from .homogeneous import HomogeneousLabel, HomogeneousLCL, AlwaysAccept

__all__ = [
    "Violation",
    "NodeLCL",
    "EdgeLCL",
    "NodeLabeling",
    "EdgeLabeling",
    "WeakColoring",
    "ProperColoring",
    "MaximalIndependentSet",
    "WeakEdgeColoring",
    "SinklessOrientation",
    "ProperEdgeColoring",
    "MaximalMatching",
    "PStarLabel",
    "PStar",
    "LowDegreeIrregularity",
    "CycleIrregularity",
    "Irregularity",
    "enumerate_cycles",
    "degree_delta_cycles",
    "closest_irregularity",
    "HomogeneousLabel",
    "HomogeneousLCL",
    "AlwaysAccept",
]
