"""repro: a LOCAL-model laboratory for minimal symmetry breaking.

A full reproduction of *"Hardness of Minimal Symmetry Breaking in
Distributed Computing"* (Balliu, Hirvonen, Olivetti, Suomela — PODC
2019): the LOCAL model (node and edge variants), an LCL problem
framework with local verifiers, the paper's constructive algorithms
(Lemma 2's minimality reduction, Lemma 3/17's pointer-problem solvers,
the odd-degree O(1) weak 2-coloring, Cole-Vishkin, Linial coloring), an
executable speedup-simulation engine (Lemmas 7/8/14/15) with exact
failure probabilities, the quantitative lower-bound chain (Claims
10-12, 16; Lemma 9; Theorems 4-6, 13) as executable mathematics, and an
experiment harness regenerating every table and figure.

Quick start::

    from repro.graphs import balanced_regular_tree, sequential_ids
    from repro.algorithms import weak_two_coloring_from_ids
    from repro.lcl import WeakColoring

    tree = balanced_regular_tree(4, depth=5)
    out = weak_two_coloring_from_ids(tree, sequential_ids(tree))
    assert WeakColoring(2).is_feasible(tree, out.labels)
    print(f"weak 2-colored {tree.n} nodes in {out.rounds} rounds")

Subpackages
-----------
``repro.graphs``
    Port-numbered graphs, generators, orientations, identifier schemes.
``repro.local_model``
    The synchronous LOCAL simulator, views, and the edge-centric model.
``repro.instrumentation``
    Tracers and metrics: observe any engine run without perturbing it.
``repro.lcl``
    LCL problems: catalog, the pointer problem P*, homogeneous LCLs.
``repro.algorithms``
    The paper's constructive algorithms and classical baselines.
``repro.speedup``
    The speedup simulation engine — the paper's core contribution.
``repro.analysis``
    Tower arithmetic, recurrences, independence counting.
``repro.experiments``
    Runners regenerating Table 1, Figures 1-2, and the headline claims.
"""

__version__ = "1.0.0"

from . import (
    algorithms,
    analysis,
    experiments,
    graphs,
    instrumentation,
    lcl,
    local_model,
    lowerbounds,
    speedup,
)

__all__ = [
    "algorithms",
    "analysis",
    "experiments",
    "graphs",
    "instrumentation",
    "lcl",
    "local_model",
    "lowerbounds",
    "speedup",
    "__version__",
]
