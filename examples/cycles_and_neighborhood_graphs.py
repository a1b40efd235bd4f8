"""Cycles: the trichotomy and Linial's neighborhood graphs.

The paper's introduction starts from the completely-understood cycle
landscape — every cycle LCL is O(1), Theta(log* n), or Theta(n) — and
from Linial's neighborhood-graph technique.  Both are executable here:

1. the trichotomy, measured on an n-sweep of cycles;
2. the equivalence "t-round c-coloring <=> chi(N_t(m)) <= c", run in
   both directions: exact chromatic numbers of small neighborhood
   graphs, and a 1-round 3-coloring *algorithm extracted from a graph
   coloring* and executed on random cycles;
3. the sharp threshold: N_1(6) is 3-colorable, N_1(7) is not — so one
   round of communication 3-colors cycles with identifiers from {1..6}
   and provably cannot from {1..7}.  (The exhaustive proof takes
   under a second and runs in ``tests/test_linial.py``; pass
   --threshold to run it here.)

Run:  python examples/cycles_and_neighborhood_graphs.py [--threshold]
"""

import random
import sys

from repro.experiments import run_cycle_trichotomy, run_linial_experiment
from repro.graphs import cycle
from repro.lcl import ProperColoring
from repro.lowerbounds import (
    algorithm_from_coloring,
    is_c_colorable,
    neighborhood_graph,
)


def main() -> None:
    check_threshold = "--threshold" in sys.argv

    print("1. the cycle trichotomy")
    print(run_cycle_trichotomy(sizes=(16, 64, 256)).format_table())

    print("\n2. neighborhood graphs, exactly")
    result = run_linial_experiment(check_threshold=check_threshold)
    print(result.format_table())
    print(f"   derived 1-round algorithm valid on random cycles: "
          f"{result.derived_algorithm_valid}")

    print("\n3. an algorithm extracted from a graph coloring")
    graph, windows = neighborhood_graph(6, 1)
    coloring = is_c_colorable(graph, 3)
    algorithm = algorithm_from_coloring(coloring, windows, m=6, t=1)
    rng = random.Random(7)
    ids = rng.sample(range(1, 7), 6)
    out = algorithm.run(ids)
    ok = ProperColoring(3).is_feasible(cycle(6), out)
    print(f"   identifiers {ids} -> colors {out} (proper: {ok})")
    print("   chi(N_0(m)) = m: zero rounds need the whole identifier space;")
    print("   one round collapses it to 3 colors — up to m = 6 and no further.")


if __name__ == "__main__":
    main()
