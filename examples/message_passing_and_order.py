"""The operational LOCAL model: message passing and order invariance.

Two vignettes:

1. The same problems solved twice — functionally (views) and
   operationally (synchronous message passing) — with matching results:
   Cole-Vishkin color reduction, Luby's MIS, leader-parity 2-coloring.

2. The order-invariance lens behind the sub-log* lower bounds: a
   value-dependent rule is detected as order-sensitive, its projection
   is invariant by construction, and *any* order-invariant rule fails
   weak 2-coloring on a cycle with increasing identifiers (the
   homogeneity that powers Theorem 21 and, for even degree, this
   paper's Omega(log* n)).

Run:  python examples/message_passing_and_order.py
"""

import random

from repro.algorithms import FloodLeaderParity, LubyMIS, proper_two_coloring
from repro.core import SimRequest, simulate
from repro.graphs import balanced_regular_tree, cycle, random_permutation_ids, sequential_ids
from repro.lcl import MaximalIndependentSet, ProperColoring
from repro.local_model import (
    OrderInvariantProjection,
    ViewAlgorithm,
    is_order_invariant,
    order_homogeneous_failure,
)


class IdValueParity(ViewAlgorithm):
    """Color = identifier parity — depends on values, not just order."""

    name = "id-value-parity"
    radius = 1

    def output(self, view):
        return view.identifiers[0] % 2


def main() -> None:
    print("1. operational vs functional")
    tree = balanced_regular_tree(3, 3)
    ids = random_permutation_ids(tree, random.Random(1))

    mis = simulate(SimRequest(kind="local", graph=tree, algorithm=LubyMIS(),
                              rng=random.Random(2)))
    ok = MaximalIndependentSet().is_feasible(tree, mis.outputs)
    print(f"   Luby MIS (message passing): {mis.rounds} rounds, "
          f"|MIS| = {sum(mis.outputs)}, verified = {ok}")

    mp = simulate(SimRequest(kind="local", graph=tree, algorithm=FloodLeaderParity(),
                             ids=ids))
    fn = proper_two_coloring(tree, ids)
    print(f"   2-coloring: message passing ({mp.rounds} rounds) and "
          f"functional ({fn.rounds} rounds) agree = {mp.outputs == fn.colors}, "
          f"proper = {ProperColoring(2).is_feasible(tree, mp.outputs)}")

    print("\n2. order invariance")
    ring = cycle(16)
    raw = IdValueParity()
    projected = OrderInvariantProjection(raw)
    print(f"   raw rule order-invariant?       "
          f"{is_order_invariant(raw, ring, sequential_ids(ring))}")
    print(f"   projected rule order-invariant? "
          f"{is_order_invariant(projected, ring, sequential_ids(ring))}")
    failing = order_homogeneous_failure(projected, 24)
    print(f"   projected rule on an increasing 24-cycle: "
          f"{len(failing)} nodes fail weak coloring")
    print("   every order-invariant rule fails there — the Ramsey route")
    print("   to lower bounds, and why even degree costs Omega(log* n).")


if __name__ == "__main__":
    main()
