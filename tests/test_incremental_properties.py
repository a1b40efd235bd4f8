"""Property-based proof obligations for the delta footprint.

Hypothesis drives the claim :meth:`GraphDelta.footprint
<repro.graphs.delta.GraphDelta.footprint>` rests on:

* **Footprint soundness** — any node whose canonical radius-t view
  signature differs between the base and the mutated graph lies inside
  ``footprint(t)`` (the dirty-ball tracker never under-approximates, so
  only the footprint's views need recomputing after a delta);
* **Touched endpoints change** — an edge op's endpoints always change
  their radius-0 view, since degree is part of it.

Graphs are seed-derived Erdős–Rényi-ish corpora plus the repo's tree
generator, so shrinking stays meaningful.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, random_delta, random_tree
from repro.local_model import view_signature

DEFAULT_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _random_graph(rng: random.Random, n: int) -> Graph:
    """A seed-derived graph: half trees, half sparse G(n, 0.3)."""
    if n >= 2 and rng.random() < 0.5:
        return random_tree(n, rng=rng)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                g.add_edge(u, v)
    return g.freeze()


@DEFAULT_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=14),
    radius=st.integers(min_value=0, max_value=2),
)
def test_footprint_contains_every_changed_signature(seed, n, radius):
    rng = random.Random(seed)
    graph = _random_graph(rng, n)
    randomness = [rng.getrandbits(8) for _ in graph.nodes()]
    delta = random_delta(graph, rng, randomness=randomness, max_ops=3)
    assume(delta is not None)
    mutated = delta.apply()
    _, _, new_rand = delta.apply_to_labels(None, None, randomness)
    footprint = set(delta.footprint(radius))
    for v in graph.nodes():
        old_sig = view_signature(graph, v, radius, randomness=randomness)
        new_sig = view_signature(mutated, v, radius, randomness=new_rand)
        if old_sig != new_sig:
            assert v in footprint, (
                f"node {v} changed its radius-{radius} view but is not in "
                f"the footprint {sorted(footprint)} (ops={delta.ops})"
            )


@DEFAULT_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=12),
)
def test_touched_endpoints_always_change_class(seed, n):
    """An edge op's endpoints always change: degree is in the view."""
    rng = random.Random(seed)
    graph = _random_graph(rng, n)
    delta = random_delta(graph, rng, max_ops=1)
    assume(delta is not None and delta.ops[0][0] in ("add", "remove"))
    mutated = delta.apply()
    for v in delta.touched_nodes():
        assert view_signature(graph, v, 0) != view_signature(mutated, v, 0)
