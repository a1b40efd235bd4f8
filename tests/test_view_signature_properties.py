"""Property-based proof obligations for the canonical view signature.

Memoizing a view algorithm per class (the differential harness's memo
run) and the batched expander's partitions are exact only if
:func:`view_signature` is a *perfect* canonical key: two nodes share a
signature **iff** their radius-t balls are genuinely indistinguishable
in the LOCAL model.  Hypothesis drives
three independent checks over random graph corpora:

* the signature partition coincides with the :meth:`View.key` partition
  (both directions — no false merges, no false splits);
* the signature partition coincides with an *independent* decision
  procedure: a forced port-walk isomorphism test that never looks at
  either encoding (``views_indistinguishable`` below);
* signatures are invariant under graph relabeling (a node's signature
  depends only on what it can see, never on vertex numbering), and
  distinct view classes never collide even across different graphs.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, random_regular_graph, random_tree
from repro.local_model import gather_view, view_signature
from repro.local_model.views import View

DEFAULT_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# An independent oracle: forced port-walk isomorphism
# ----------------------------------------------------------------------

def views_indistinguishable(va: View, vb: View) -> bool:
    """Decide indistinguishability without consulting either encoding.

    Anonymous nodes explore deterministically by port order, so any
    isomorphism between two balls is *forced*: map center to center,
    then propagate along matching ports.  The views are
    indistinguishable iff the propagation closes into a bijection that
    preserves ports, distances, degrees, orientation labels, and every
    labeling.  This shares no code with ``view_signature`` or
    ``View.key`` — it is the ground-truth definition made executable.
    """
    if va.radius != vb.radius or va.node_count != vb.node_count:
        return False
    for la, lb in (
        (va.identifiers, vb.identifiers),
        (va.inputs, vb.inputs),
        (va.randomness, vb.randomness),
    ):
        if (la is None) != (lb is None):
            return False

    mapping = {va.center: vb.center}
    queue = [(va.center, vb.center)]
    while queue:
        a, b = queue.pop()
        if va.degrees[a] != vb.degrees[b] or va.distances[a] != vb.distances[b]:
            return False
        for la, lb in (
            (va.identifiers, vb.identifiers),
            (va.inputs, vb.inputs),
            (va.randomness, vb.randomness),
        ):
            if la is not None and la[a] != lb[b]:
                return False
        nbrs_a = {pa: (j, pj, d) for j, pa, pj, d in va.local_neighbors(a)}
        nbrs_b = {pb: (j, pj, d) for j, pb, pj, d in vb.local_neighbors(b)}
        if set(nbrs_a) != set(nbrs_b):
            return False  # different ports lead inside the ball
        for port, (ja, pja, da) in nbrs_a.items():
            jb, pjb, db = nbrs_b[port]
            if pja != pjb or da != db:
                return False
            if ja in mapping:
                if mapping[ja] != jb:
                    return False
            else:
                mapping[ja] = jb
                queue.append((ja, jb))
    return (
        len(mapping) == va.node_count
        and len(set(mapping.values())) == va.node_count
    )


# ----------------------------------------------------------------------
# Corpus strategies
# ----------------------------------------------------------------------

@st.composite
def labeled_graph(draw, min_nodes=4, max_nodes=28):
    """A random tree or 4-regular graph plus optional labelings."""
    n = draw(st.integers(min_nodes, max_nodes))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["tree", "regular"]))
    if kind == "tree":
        graph = random_tree(n, random.Random(seed))
    else:
        if (n * 4) % 2:
            n += 1
        graph = random_regular_graph(max(n, 6), 4, rng=random.Random(seed))
    rng = random.Random(seed ^ 0x5EED)
    ids = None
    if draw(st.booleans()):
        ids = list(range(1, graph.n + 1))
        rng.shuffle(ids)
    randomness = None
    if draw(st.booleans()):
        # A tiny value space on purpose: collisions force shared classes.
        randomness = [rng.randrange(3) for _ in range(graph.n)]
    radius = draw(st.integers(0, 3))
    return graph, ids, randomness, radius


def _signatures_and_views(graph, ids, randomness, radius):
    sigs, views = [], []
    for v in graph.nodes():
        sigs.append(
            view_signature(graph, v, radius, ids=ids, randomness=randomness)
        )
        views.append(
            gather_view(graph, v, radius, ids=ids, randomness=randomness)
        )
    return sigs, views


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

class TestSignatureIsPerfectKey:
    @DEFAULT_SETTINGS
    @given(labeled_graph())
    def test_signature_partition_equals_key_partition(self, data):
        graph, ids, randomness, radius = data
        sigs, views = _signatures_and_views(graph, ids, randomness, radius)
        keys = [view.key() for view in views]
        for v in graph.nodes():
            for u in graph.nodes():
                assert (sigs[u] == sigs[v]) == (keys[u] == keys[v]), (
                    f"nodes {u},{v} at radius {radius}: signature and "
                    f"View.key partition the ball classes differently"
                )

    @DEFAULT_SETTINGS
    @given(labeled_graph(max_nodes=18))
    def test_signature_agrees_with_port_walk_oracle(self, data):
        graph, ids, randomness, radius = data
        sigs, views = _signatures_and_views(graph, ids, randomness, radius)
        for v in graph.nodes():
            for u in graph.nodes():
                assert (sigs[u] == sigs[v]) == views_indistinguishable(
                    views[u], views[v]
                ), (
                    f"nodes {u},{v} at radius {radius}: signature disagrees "
                    f"with the independent isomorphism decision"
                )


class TestRelabelingInvariance:
    @DEFAULT_SETTINGS
    @given(labeled_graph(), st.integers(0, 2**32 - 1))
    def test_signature_survives_vertex_renumbering(self, data, perm_seed):
        graph, ids, randomness, radius = data
        perm = list(graph.nodes())
        random.Random(perm_seed).shuffle(perm)  # perm[v] = new name of v
        adjacency = [[] for _ in range(graph.n)]
        for v in graph.nodes():
            adjacency[perm[v]] = [perm[u] for u in graph.adjacency_rows()[v]]
        relabeled = Graph.from_adjacency(adjacency).freeze()
        new_ids = new_rand = None
        if ids is not None:
            new_ids = [0] * graph.n
            for v in graph.nodes():
                new_ids[perm[v]] = ids[v]
        if randomness is not None:
            new_rand = [0] * graph.n
            for v in graph.nodes():
                new_rand[perm[v]] = randomness[v]
        for v in graph.nodes():
            assert view_signature(
                graph, v, radius, ids=ids, randomness=randomness
            ) == view_signature(
                relabeled, perm[v], radius, ids=new_ids, randomness=new_rand
            ), f"signature of node {v} changed under renumbering"


class TestNoCrossGraphCollisions:
    @DEFAULT_SETTINGS
    @given(st.lists(labeled_graph(max_nodes=16), min_size=2, max_size=4))
    def test_signature_key_bijection_across_corpus(self, corpus):
        # One global map signature -> key over every node of every graph:
        # a signature may never stand for two different view classes,
        # and a view class may never acquire two signatures.
        sig_to_key = {}
        key_to_sig = {}
        for graph, ids, randomness, radius in corpus:
            sigs, views = _signatures_and_views(graph, ids, randomness, radius)
            for sig, view in zip(sigs, views):
                key = view.key()
                assert sig_to_key.setdefault(sig, key) == key, (
                    "signature collision: one signature, two view classes"
                )
                assert key_to_sig.setdefault(key, sig) == sig, (
                    "signature split: one view class, two signatures"
                )
