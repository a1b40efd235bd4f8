"""Graph substrate: port-numbered graphs, generators, orientations, IDs."""

from .graph import Graph, Edge, edge_key
from .generators import (
    path,
    cycle,
    symmetric_cycle,
    star,
    complete_graph,
    caterpillar,
    balanced_regular_tree,
    balanced_regular_tree_size,
    regular_tree_of_depth_at_least,
    toroidal_grid,
    toroidal_grid_nd,
    hypercube,
    random_regular_graph,
    random_regular_high_girth,
    random_tree,
    lemma18_pair,
)
from .orientation import Orientation, orient_tree, orient_torus, orient_torus_nd, direction_name
from .identifiers import (
    IdAssignment,
    sequential_ids,
    random_permutation_ids,
    sorted_by_bfs_ids,
)

__all__ = [
    "Graph",
    "Edge",
    "edge_key",
    "path",
    "cycle",
    "symmetric_cycle",
    "star",
    "complete_graph",
    "caterpillar",
    "balanced_regular_tree",
    "balanced_regular_tree_size",
    "regular_tree_of_depth_at_least",
    "toroidal_grid",
    "toroidal_grid_nd",
    "hypercube",
    "random_regular_graph",
    "random_regular_high_girth",
    "random_tree",
    "lemma18_pair",
    "Orientation",
    "orient_tree",
    "orient_torus",
    "orient_torus_nd",
    "direction_name",
    "IdAssignment",
    "sequential_ids",
    "random_permutation_ids",
    "sorted_by_bfs_ids",
]
