"""Edge-view rules: the edge model's counterpart of ``view_rules``.

The paper's edge-labeling problems (sinkless orientation, edge
coloring) run in the *edge* model: a ``t``-round edge algorithm is a
function from the edge's view ``B_t(e)`` — radius-``t-1`` balls around
both endpoints — to the edge's output label.  No honest constant-round
rule in this module *solves* one of those LCLs (that impossibility is
the paper's point), so none declares ``solves=``; the rules exist to
give the contract properties (``tests/test_contracts.py``) and the
differential harness registered ``kind="edge"`` entries that exercise
the engine's edge path.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..core.registry import ALGORITHMS, register_algorithm
from ..local_model.edge_model import EdgeViewAlgorithm

__all__ = [
    "edge_profile_output",
    "edge_parity_output",
    "make_edge_rule",
    "EDGE_RULE_NAMES",
]


def edge_profile_output(view: Any) -> Tuple[int, int, int]:
    """Edge output: ball size, edge count, minimum randomness."""
    return (view.node_count, len(view.edges), min(view.randomness))


def edge_parity_output(view: Any) -> int:
    """Anonymous edge output: parity of the ball's node + edge count."""
    return (view.node_count + len(view.edges)) % 2


@register_algorithm("edge-profile", kind="edge", needs="randomness",
                    fuzz_params={"rounds": (1, 2)},
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    # NOT label-order invariant: outputs embed the raw
                    # minimum randomness value, not just comparisons.
                    invariances=("determinism", "port-permutation"))
def edge_profile(rounds: int = 1) -> EdgeViewAlgorithm:
    """A ``rounds``-round edge rule summarizing the edge's ball."""
    return EdgeViewAlgorithm(
        rounds, edge_profile_output, name=f"edge-profile-t{rounds}"
    )


@register_algorithm("edge-parity", kind="edge", needs="none",
                    fuzz_params={"rounds": (1, 2)},
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
def edge_parity(rounds: int = 1) -> EdgeViewAlgorithm:
    """An anonymous ``rounds``-round edge rule (pure topology)."""
    return EdgeViewAlgorithm(
        rounds, edge_parity_output, name=f"edge-parity-t{rounds}"
    )


#: Registry names accepted by :func:`make_edge_rule`.
EDGE_RULE_NAMES = ("edge-profile", "edge-parity")


def make_edge_rule(name: str, rounds: int = 1) -> EdgeViewAlgorithm:
    """Build a registered edge rule with the given round budget."""
    if name not in EDGE_RULE_NAMES:
        raise ValueError(f"unknown edge rule {name!r} (have {EDGE_RULE_NAMES})")
    return ALGORITHMS.create(name, rounds=rounds)
