"""View-rule algorithms: LOCAL algorithms written directly as view maps.

Section 2's normal form says a t-round algorithm *is* a function from
radius-t views to outputs.  The message-passing algorithms elsewhere in
this package earn that form by simulation; the rules here are born in
it: each is a :class:`~repro.local_model.ViewAlgorithm` whose ``output``
reads one :class:`~repro.local_model.View` and returns a color.

They are chosen to exercise every slot of the view-cache key
(:func:`~repro.local_model.view_signature`):

* :class:`LocalMaximumRule` — identifier-driven (the ``ids`` slot);
* :class:`RandomPriorityRule` — randomness-driven (the ``randomness``
  slot);
* :class:`BallSignatureColoring` — pure topology, hashed with a
  *process-stable* digest (anonymous graphs; the ``rows`` slot);
* :class:`DegreeProfileRule` — pure topology with a structured output
  (degrees and distances).

All four are deterministic functions of the view, so a memoized run
(compute each distinct view class once, broadcast the output) must be
bit-identical to the per-node run — the invariant
``tests/test_differential.py`` checks over the full grid.

Each rule is registered in :data:`repro.core.registry.ALGORITHMS` with
``kind="view"`` and a ``needs`` metadata slot ("ids" / "randomness" /
"none"); :func:`make_view_rule` is a thin compatibility wrapper over
that registry.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from ..core.registry import ALGORITHMS, register_algorithm
from ..local_model.algorithm import ViewAlgorithm
from ..local_model.views import View

__all__ = [
    "LocalMaximumRule",
    "RandomPriorityRule",
    "BallSignatureColoring",
    "DegreeProfileRule",
    "VIEW_RULE_NAMES",
    "make_view_rule",
]


@register_algorithm("local-max", kind="view", needs="ids",
                    fuzz_params={"radius": (1, 2)},
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "clique", "n": (2, 8)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
class LocalMaximumRule(ViewAlgorithm):
    """Output 1 iff the center's identifier beats everyone in its ball.

    With unique identifiers the 1-nodes of any radius are pairwise
    non-adjacent (two adjacent local maxima would each have to exceed
    the other), so the rule marks an independent set.  Requires ``ids``.
    """

    def __init__(self, radius: int = 1):
        if radius < 1:
            raise ValueError("a radius-0 node has nobody to compare against")
        self.radius = radius
        self.name = f"local-max-r{radius}"

    def output(self, view: View) -> int:
        if view.identifiers is None:
            raise ValueError(f"{self.name} needs identifiers")
        mine = view.identifiers[view.center]
        return (
            1
            if all(
                other <= mine for other in view.identifiers
            )  # own id compares equal, never greater
            else 0
        )


@register_algorithm("random-priority", kind="view", needs="randomness",
                    fuzz_params={"radius": (1, 2)},
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "clique", "n": (2, 8)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
class RandomPriorityRule(ViewAlgorithm):
    """Output 1 iff the center's random value strictly beats its ball.

    The anonymous randomized analogue of :class:`LocalMaximumRule`:
    priorities come from the ``randomness`` labeling instead of
    identifiers, and ties lose (output 0), so the rule stays a function
    of the view even when values collide.
    """

    def __init__(self, radius: int = 1):
        if radius < 1:
            raise ValueError("a radius-0 node has nobody to compare against")
        self.radius = radius
        self.name = f"random-priority-r{radius}"

    def output(self, view: View) -> int:
        if view.randomness is None:
            raise ValueError(f"{self.name} needs a randomness labeling")
        mine = view.randomness[view.center]
        return (
            1
            if all(
                view.randomness[i] < mine
                for i in range(view.node_count)
                if i != view.center
            )
            else 0
        )


@register_algorithm("ball-signature", kind="view", needs="none",
                    fuzz_params={"radius": (1, 2)},
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    # NOT port-permutation invariant: the digest hashes
                    # View.key(), which includes the port numbering.
                    invariances=("determinism",))
class BallSignatureColoring(ViewAlgorithm):
    """Color the center by a stable digest of its whole view.

    Two nodes get the same color iff ``View.key()`` hashes alike — in
    particular, *indistinguishable* nodes always agree, which is the
    most an anonymous deterministic algorithm can do (the
    indistinguishability arguments of Sections 3-4).  The digest is
    ``sha256`` of the key's ``repr``, not Python's ``hash``: the latter
    is salted per process, which would make experiment artifacts (and
    the differential harness) irreproducible.
    """

    def __init__(self, radius: int = 2, palette: int = 8):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if palette < 1:
            raise ValueError("palette must be positive")
        self.radius = radius
        self.palette = palette
        self.name = f"ball-signature-r{radius}-c{palette}"

    def output(self, view: View) -> int:
        digest = hashlib.sha256(repr(view.key()).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.palette


@register_algorithm("degree-profile", kind="view", needs="none",
                    fuzz_params={"radius": (1, 2)},
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "clique", "n": (2, 8)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
class DegreeProfileRule(ViewAlgorithm):
    """Output the ball's degree histogram, layered by distance.

    A structured (non-integer) output: for each distance ``d`` up to the
    radius, the sorted multiset of degrees of nodes at distance exactly
    ``d``.  Anonymous and deterministic; exercises caching of composite
    hashable outputs.
    """

    def __init__(self, radius: int = 2):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.radius = radius
        self.name = f"degree-profile-r{radius}"

    def output(self, view: View) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(sorted(view.degrees[i] for i in view.nodes_at_distance(d)))
            for d in range(self.radius + 1)
        )


#: Registry names accepted by :func:`make_view_rule`.
VIEW_RULE_NAMES = (
    "local-max",
    "random-priority",
    "ball-signature",
    "degree-profile",
)


def make_view_rule(name: str, radius: int = 2) -> ViewAlgorithm:
    """Build a registered view rule at the given radius.

    Compatibility wrapper over :data:`repro.core.registry.ALGORITHMS`
    (entries with ``kind="view"``); whether a rule needs ``ids`` or
    ``randomness`` is the entry's ``needs`` metadata.
    """
    if name not in VIEW_RULE_NAMES:
        raise ValueError(f"unknown view rule {name!r} (have {VIEW_RULE_NAMES})")
    return ALGORITHMS.create(name, radius=radius)
