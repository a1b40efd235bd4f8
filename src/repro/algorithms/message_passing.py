"""Genuine message-passing LOCAL algorithms.

The functional (view-based) implementations elsewhere in
:mod:`repro.algorithms` are convenient for round accounting; this module
provides the operational counterparts — real
:class:`~repro.local_model.algorithm.LocalAlgorithm` subclasses driven by
the synchronous engine — both as living documentation of the LOCAL model
of Section 2.1 and as cross-checks (tests assert the two styles agree).

* :class:`ColeVishkinMP` — CV color reduction on a pointer pseudoforest,
  messages carrying current colors; halts at a proper 3-coloring.
* :class:`LubyMIS` — Luby's randomized MIS: each round, undecided nodes
  draw priorities; local maxima join, neighbors retire.  O(log n) rounds
  with high probability.
* :class:`GreedySequentialColoring` — the identifier-priority greedy
  (Δ+1)-coloring: a node colors itself once every higher-identifier
  neighbor has; worst case Θ(n) rounds (it is the *slow* baseline the
  log*-round algorithms beat).
* :class:`RandomizedWeakColoring` — anonymous randomized weak
  2-coloring by retry: the constructive contrast to the deterministic
  impossibility on port-symmetric instances.
* :class:`FloodLeaderParity` — leader election by minimum identifier +
  BFS parity: the operational Θ(diameter) proper 2-coloring.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.registry import register_algorithm
from ..local_model.algorithm import LocalAlgorithm
from ..local_model.context import NodeContext

__all__ = [
    "ColeVishkinMP",
    "LubyMIS",
    "GreedySequentialColoring",
    "RandomizedWeakColoring",
    "FloodLeaderParity",
]


@register_algorithm("cole-vishkin-mp", kind="local", needs="none",
                    params=("color_bits",))
class ColeVishkinMP(LocalAlgorithm):
    """Cole-Vishkin on a pseudoforest, as synchronous message passing.

    Inputs (per node, via ``input_label``): ``(successor_port, color)``
    where ``color`` is an integer below ``2 ** color_bits`` and the
    initial coloring is proper along successor pointers.  All nodes must
    share ``color_bits`` (constructor argument), from which each node
    derives the same iteration schedule locally.

    Rounds: ``cv_iterations_needed(color_bits)`` CV steps, then three
    shift-down + recolor-class pairs, exactly like the functional
    :func:`~repro.algorithms.cole_vishkin.reduce_to_three_colors`.
    """

    name = "cole-vishkin-mp"

    def __init__(self, color_bits: int):
        from .cole_vishkin import cv_iterations_needed

        self.color_bits = color_bits
        self.cv_rounds = cv_iterations_needed(color_bits)
        # Schedule: cv_rounds CV steps, then (shift, recolor) for 5, 4, 3.
        self.total_rounds = self.cv_rounds + 6

    def init(self, ctx: NodeContext) -> None:
        successor_port, color = ctx.input_label
        ctx.state["succ"] = successor_port
        ctx.state["color"] = color

    def send(self, ctx: NodeContext) -> Dict[int, Any]:
        # Everyone broadcasts its color; receivers pick what they need.
        return {port: ctx.state["color"] for port in range(ctx.degree)}

    def receive(self, ctx: NodeContext, messages: Dict[int, Any]) -> None:
        from .cole_vishkin import cv_step

        rnd = ctx.round_number
        succ_color = messages.get(ctx.state["succ"])
        if rnd <= self.cv_rounds:
            ctx.state["color"] = cv_step(ctx.state["color"], succ_color)
        else:
            phase = rnd - self.cv_rounds  # 1..6
            if phase % 2 == 1:
                # Shift-down: adopt the successor's color.
                ctx.state["color"] = succ_color
            else:
                target = {2: 5, 4: 4, 6: 3}[phase]
                if ctx.state["color"] == target:
                    used = set(messages.values())
                    ctx.state["color"] = min(c for c in (0, 1, 2) if c not in used)
        if rnd == self.total_rounds:
            ctx.halt(ctx.state["color"])


@register_algorithm("luby-mis", kind="local", needs="ids",
                    solves=("mis", {}),
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "clique", "n": (2, 8)},
                        {"graph": "caterpillar", "spine": (1, 6),
                         "legs_per_node": (0, 3)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
class LubyMIS(LocalAlgorithm):
    """Luby's randomized maximal independent set.

    Each phase costs two rounds: (1) undecided nodes draw and exchange
    random priorities; local maxima mark themselves IN; (2) IN nodes
    announce, neighbors mark OUT.  A node halts when decided; isolated
    or fully-decided neighborhoods resolve immediately.  Output: True
    iff in the MIS.
    """

    name = "luby-mis"

    def init(self, ctx: NodeContext) -> None:
        ctx.state["status"] = "undecided"
        ctx.state["active_ports"] = set(range(ctx.degree))
        if ctx.degree == 0:
            ctx.halt(True)

    def send(self, ctx: NodeContext) -> Dict[int, Any]:
        phase = (ctx.round_number - 1) % 2
        if phase == 0:
            ctx.state["priority"] = ctx.rng.getrandbits(48)
            return {
                port: ("prio", ctx.state["priority"])
                for port in ctx.state["active_ports"]
            }
        return {
            port: ("decision", ctx.state["status"])
            for port in ctx.state["active_ports"]
        }

    def receive(self, ctx: NodeContext, messages: Dict[int, Any]) -> None:
        phase = (ctx.round_number - 1) % 2
        if phase == 0:
            prios = [p for kind, p in messages.values() if kind == "prio"]
            # Halted/decided neighbors no longer compete.
            if all(ctx.state["priority"] > p for p in prios):
                ctx.state["status"] = "in"
            return
        # Decision phase.
        for port, (kind, status) in messages.items():
            if kind == "decision" and status == "in":
                ctx.state["status"] = "out"
        for port, (kind, status) in list(messages.items()):
            if kind == "decision" and status in ("in", "out"):
                ctx.state["active_ports"].discard(port)
        if ctx.state["status"] == "in":
            ctx.halt(True)
        elif ctx.state["status"] == "out":
            ctx.halt(False)
        elif not ctx.state["active_ports"]:
            # All neighbors decided OUT and nobody dominates: join.
            ctx.state["status"] = "in"
            ctx.halt(True)


@register_algorithm("greedy-sequential-coloring", kind="local", needs="ids",
                    solves=("proper-coloring",
                            {"colors": "auto:max-degree+1"}),
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "clique", "n": (2, 6)},
                        {"graph": "caterpillar", "spine": (1, 6),
                         "legs_per_node": (0, 3)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
class GreedySequentialColoring(LocalAlgorithm):
    """Greedy (Delta+1)-coloring by identifier priority.

    A node commits to the smallest color unused by its already-committed
    neighbors once every neighbor with a larger identifier has
    committed.  Correct on any graph; Θ(n) rounds in the worst case
    (a path with increasing identifiers) — the slow baseline that makes
    the log* algorithms' value visible.
    """

    name = "greedy-sequential-coloring"

    def init(self, ctx: NodeContext) -> None:
        ctx.state["neighbor_colors"] = {}
        ctx.state["neighbor_ids"] = {}
        ctx.state["color"] = None

    def send(self, ctx: NodeContext) -> Dict[int, Any]:
        return {
            port: (ctx.identifier, ctx.state["color"]) for port in range(ctx.degree)
        }

    def receive(self, ctx: NodeContext, messages: Dict[int, Any]) -> None:
        for port, (identifier, color) in messages.items():
            ctx.state["neighbor_ids"][port] = identifier
            if color is not None:
                ctx.state["neighbor_colors"][port] = color
        if ctx.state["color"] is not None:
            # Linger one round so neighbors learn the committed color.
            ctx.halt(ctx.state["color"])
            return
        higher = [
            port
            for port, identifier in ctx.state["neighbor_ids"].items()
            if identifier > ctx.identifier
        ]
        known = set(ctx.state["neighbor_ids"])
        if len(known) == ctx.degree and all(
            port in ctx.state["neighbor_colors"] for port in higher
        ):
            used = set(ctx.state["neighbor_colors"].values())
            ctx.state["color"] = min(c for c in range(ctx.degree + 1) if c not in used)


@register_algorithm("randomized-weak-coloring", kind="local", needs="none",
                    solves=("weak-coloring", {"colors": 2}),
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (3, 16)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "clique", "n": (2, 8)},
                        {"graph": "caterpillar", "spine": (1, 6),
                         "legs_per_node": (0, 3)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (3, 5), "cols": (3, 5)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation"))
class RandomizedWeakColoring(LocalAlgorithm):
    """Anonymous randomized weak 2-coloring by retry.

    Round structure: every undecided node draws a uniform color and
    announces it; a node finalizes as soon as its current color differs
    from some neighbor's current-or-final color.  On symmetric
    anonymous instances — where *deterministic* algorithms are provably
    constant and fail (see
    :func:`repro.graphs.generators.symmetric_cycle`) — randomness
    breaks the symmetry in O(log n) rounds with high probability: each
    round, an undecided node survives only if every neighbor matched
    it, probability at most 1/2.

    This is the introduction's opening observation made operational:
    identical deterministic nodes stay identical forever; random bits
    are the other way out.
    """

    name = "randomized-weak-coloring"

    def init(self, ctx: NodeContext) -> None:
        if ctx.degree == 0:
            ctx.halt(0)  # isolated nodes are vacuously weakly colored
            return
        ctx.state["color"] = ctx.rng.randrange(2)
        ctx.state["final"] = False
        ctx.state["final_neighbors"] = {}  # port -> frozen color

    def send(self, ctx: NodeContext) -> Dict[int, Any]:
        return {
            port: (ctx.state["color"], ctx.state["final"])
            for port in range(ctx.degree)
        }

    def receive(self, ctx: NodeContext, messages: Dict[int, Any]) -> None:
        if ctx.state["final"]:
            # Linger one round so neighbors saw the final flag; then stop.
            ctx.halt(ctx.state["color"])
            return
        for port, (color, is_final) in messages.items():
            if is_final:
                ctx.state["final_neighbors"][port] = color
        mine = ctx.state["color"]
        # Safe freezes: (a) a *final* neighbor with a differing color is a
        # permanent witness; (b) a differing *active* neighbor freezes
        # too in this very round (it sees our differing color — the edge
        # is bichromatic from both ends), so both colors lock together.
        frozen_witness = any(
            c != mine for c in ctx.state["final_neighbors"].values()
        )
        active_witness = any(
            color != mine
            for port, (color, is_final) in messages.items()
            if not is_final and port not in ctx.state["final_neighbors"]
        )
        if frozen_witness or active_witness:
            ctx.state["final"] = True
        else:
            ctx.state["color"] = ctx.rng.randrange(2)


@register_algorithm("flood-leader-parity", kind="local", needs="ids",
                    solves=("proper-coloring", {"colors": 2}),
                    # Bipartite-only domains: a 2-coloring exists exactly
                    # on even cycles/tori, trees, and hypercubes.
                    domains=(
                        {"graph": "path", "n": (2, 16)},
                        {"graph": "cycle", "n": (4, 16, 2)},
                        {"graph": "star", "leaves": (1, 8)},
                        {"graph": "caterpillar", "spine": (1, 6),
                         "legs_per_node": (0, 3)},
                        {"graph": "tree", "delta": (2, 3), "depth": (1, 3)},
                        {"graph": "torus", "rows": (4, 6, 2),
                         "cols": (4, 6, 2)},
                        {"graph": "hypercube", "dim": (1, 4)},
                    ),
                    invariances=("determinism", "port-permutation",
                                 "label-order"))
class FloodLeaderParity(LocalAlgorithm):
    """Proper 2-coloring: flood the minimum identifier with distances.

    Every node tracks the smallest identifier heard and its hop
    distance; after ``n`` rounds (a safe horizon all nodes share) the
    minimum has stabilized everywhere and each node outputs its distance
    parity.  Θ(n) horizon for simplicity; the *information* arrives in
    eccentricity rounds, which the functional solver accounts.
    """

    name = "flood-leader-parity"

    def init(self, ctx: NodeContext) -> None:
        ctx.state["best"] = (ctx.identifier, 0)

    def send(self, ctx: NodeContext) -> Dict[int, Any]:
        return {port: ctx.state["best"] for port in range(ctx.degree)}

    def receive(self, ctx: NodeContext, messages: Dict[int, Any]) -> None:
        for identifier, dist in messages.values():
            candidate = (identifier, dist + 1)
            if candidate < ctx.state["best"]:
                ctx.state["best"] = candidate
        if ctx.round_number >= ctx.n:
            ctx.halt(ctx.state["best"][1] % 2)
