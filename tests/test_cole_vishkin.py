"""Tests for Cole-Vishkin color reduction on pseudoforests."""

import random
import sys
from typing import List

import pytest

from repro.algorithms import (
    cole_vishkin,
    cv_iterations_needed,
    cv_step,
    is_proper_on_pseudoforest,
    order_type_labeling,
    reduce_to_three_colors,
)
from repro.analysis.towers import log_star_float
from repro.algorithms.weak_coloring import choose_successors, distance_parity_recoloring
from repro.graphs import random_permutation_ids, regular_tree_of_depth_at_least, sequential_ids


class TestLogStar:
    def test_small_values(self):
        assert log_star_float(1) == 0
        assert log_star_float(2) == 1
        assert log_star_float(4) == 2
        assert log_star_float(16) == 3
        assert log_star_float(65536) == 4
        assert log_star_float(10**300) == 5

    def test_zero_and_below(self):
        assert log_star_float(0.5) == 0
        assert log_star_float(0) == 0


class TestCvStep:
    def test_packs_lowest_differing_bit(self):
        # colors 0b0110 and 0b0100 differ first at bit 1; bit of first is 1.
        assert cv_step(0b0110, 0b0100) == 2 * 1 + 1

    def test_result_smaller_range(self):
        for a in range(64):
            for b in range(64):
                if a != b:
                    assert 0 <= cv_step(a, b) < 12  # 2*5+1 max for 6-bit

    def test_adjacent_outputs_differ(self):
        # If v -> s and s -> w with all colors proper, the new colors of
        # v and s differ.
        rng = random.Random(0)
        for _ in range(500):
            v, s, w = rng.sample(range(1024), 3)
            new_v = cv_step(v, s)
            new_s = cv_step(s, w)
            assert new_v != new_s or v == s

    def test_equal_colors_rejected(self):
        with pytest.raises(ValueError):
            cv_step(5, 5)


class TestIterationCount:
    def test_small_palettes(self):
        assert cv_iterations_needed(3) == 1
        assert cv_iterations_needed(4) == 2

    def test_monotone(self):
        values = [cv_iterations_needed(b) for b in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_log_star_growth(self):
        # Doubling the bits should add at most one round beyond a point.
        assert cv_iterations_needed(2**16) <= cv_iterations_needed(2**8) + 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            cv_iterations_needed(0)


def random_pseudoforest(n, rng):
    """A random successor assignment avoiding self-loops."""
    successor = []
    for v in range(n):
        u = rng.randrange(n - 1)
        successor.append(u if u < v else u + 1)
    return successor


class TestReduceToThree:
    def test_on_directed_cycle(self):
        n = 10
        successor = [(v + 1) % n for v in range(n)]
        colors = list(range(n))
        out, rounds = reduce_to_three_colors(colors, successor, color_bits=4)
        assert set(out) <= {0, 1, 2}
        assert is_proper_on_pseudoforest(out, successor)
        assert rounds == cv_iterations_needed(4) + 6

    def test_on_two_cycle(self):
        successor = [1, 0]
        out, _ = reduce_to_three_colors([0, 1], successor, color_bits=1)
        assert out[0] != out[1]

    def test_on_random_pseudoforests(self):
        rng = random.Random(3)
        for trial in range(20):
            n = rng.randrange(5, 60)
            successor = random_pseudoforest(n, rng)
            colors = list(range(n))
            rng.shuffle(colors)
            # Initial coloring (a permutation) is proper: distinct values.
            out, _ = reduce_to_three_colors(colors, successor, color_bits=6)
            assert set(out) <= {0, 1, 2}
            assert is_proper_on_pseudoforest(out, successor)

    def test_large_color_space(self):
        n = 40
        rng = random.Random(9)
        successor = random_pseudoforest(n, rng)
        colors = rng.sample(range(10**9), n)
        out, rounds = reduce_to_three_colors(colors, successor, color_bits=30)
        assert set(out) <= {0, 1, 2}
        assert is_proper_on_pseudoforest(out, successor)
        # log* means few rounds even from a 30-bit space.
        assert rounds <= cv_iterations_needed(30) + 6

    def test_improper_input_rejected(self):
        with pytest.raises(ValueError, match="not proper"):
            reduce_to_three_colors([3, 3], [1, 0], color_bits=2)

    def test_color_bits_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            reduce_to_three_colors([0, 9], [1, 0], color_bits=2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reduce_to_three_colors([0, 1], [1, 0, 2], color_bits=2)

    def test_already_three_colors_stays_proper(self):
        successor = [1, 2, 0]
        out, _ = reduce_to_three_colors([0, 1, 2], successor, color_bits=2)
        assert set(out) <= {0, 1, 2}
        assert is_proper_on_pseudoforest(out, successor)


def reference_pseudoforest_neighbors(successor) -> List[List[int]]:
    """``_pseudoforest_neighbors`` as first written, kept verbatim."""
    n = len(successor)
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for v, s in enumerate(successor):
        neighbors[v].append(s)
        neighbors[s].append(v)
    return [sorted(set(adj)) for adj in neighbors]


def reference_reduce_to_three_colors(colors, successor, color_bits):
    """``reduce_to_three_colors`` as first written: one ``cv_step`` call per
    node and round, and the pseudoforest's neighbor lists.  Kept verbatim
    as the oracle for the inline rounds."""
    n = len(colors)
    if len(successor) != n:
        raise ValueError("colors and successor must have equal length")
    bound = 1 << color_bits
    for v in range(n):
        if not 0 <= colors[v] < bound:
            raise ValueError(f"color {colors[v]} of node {v} exceeds {color_bits} bits")
    if not is_proper_on_pseudoforest(colors, successor):
        raise ValueError("initial coloring is not proper on the pseudoforest")

    current = list(colors)
    rounds = 0
    for _ in range(cv_iterations_needed(color_bits)):
        current = [cv_step(current[v], current[successor[v]]) for v in range(n)]
        rounds += 1

    neighbors = reference_pseudoforest_neighbors(successor)
    for target in (5, 4, 3):
        # Shift-down: adopt the successor's color (1 round).
        current = [current[successor[v]] for v in range(n)]
        rounds += 1
        # Recolor the target class greedily into {0, 1, 2} (1 round).
        fresh = list(current)
        for v in range(n):
            if current[v] == target:
                used = {current[u] for u in neighbors[v]}
                fresh[v] = min(c for c in (0, 1, 2) if c not in used)
        current = fresh
        rounds += 1

    if not is_proper_on_pseudoforest(current, successor):
        raise AssertionError("CV reduction produced an improper coloring (bug)")
    if any(c not in (0, 1, 2) for c in current):
        raise AssertionError("CV reduction left colors outside {0,1,2} (bug)")
    return current, rounds


def predecessor_list_reduce_to_three_colors(colors, successor, color_bits):
    """``reduce_to_three_colors`` with the inline Cole-Vishkin rounds and one
    predecessor list per node, as it was before the predecessors went into
    two flat lists.  Kept verbatim as the oracle for the flat grouping."""
    n = len(colors)
    if len(successor) != n:
        raise ValueError("colors and successor must have equal length")
    bound = 1 << color_bits
    if n and not (0 <= min(colors) and max(colors) < bound):
        for v in range(n):
            if not 0 <= colors[v] < bound:
                raise ValueError(f"color {colors[v]} of node {v} exceeds {color_bits} bits")
    if not is_proper_on_pseudoforest(colors, successor):
        raise ValueError("initial coloring is not proper on the pseudoforest")

    current = list(colors)
    rounds = 0
    for _ in range(cv_iterations_needed(color_bits)):
        stepped = []
        append = stepped.append
        for color, successor_color in zip(current, map(current.__getitem__, successor)):
            diff = color ^ successor_color
            if not diff:
                raise ValueError(f"CV step needs distinct colors, got {color} twice")
            i = (diff & -diff).bit_length() - 1
            append(2 * i + ((color >> i) & 1))
        current = stepped
        rounds += 1

    predecessors: List[List[int]] = [[] for _ in range(n)]
    for v, s in enumerate(successor):
        predecessors[s].append(v)
    for target in (5, 4, 3):
        # Shift-down: adopt the successor's color (1 round).
        current = list(map(current.__getitem__, successor))
        rounds += 1
        # Recolor the target class greedily into {0, 1, 2} (1 round).
        fresh = list(current)
        for v, color in enumerate(current):
            if color == target:
                used = {current[successor[v]]}
                used.update(map(current.__getitem__, predecessors[v]))
                fresh[v] = min(c for c in (0, 1, 2) if c not in used)
        current = fresh
        rounds += 1

    if not is_proper_on_pseudoforest(current, successor):
        raise AssertionError("CV reduction produced an improper coloring (bug)")
    if any(c not in (0, 1, 2) for c in current):
        raise AssertionError("CV reduction left colors outside {0,1,2} (bug)")
    return current, rounds


def cv_outcome(function, *args):
    """The result, or the type and text of the error it raised."""
    try:
        return ("ok", function(*args))
    except (ValueError, AssertionError) as exc:
        return (type(exc).__name__, str(exc))


def _shapes(n, rng):
    """Pseudoforests with a 2-coloring ``parity`` that is proper along them.

    ``pairs``: 2-cycles (an odd ``n`` leaves one node pointing into one).
    ``chain``: one long in-tree, a path pointing at a 2-cycle.  ``hub``:
    every node points at node 0, which points at node 1.  ``random``:
    each node points at a random node of the other random side, so
    in-degrees vary and many cycles are 2-cycles.
    """
    side = [rng.randrange(2) for _ in range(n)]
    side[0], side[1] = 0, 1
    by_side = ([v for v in range(n) if side[v] == 0], [v for v in range(n) if side[v] == 1])
    return {
        "pairs": ([v ^ 1 if v ^ 1 < n else 1 for v in range(n)], [v % 2 for v in range(n)]),
        "chain": ([1] + [v - 1 for v in range(1, n)], [v % 2 for v in range(n)]),
        "hub": ([1] + [0] * (n - 1), [0] + [1] * (n - 1)),
        "random": ([rng.choice(by_side[1 - side[v]]) for v in range(n)], side),
    }


def pseudoforest_cases(seed):
    """(name, colors, successor, color_bits) over shapes and palette widths.

    Colors keep the shape's parity as their lowest bit, so they are proper
    for every width; where the palette holds ``n`` colors a second case
    uses distinct colors.
    """
    rng = random.Random(seed)
    cases = []
    for n in (2, 3, 17, 64, 301):
        for shape, (successor, parity) in _shapes(n, rng).items():
            for bits in (1, 2, 3, 4, 7, 12, 31, 64):
                colors = [(rng.getrandbits(bits - 1) << 1) | p for p in parity]
                cases.append((f"{shape}-n{n}-b{bits}-parity", colors, successor, bits))
                if 1 << bits >= n:
                    distinct = rng.sample(range(1 << bits), n) if bits < 40 else [
                        rng.getrandbits(bits) for _ in range(n)
                    ]
                    if len(set(distinct)) == n:
                        cases.append((f"{shape}-n{n}-b{bits}-distinct", distinct, successor, bits))
    return cases


def _table1_odd_degree_inputs():
    """Lemma 2's Cole-Vishkin input in Table 1's odd-degree row: order-type
    labels (831 to 2,223 bits here) with their parity bit, in a palette of
    ``2 * 2**65536`` colors."""
    out = []
    for target in (50, 200, 800):
        tree, _ = regular_tree_of_depth_at_least(3, target)
        for ids in (sequential_ids(tree), random_permutation_ids(tree, random.Random(tree.n))):
            labels, _ = order_type_labeling(tree, ids)
            phi_prime, _ = distance_parity_recoloring(tree, labels, 1)
            successor = choose_successors(tree, phi_prime)
            packed = [color * 2 + parity for color, parity in phi_prime]
            out.append((packed, successor, ((2 << 65536) - 1).bit_length()))
    return out


class TestReductionMatchesReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_outputs_and_rounds_equal(self, seed):
        for name, colors, successor, bits in pseudoforest_cases(seed):
            got = reduce_to_three_colors(colors, successor, bits)
            assert got == reference_reduce_to_three_colors(colors, successor, bits), name

    @pytest.mark.parametrize("seed", range(3))
    def test_flat_grouping_equals_per_node_predecessor_lists(self, seed):
        for name, colors, successor, bits in pseudoforest_cases(seed):
            got = reduce_to_three_colors(colors, successor, bits)
            assert got == predecessor_list_reduce_to_three_colors(colors, successor, bits), name

    @pytest.mark.parametrize("successor,named", [
        ([1, 0, -1, 2], "successor -1 of node 2"),
        ([1, 0, 4, 2], "successor 4 of node 2"),
    ])
    def test_successors_outside_the_nodes_rejected(self, successor, named):
        with pytest.raises(ValueError, match=f"^{named} is not a node$"):
            reduce_to_three_colors([0, 1, 0, 1], successor, 2)

    def test_table1_odd_degree_inputs(self):
        for colors, successor, bits in _table1_odd_degree_inputs():
            assert bits == 65537
            assert min(colors).bit_length() > 800 and max(colors).bit_length() > 2000
            got = reduce_to_three_colors(colors, successor, bits)
            assert got == reference_reduce_to_three_colors(colors, successor, bits)

    @pytest.mark.parametrize(
        "colors,successor,bits",
        [
            ([0, 9, 1, 12], [1, 0, 3, 2], 3),  # node 1 is the first out of range
            ([0, 1, 8, 2], [1, 0, 3, 2], 3),  # exactly 2 ** color_bits
            ([0, 1, -2, 3], [1, 0, 3, 2], 3),  # a negative color
            ([1, 5, 6, 7], [1, 0, 3, 2], 2),  # every color but node 0's
            ([0, 1], [1, 0, 0], 2),  # length mismatch
            ([0, 1, 1], [1, 2, 1], 2),  # improper start: nodes 1 and 2 equal
            ([3, 3], [1, 0], 2),
        ],
    )
    def test_same_errors(self, colors, successor, bits):
        got = cv_outcome(reduce_to_three_colors, colors, successor, bits)
        assert got[0] == "ValueError"
        assert got == cv_outcome(reference_reduce_to_three_colors, colors, successor, bits)

    def test_equal_colors_raise_the_cv_step_error(self, monkeypatch):
        """With the start check off, the first round meets equal colors: the
        first offending node in node order names its color."""
        monkeypatch.setattr(cole_vishkin, "is_proper_on_pseudoforest", lambda c, s: True)
        monkeypatch.setattr(
            sys.modules[__name__], "is_proper_on_pseudoforest", lambda c, s: True
        )
        colors, successor = [0, 4, 4, 6, 6, 1], [5, 2, 0, 4, 3, 0]
        got = cv_outcome(reduce_to_three_colors, colors, successor, 3)
        assert got == ("ValueError", "CV step needs distinct colors, got 4 twice")
        assert got == cv_outcome(reference_reduce_to_three_colors, colors, successor, 3)
        with pytest.raises(ValueError) as direct:
            cv_step(4, 4)
        assert str(direct.value) == got[1]

    def test_cases_are_not_vacuous(self):
        cases = pseudoforest_cases(0)
        shapes = {name.split("-")[0] for name, *_ in cases}
        assert shapes == {"pairs", "chain", "hub", "random"}
        assert {bits for *_, bits in cases} == {1, 2, 3, 4, 7, 12, 31, 64}
        assert any(name.endswith("distinct") for name, *_ in cases)
        # Nodes with many predecessors, and recolorings that use them.
        hub = next(s for name, _, s, _ in cases if name.startswith("hub-n301"))
        assert hub.count(0) == 300
