"""Tests for oriented-ball combinatorics (the speedup engine's geometry)."""

import pytest

from repro.graphs import balanced_regular_tree, orient_tree
from repro.speedup import (
    EdgeBall,
    OrientedBall,
    all_directions,
    inverse,
    reduce_word,
)
from repro.speedup.ball import low_endpoint


class TestWords:
    def test_inverse(self):
        assert inverse((0, 1)) == (0, -1)
        assert inverse((2, -1)) == (2, 1)

    def test_all_directions_order(self):
        assert all_directions(2) == [(0, 1), (0, -1), (1, 1), (1, -1)]
        assert len(all_directions(3)) == 6

    def test_reduce_word_cancels_pairs(self):
        assert reduce_word([(0, 1), (0, -1)]) == ()
        assert reduce_word([(0, 1), (1, 1), (1, -1)]) == ((0, 1),)
        assert reduce_word([(0, 1), (1, 1)]) == ((0, 1), (1, 1))

    def test_reduce_word_cascades(self):
        word = [(0, 1), (1, 1), (1, -1), (0, -1), (1, 1)]
        assert reduce_word(word) == ((1, 1),)


class TestOrientedBall:
    def test_sizes_4_regular(self):
        # 1, 5, 17, 53: 1 + 4 * (3^t - 1) / 2 * ... the standard growth.
        sizes = [OrientedBall(2, t).size for t in range(4)]
        assert sizes == [1, 5, 17, 53]

    def test_sizes_6_regular(self):
        sizes = [OrientedBall(3, t).size for t in range(3)]
        assert sizes == [1, 7, 37]

    def test_degree_2_is_a_line(self):
        sizes = [OrientedBall(1, t).size for t in range(4)]
        assert sizes == [1, 3, 5, 7]

    def test_words_are_non_backtracking(self):
        ball = OrientedBall(2, 3)
        for w in ball.words:
            for a, b in zip(w, w[1:]):
                assert b != inverse(a)

    def test_center_is_index_zero(self):
        ball = OrientedBall(2, 2)
        assert ball.words[0] == ()
        assert ball.index[()] == 0

    def test_neighbor_moves(self):
        ball = OrientedBall(2, 2)
        assert ball.neighbor((), (0, 1)) == ((0, 1),)
        assert ball.neighbor(((0, 1),), (0, -1)) == ()
        assert ball.neighbor(((0, 1),), (1, 1)) == ((0, 1), (1, 1))

    def test_neighbor_outside_is_none(self):
        ball = OrientedBall(2, 1)
        assert ball.neighbor(((0, 1),), (0, 1)) is None

    def test_instances_are_cached(self):
        assert OrientedBall(2, 2) is OrientedBall(2, 2)

    def test_outer_extends_inner_order(self):
        inner = OrientedBall(2, 1)
        outer = OrientedBall(2, 2)
        assert outer.words[: inner.size] == inner.words

    def test_shift_map_identity_at_center(self):
        inner = OrientedBall(2, 1)
        outer = OrientedBall(2, 2)
        assert outer.shift_map((), inner) == list(range(inner.size))

    def test_shift_map_neighbor(self):
        inner = OrientedBall(2, 1)
        outer = OrientedBall(2, 2)
        shift = outer.shift_map(((0, 1),), inner)
        # Moving back from the neighbor lands on the center.
        back_position = inner.index[((0, -1),)]
        assert shift[back_position] == 0

    def test_shift_map_out_of_range_raises(self):
        inner = OrientedBall(2, 2)
        outer = OrientedBall(2, 2)
        with pytest.raises(ValueError, match="outside"):
            outer.shift_map(((0, 1),), inner)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OrientedBall(0, 1)
        with pytest.raises(ValueError):
            OrientedBall(2, -1)


class TestEdgeBall:
    def test_size_r0(self):
        assert EdgeBall(2, 0, (0, 1)).size == 2

    def test_size_r1_4_regular(self):
        # B_1(a) has 5 nodes; B_1(b) adds b's 3 other neighbors.
        assert EdgeBall(2, 1, (0, 1)).size == 8

    def test_endpoints(self):
        ball = EdgeBall(2, 1, (1, 1))
        low, high = ball.endpoint_words()
        assert low == ()
        assert high == ((1, 1),)
        assert low in ball.index and high in ball.index

    def test_anchored_at_low_endpoint_only(self):
        with pytest.raises(ValueError, match="low endpoint"):
            EdgeBall(2, 1, (0, -1))

    def test_shift_map_positive_anchor(self):
        eb = EdgeBall(2, 0, (0, 1))
        outer = OrientedBall(2, 1)
        shift = outer.shift_map((), eb)
        assert shift[0] == 0  # low endpoint = center
        assert outer.words[shift[1]] == ((0, 1),)

    def test_shift_map_negative_anchor(self):
        # The edge in direction (0,-1) from the center: low endpoint is
        # the neighbor, so anchoring there maps 'high' back to the center.
        eb = EdgeBall(2, 0, (0, 1))
        outer = OrientedBall(2, 1)
        shift = outer.shift_map(((0, -1),), eb)
        assert outer.words[shift[0]] == ((0, -1),)
        assert shift[1] == 0

    def test_edge_ball_within_radius_plus_one(self):
        eb = EdgeBall(2, 1, (0, 1))
        outer = OrientedBall(2, 2)
        # Both anchorings must fit inside B_{r+1}.
        outer.shift_map((), eb)
        outer.shift_map(((0, -1),), eb)

    def test_instances_cached(self):
        assert EdgeBall(2, 1, (0, 1)) is EdgeBall(2, 1, (0, 1))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            EdgeBall(2, 1, (5, 1))


# ----------------------------------------------------------------------
# Placement against walks through a real oriented tree
# ----------------------------------------------------------------------
class OrientedTreeWalk:
    """Follow direction words from the root of an oriented 2k-regular tree.

    Every step goes through ``Orientation.neighbor``; no word is ever
    reduced, since a step back simply returns to the node it left.
    """

    def __init__(self, k, depth=4):
        self.tree = balanced_regular_tree(2 * k, depth)
        self.orientation = orient_tree(self.tree, k)

    def __call__(self, *words):
        node = 0
        for word in words:
            for dim, sign in word:
                node = self.orientation.neighbor(node, dim, sign)
                assert node is not None, "walked off the tree"
        return node

    def overlap(self, ball, anchor, inner):
        """``ball.overlap(anchor, inner)`` read off the tree's nodes."""
        where = {self(w): i for i, w in enumerate(ball.words)}
        assert len(where) == ball.size  # distinct words, distinct nodes
        landed = [(pos, self(anchor, w)) for pos, w in enumerate(inner.words)]
        return [(pos, where[node]) for pos, node in landed if node in where]


@pytest.mark.parametrize("radius", (0, 1, 2))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_node_ball_placement_follows_the_tree(k, radius):
    # A node's ball read from the center and from each neighbor, placed
    # in the center's ball of the same radius (what the exact failure
    # conditions on) and of one more (the Monte Carlo shift maps).
    walk = OrientedTreeWalk(k)
    inner = OrientedBall(k, radius)
    for anchor in [()] + [(d,) for d in all_directions(k)]:
        for container in (inner, OrientedBall(k, radius + 1)):
            assert container.overlap(anchor, inner) == walk.overlap(container, anchor, inner)
        placed = walk.overlap(OrientedBall(k, radius + 1), anchor, inner)
        assert len(placed) == inner.size
        assert OrientedBall(k, radius + 1).shift_map(anchor, inner) == [i for _, i in placed]


@pytest.mark.parametrize("radius", (0, 1, 2))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_edge_ball_placement_follows_the_tree(k, radius):
    walk = OrientedTreeWalk(k)
    for dim in range(k):
        eb = EdgeBall(k, radius, (dim, 1))
        # Its words reach exactly B_r(a) ∪ B_r(b), once each.
        a, b = walk(()), walk(((dim, 1),))
        union = set(walk.tree.bfs_distances(a, cutoff=radius))
        union |= set(walk.tree.bfs_distances(b, cutoff=radius))
        assert sorted(walk(w) for w in eb.words) == sorted(union)
        # Both anchors: the edge leaving the center and the one entering it.
        for anchor in ((), ((dim, -1),)):
            for container in (OrientedBall(k, radius), OrientedBall(k, radius + 1)):
                assert container.overlap(anchor, eb) == walk.overlap(container, anchor, eb)
            outer = OrientedBall(k, radius + 1)
            placed = walk.overlap(outer, anchor, eb)
            assert len(placed) == eb.size
            assert outer.shift_map(anchor, eb) == [i for _, i in placed]
        # The reverse placement: each endpoint's radius-(r+1) ball in the
        # edge ball (what the first speedup's edge view fixes).
        node_ball = OrientedBall(k, radius + 1)
        for anchor in eb.endpoint_words():
            assert eb.overlap(anchor, node_ball) == walk.overlap(eb, anchor, node_ball)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_low_endpoint_sees_the_edge_positively(k):
    walk = OrientedTreeWalk(k)
    for d in all_directions(k):
        low = walk(low_endpoint(d))
        high = walk(low_endpoint(d), ((d[0], 1),))
        assert {low, high} == {0, walk((d,))}
        assert walk.orientation.direction_at(low, high) == (d[0], 1)
