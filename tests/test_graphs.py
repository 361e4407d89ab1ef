import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngswarm.geom import Point2
from rngswarm.graphs import (
    Graph,
    coords,
    effective_graph,
    graph_metrics,
    is_connected,
    lune_count,
    pairwise_distances,
    visibility_graph,
)

from helpers import (
    naive_connected,
    naive_effective_edges,
    naive_lune_occupants,
    naive_visibility_edges,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_PLUS_CENTER = np.array(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
)


def positions_strategy(max_n=25):
    coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)
    point = st.tuples(coord, coord)
    return st.lists(point, min_size=2, max_size=max_n).map(
        lambda pts: np.asarray(pts, dtype=float)
    )


class TestCoords:
    def test_from_array(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert coords(a).tolist() == a.tolist()

    def test_from_points(self):
        got = coords([Point2(1, 2), Point2(3, 4)])
        assert got.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_from_pairs(self):
        assert coords([(1, 2), (3, 4)]).shape == (2, 2)

    def test_empty(self):
        assert coords([]).shape == (0, 2)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            coords(np.zeros((3, 3)))


class TestGraph:
    def test_normalizes_edge_order(self):
        g = Graph(3, frozenset({(2, 0), (1, 2)}))
        assert g.edges == {(0, 2), (1, 2)}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, frozenset({(0, 2)}))

    def test_neighbors_sorted(self):
        g = Graph(4, frozenset({(0, 3), (0, 1), (0, 2)}))
        assert g.neighbors(0).tolist() == [1, 2, 3]
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_has_edge_either_order(self):
        g = Graph(3, frozenset({(0, 2)}))
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)


class TestVisibilityGraph:
    def test_unit_square_with_diagonals(self):
        g = visibility_graph(UNIT_SQUARE, 1.5)
        assert len(g.edges) == 6  # four sides plus both diagonals

    def test_unit_square_sides_only(self):
        g = visibility_graph(UNIT_SQUARE, 1.0)
        assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_range_is_inclusive(self):
        g = visibility_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert g.edges == {(0, 1)}

    def test_single_agent(self):
        g = visibility_graph([(0.0, 0.0)], 1.0)
        assert g.n == 1 and g.edges == frozenset()

    def test_bad_range(self):
        with pytest.raises(ValueError, match="vis_range"):
            visibility_graph(UNIT_SQUARE, 0.0)

    @given(positions_strategy(), st.floats(min_value=0.1, max_value=4.0))
    def test_matches_naive_enumeration(self, pts, vis_range):
        g = visibility_graph(pts, vis_range)
        assert g.edges == naive_visibility_edges(pts.tolist(), vis_range)


class TestLuneCount:
    def test_square_side_holds_center(self):
        assert lune_count(0, 1, SQUARE_PLUS_CENTER) == 1

    def test_square_diagonal_holds_three(self):
        # the center and both off-diagonal corners are under sqrt(2) from both ends
        assert lune_count(0, 2, SQUARE_PLUS_CENTER) == 3

    def test_rim_occupant_not_counted(self):
        # (3, 4) is at distance exactly 5 from (0, 0): integer arithmetic,
        # no rounding, genuinely on the lens rim of the pair below
        pts = [(0.0, 0.0), (5.0, 0.0), (3.0, 4.0)]
        assert lune_count(0, 1, pts) == 0

    def test_symmetric(self):
        assert lune_count(2, 0, SQUARE_PLUS_CENTER) == lune_count(0, 2, SQUARE_PLUS_CENTER)

    def test_coincident_pair_raises(self):
        with pytest.raises(ValueError, match="coincident"):
            lune_count(0, 1, [(1.0, 1.0), (1.0, 1.0)])

    def test_same_index_raises(self):
        with pytest.raises(ValueError, match="distinct"):
            lune_count(1, 1, SQUARE_PLUS_CENTER)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            lune_count(0, 9, SQUARE_PLUS_CENTER)

    @given(positions_strategy(max_n=12))
    def test_matches_naive_enumeration(self, pts):
        lst = pts.tolist()
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                if math.hypot(lst[i][0] - lst[j][0], lst[i][1] - lst[j][1]) == 0.0:
                    continue
                assert lune_count(i, j, pts) == naive_lune_occupants(lst, i, j)


class TestEffectiveGraph:
    def test_square_plus_center_trims_to_spokes(self):
        g = visibility_graph(SQUARE_PLUS_CENTER, 1.5)
        eff = effective_graph(g, SQUARE_PLUS_CENTER, 0)
        assert eff.edges == {(0, 4), (1, 4), (2, 4), (3, 4)}

    def test_square_plus_center_relaxed_keeps_sides(self):
        g = visibility_graph(SQUARE_PLUS_CENTER, 1.5)
        eff = effective_graph(g, SQUARE_PLUS_CENTER, 1)
        assert eff.edges == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)}

    def test_boundary_occupant_does_not_trim(self):
        # the third agent sits exactly on the lens rim of the long pair
        # (distance 5 = the pair distance, all integer arithmetic): the
        # strict comparison keeps the edge
        pts = [(0.0, 0.0), (5.0, 0.0), (3.0, 4.0)]
        g = visibility_graph(pts, 6.0)
        eff = effective_graph(g, pts, 0)
        assert (0, 1) in eff.edges

    def test_coincident_pair_edge_is_kept(self):
        pts = [(0.0, 0.0), (0.0, 0.0), (0.4, 0.0)]
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, 0)
        assert (0, 1) in eff.edges

    def test_rejects_negative_limit(self):
        g = visibility_graph(UNIT_SQUARE, 1.5)
        with pytest.raises(ValueError, match="max_lune_occupants"):
            effective_graph(g, UNIT_SQUARE, -1)

    def test_rejects_position_count_mismatch(self):
        g = visibility_graph(UNIT_SQUARE, 1.5)
        with pytest.raises(ValueError, match="positions"):
            effective_graph(g, UNIT_SQUARE[:3], 0)

    def test_matches_naive_enumeration_at_larger_n(self, rng):
        # the same density of about 14 visible neighbours at both sizes
        for n, side in ((40, 3.0), (200, 6.7)):
            pts = rng.uniform(0.0, side, size=(n, 2))
            g = visibility_graph(pts, 1.0)
            for limit in (0, 1):
                eff = effective_graph(g, pts, limit)
                assert eff.edges == naive_effective_edges(pts.tolist(), 1.0, limit)

    @given(positions_strategy(max_n=16), st.integers(min_value=0, max_value=3))
    def test_matches_naive_enumeration(self, pts, limit):
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, limit)
        assert eff.edges == naive_effective_edges(pts.tolist(), 1.0, limit)

    @given(positions_strategy(max_n=20))
    def test_trim_preserves_connectivity(self, pts):
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, 0)
        assert is_connected(eff) == is_connected(g)

    @given(positions_strategy(max_n=20))
    def test_levels_are_nested(self, pts):
        g = visibility_graph(pts, 1.0)
        e0 = effective_graph(g, pts, 0)
        e1 = effective_graph(g, pts, 1)
        e2 = effective_graph(g, pts, 2)
        assert e0.edges <= e1.edges <= e2.edges <= g.edges

    @given(positions_strategy(max_n=30))
    def test_edge_count_bound(self, pts):
        n = len(pts)
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, 0)
        if n >= 3:
            assert len(eff.edges) <= 3 * n - 6


class TestConnectivity:
    def test_trivial_sizes(self):
        assert is_connected(Graph(0, frozenset()))
        assert is_connected(Graph(1, frozenset()))

    def test_path_and_split(self):
        assert is_connected(Graph(3, frozenset({(0, 1), (1, 2)})))
        assert not is_connected(Graph(3, frozenset({(0, 1)})))

    @given(positions_strategy(max_n=15), st.floats(min_value=0.2, max_value=3.0))
    def test_matches_naive_bfs(self, pts, vis_range):
        g = visibility_graph(pts, vis_range)
        assert is_connected(g) == naive_connected(g.n, g.edges)


class TestMetrics:
    def test_path_graph_summary(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, 0)
        m = graph_metrics(g, eff, pts)
        assert m.edge_count == 3
        assert m.effective_edge_count == 3
        assert m.connected
        assert m.diameter_hops == 3
        assert m.min_pair_distance == 1.0
        assert m.max_pair_distance == 3.0
        assert m.max_effective_degree == 2

    def test_disconnected_diameter_sentinel(self):
        pts = [(0.0, 0.0), (5.0, 0.0)]
        g = visibility_graph(pts, 1.0)
        m = graph_metrics(g, g, pts)
        assert not m.connected
        assert m.diameter_hops == -1

    def test_single_agent_sentinels(self):
        pts = [(0.0, 0.0)]
        g = visibility_graph(pts, 1.0)
        m = graph_metrics(g, g, pts)
        assert m.min_pair_distance == math.inf
        assert m.max_pair_distance == 0.0
        assert m.diameter_hops == 0
        assert m.connected

    def test_requires_subgraph(self):
        pts = [(0.0, 0.0), (0.5, 0.0)]
        g = visibility_graph(pts, 1.0)
        bigger = Graph(2, frozenset({(0, 1)}))
        smaller = Graph(2, frozenset())
        graph_metrics(g, smaller, pts)  # fine
        with pytest.raises(ValueError, match="subgraph"):
            graph_metrics(smaller, bigger, pts)

    def test_hop_diameter_on_cycle(self):
        # hexagon with unit sides: opposite corners are 3 hops apart
        pts = [
            (math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)
        ]
        g = visibility_graph(pts, 1.05)
        m = graph_metrics(g, g, pts)
        assert m.diameter_hops == 3


class TestPairwiseDistances:
    def test_matches_hypot(self, rng):
        xy = rng.uniform(-1, 1, size=(8, 2))
        dist = pairwise_distances(xy)
        for i in range(8):
            for j in range(8):
                assert dist[i, j] == pytest.approx(
                    math.hypot(*(xy[i] - xy[j])), abs=1e-12
                )
