import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngswarm import graphs
from rngswarm.engine import run
from rngswarm.graphs import (
    Graph,
    coords,
    effective_graph,
    graph_metrics,
    is_connected,
    nearest_distances,
    pairwise_distances,
    visibility_graph,
)
from rngswarm.motion import separation_cap
from rngswarm.scenario import load_scenario

from helpers import (
    edge_set,
    naive_connected,
    naive_hop_diameter,
    naive_effective_edges,
    naive_lune_occupants,
    naive_nearest_distances,
    naive_visibility_edges,
    reference_pairwise_distances,
    reference_separation_cap,
    snapshots,
    walled_snapshots,
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
        # a point is a (2,) array, as apply_motion_law returns one
        got = coords([np.array([1, 2]), np.array([3, 4])])
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
        assert edge_set(g) == {(0, 2), (1, 2)}
        assert g.edges.tolist() == [[0, 2], [1, 2]]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, frozenset({(0, 2)}))

    def test_neighbors_sorted(self):
        g = Graph(4, frozenset({(0, 3), (0, 1), (0, 2)}))
        assert g.neighbors(0).tolist() == [1, 2, 3]
        assert len(g.neighbors(0)) == 3
        assert len(g.neighbors(1)) == 1

    def test_has_edge_either_order(self):
        g = Graph(3, frozenset({(0, 2)}))
        assert g.has_edges([(0, 2), (2, 0), (0, 1)]).tolist() == [True, True, False]

    def test_unsorted_array_with_duplicate_and_reversed_pair(self):
        g = Graph(4, np.array([[3, 1], [0, 2], [1, 3], [0, 1]]))
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert g.edges.dtype == np.intp
        with pytest.raises(ValueError, match="read-only"):
            g.edges[0, 0] = 2

    def test_canonical_input_matches_reversed_and_shuffled(self, rng):
        # one normalisation path: input already in canonical order comes out
        # with the same bytes as the same edges reversed and shuffled
        for n in (0, 1, 2, 7, 30):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            canonical = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            g = Graph(n, canonical)
            shuffled = Graph(n, canonical[rng.permutation(len(canonical)), ::-1])
            assert g.edges.tobytes() == shuffled.edges.tobytes() == canonical.tobytes()
            assert g.edges.shape == shuffled.edges.shape == canonical.shape
            assert not g.edges.flags.writeable and canonical.flags.writeable

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(4, np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="pairs"):
            Graph(4).has_edges(np.zeros((2, 3), dtype=int))

    def test_rejects_a_bad_vertex_count(self):
        for bad in (2.5, -1):
            with pytest.raises(ValueError, match="n must be"):
                Graph(bad)

    def test_has_edges_mask_in_both_orders(self):
        g = Graph(5, frozenset({(0, 2), (1, 4), (3, 4)}))
        pairs = [(0, 2), (2, 0), (4, 1), (1, 4), (0, 1), (2, 2), (4, 5), (-1, 0)]
        assert g.has_edges(pairs).tolist() == [True, True, True, True, False, False, False, False]
        assert g.has_edges(np.zeros((0, 2), dtype=int)).shape == (0,)
        assert not Graph(3).has_edges([(0, 1)]).any()

    def test_neighbors_and_degree_match_naive_adjacency(self, rng):
        for n in (1, 2, 7, 30):
            for density in (0.0, 0.2, 0.7):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
                g = Graph(n, [p[::-1] for p in pairs[::-1]])  # reversed pairs, reversed order
                adj = {i: set() for i in range(n)}
                for i, j in pairs:
                    adj[i].add(j)
                    adj[j].add(i)
                for i in range(n):
                    assert g.neighbors(i).tolist() == sorted(adj[i])
                    assert len(g.neighbors(i)) == len(adj[i])

    def test_csr_owner_is_each_entrys_row(self, rng):
        # the owner the CSR keeps is the row expansion the planner would
        # otherwise rebuild: np.repeat(arange(n), degree)
        for n in (0, 1, 2, 7, 30):
            for density in (0.0, 0.2, 0.7):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
                indptr, indices, owner = Graph(n, pairs)._csr
                expected = np.repeat(np.arange(n), indptr[1:] - indptr[:-1])
                assert owner.dtype == expected.dtype
                assert owner.tobytes() == expected.tobytes()
                assert len(owner) == len(indices) == 2 * len(pairs)
                assert not owner.flags.writeable


class TestVisibilityGraph:
    def test_unit_square_with_diagonals(self):
        g = visibility_graph(UNIT_SQUARE, 1.5)
        assert len(g.edges) == 6  # four sides plus both diagonals

    def test_unit_square_sides_only(self):
        g = visibility_graph(UNIT_SQUARE, 1.0)
        assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_range_is_inclusive(self):
        g = visibility_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert edge_set(g) == {(0, 1)}

    def test_single_agent(self):
        g = visibility_graph([(0.0, 0.0)], 1.0)
        assert g.n == 1 and g.edges.shape == (0, 2)

    def test_bad_range(self):
        # WorldConfig's range rule and its words: a positive finite number, never a bool or a string
        for bad in (0.0, math.nan, True, "1"):
            with pytest.raises(ValueError, match="vis_range must be (positive and finite|a number), got"):
                visibility_graph(UNIT_SQUARE, bad)

    @given(positions_strategy(), st.floats(min_value=0.1, max_value=4.0))
    def test_matches_naive_enumeration(self, pts, vis_range):
        g = visibility_graph(pts, vis_range)
        assert edge_set(g) == naive_visibility_edges(pts.tolist(), vis_range)


def lune_occupants(i, j, pts):
    """The trim's occupant count for the pair (i, j), read back from
    effective_graph: the least occupant limit that keeps the edge, with every
    pair in sight."""
    xy = np.asarray(pts, dtype=float)
    g = visibility_graph(xy, 100.0)
    return next(m for m in range(len(xy)) if effective_graph(g, xy, m).has_edges([(i, j)])[0])


class TestLuneCount:
    def test_square_side_holds_center(self):
        assert lune_occupants(0, 1, SQUARE_PLUS_CENTER) == 1

    def test_square_diagonal_holds_three(self):
        # the center and both off-diagonal corners are under sqrt(2) from both ends
        assert lune_occupants(0, 2, SQUARE_PLUS_CENTER) == 3

    def test_rim_occupant_not_counted(self):
        # (3, 4) is at distance exactly 5 from (0, 0): integer arithmetic,
        # no rounding, genuinely on the lens rim of the pair below
        pts = [(0.0, 0.0), (5.0, 0.0), (3.0, 4.0)]
        assert lune_occupants(0, 1, pts) == 0

    def test_symmetric(self):
        assert lune_occupants(2, 0, SQUARE_PLUS_CENTER) == lune_occupants(0, 2, SQUARE_PLUS_CENTER)

    def test_coincident_pair_raises(self):
        # the lens of a coincident pair is undefined; the trim keeps its edge
        with pytest.raises(ValueError, match="coincident"):
            naive_lune_occupants([(1.0, 1.0), (1.0, 1.0)], 0, 1)
        assert lune_occupants(0, 1, [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]) == 0

    @given(positions_strategy(max_n=12))
    def test_matches_naive_enumeration(self, pts):
        lst = pts.tolist()
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                if math.hypot(lst[i][0] - lst[j][0], lst[i][1] - lst[j][1]) == 0.0:
                    continue
                assert lune_occupants(i, j, pts) == naive_lune_occupants(lst, i, j)


class TestEffectiveGraph:
    def test_square_plus_center_trims_to_spokes(self):
        g = visibility_graph(SQUARE_PLUS_CENTER, 1.5)
        eff = effective_graph(g, SQUARE_PLUS_CENTER, 0)
        assert edge_set(eff) == {(0, 4), (1, 4), (2, 4), (3, 4)}

    def test_square_plus_center_relaxed_keeps_sides(self):
        g = visibility_graph(SQUARE_PLUS_CENTER, 1.5)
        eff = effective_graph(g, SQUARE_PLUS_CENTER, 1)
        assert edge_set(eff) == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)}

    def test_boundary_occupant_does_not_trim(self):
        # the third agent sits exactly on the lens rim of the long pair
        # (distance 5 = the pair distance, all integer arithmetic): the
        # strict comparison keeps the edge
        pts = [(0.0, 0.0), (5.0, 0.0), (3.0, 4.0)]
        g = visibility_graph(pts, 6.0)
        eff = effective_graph(g, pts, 0)
        assert eff.has_edges([(0, 1)])[0]

    def test_coincident_pair_edge_is_kept(self):
        pts = [(0.0, 0.0), (0.0, 0.0), (0.4, 0.0)]
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, 0)
        assert eff.has_edges([(0, 1)])[0]

    def test_rejects_negative_limit(self):
        # the limit is an integer >= 0: a NaN limit would keep no edge at all
        g = visibility_graph(UNIT_SQUARE, 1.5)
        for bad in (-1, math.nan, 0.5, True):
            with pytest.raises(ValueError, match="max_lune_occupants"):
                effective_graph(g, UNIT_SQUARE, bad)

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
                assert edge_set(eff) == naive_effective_edges(pts.tolist(), 1.0, limit)

    @given(positions_strategy(max_n=16), st.integers(min_value=0, max_value=3))
    def test_matches_naive_enumeration(self, pts, limit):
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, limit)
        assert edge_set(eff) == naive_effective_edges(pts.tolist(), 1.0, limit)

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
        assert e1.has_edges(e0.edges).all()
        assert e2.has_edges(e1.edges).all()
        assert g.has_edges(e2.edges).all()

    @given(positions_strategy(max_n=30))
    def test_edge_count_bound(self, pts):
        n = len(pts)
        g = visibility_graph(pts, 1.0)
        eff = effective_graph(g, pts, 0)
        if n >= 3:
            assert len(eff.edges) <= 3 * n - 6

    # the example hypothesis draws now and then above: a zero-length edge has
    # an empty lens, so a coincident group keeps a clique, 10 edges against
    # 3 * 5 - 6 = 9; a tie-break by pair index mends it (ROADMAP item 3)
    @pytest.mark.xfail(strict=True, reason="coincident agents keep every edge (ROADMAP item 3)")
    def test_edge_count_bound_holds_for_coincident_agents(self):
        pts = np.zeros((5, 2))
        eff = effective_graph(visibility_graph(pts, 1.0), pts, 0)
        assert len(eff.edges) <= 3 * 5 - 6


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
        assert is_connected(g) == naive_connected(g.n, edge_set(g))


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

    @given(positions_strategy(max_n=15), st.floats(min_value=0.2, max_value=3.0))
    def test_diameter_matches_naive_bfs(self, pts, vis_range):
        g = visibility_graph(pts, vis_range)
        m = graph_metrics(g, g, pts)
        assert m.diameter_hops == naive_hop_diameter(g.n, edge_set(g))
        assert m.connected == (m.diameter_hops >= 0)

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

    # signed zeros, repeated points, and coordinates from 1e-150 to 1e150,
    # where squares approach underflow and overflow
    _COORD = st.one_of(
        st.sampled_from((0.0, -0.0)),
        st.builds(
            lambda m, scale: m * scale,
            st.floats(-1.0, 1.0, allow_nan=False),
            st.sampled_from((1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150)),
        ),
    )

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_the_stacked_oracle_bytewise(self, data):
        points = data.draw(st.lists(st.tuples(self._COORD, self._COORD), min_size=0, max_size=10))
        # repeat some of them
        extra = data.draw(st.lists(st.integers(0, len(points) - 1), max_size=4)) if points else []
        xy = np.array(points + [points[k] for k in extra], dtype=float).reshape(-1, 2)
        got = pairwise_distances(xy)
        assert got.shape == (len(xy), len(xy))
        assert got.tobytes() == reference_pairwise_distances(xy).tobytes()


def _grid_positions(max_n):
    # grid values give coincident pairs and exact ties, free floats the rest
    coord = st.one_of(st.integers(-4, 4).map(lambda k: k * 0.25), st.floats(-1.0, 1.0, allow_nan=False))
    return st.lists(st.tuples(coord, coord), min_size=1, max_size=max_n).map(
        lambda pts: np.asarray(pts, dtype=float)
    )


class TestSharedDistances:
    """Every layer that takes the distance matrix as `dist=`, or the matrix
    and its nearest distances as `distances=`, gives the same bytes with
    them as without; the separation cap reads the nearest distances and
    leaves them as they are."""

    @staticmethod
    def _assert_same_bytes(xy):
        n = len(xy)
        dist = pairwise_distances(xy)
        g = visibility_graph(xy, 1.0)
        assert visibility_graph(xy, 1.0, dist=dist).edges.tobytes() == g.edges.tobytes()
        for limit in (0, 1):
            want = effective_graph(g, xy, limit)
            assert effective_graph(g, xy, limit, dist=dist).edges.tobytes() == want.edges.tobytes()
        eff = effective_graph(g, xy, 0)
        nearest = nearest_distances(dist)
        nearest.setflags(write=False)  # as the engine shares it; the cap must not write into it
        with_dist, without = graph_metrics(g, eff, xy, distances=(dist, nearest)), graph_metrics(g, eff, xy)
        for field in ("min_pair_distance", "max_pair_distance"):
            got, want = getattr(with_dist, field), getattr(without, field)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert with_dist == without
        # the pair range is that of the upper triangle's pairs: (inf, 0) with none
        iu, ju = np.triu_indices(n, k=1)
        pairs = dist[iu, ju]
        want = np.float64((pairs.min(initial=math.inf), pairs.max(initial=0.0)))
        assert np.float64((without.min_pair_distance, without.max_pair_distance)).tobytes() == want.tobytes()
        assert nearest.tobytes() == naive_nearest_distances(dist).tobytes()
        assert np.float64(without.min_pair_distance).tobytes() == nearest.min(initial=math.inf).tobytes()
        for sep in (0.0, 0.1):
            rows = separation_cap(nearest, 1.0, sep)
            assert rows.shape == (n,)
            for i in range(n):
                want = np.float64(reference_separation_cap(i, xy, 1.0, sep))
                assert want.tobytes() == rows[i].tobytes()

    def test_one_agent(self):
        self._assert_same_bytes(np.array([[0.3, -0.2]]))

    def test_two_agents(self):
        self._assert_same_bytes(np.array([[0.0, 0.0], [0.6, 0.8]]))

    def test_coincident_pair(self):
        self._assert_same_bytes(np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.25, 0.4]]))

    @given(_grid_positions(12))
    def test_random_snapshots(self, xy):
        self._assert_same_bytes(xy)


class TestNearestDistances:
    """Each agent's distance to its closest other agent is the naive loop's
    over j != i, byte for byte, and the matrix is left as it was."""

    @staticmethod
    def _assert_naive(xy):
        dist = pairwise_distances(np.asarray(xy, dtype=float).reshape(-1, 2))
        before = dist.tobytes()
        got = nearest_distances(dist)
        assert got.shape == (len(dist),) and got.dtype == np.float64
        assert got.tobytes() == naive_nearest_distances(dist).tobytes()
        assert dist.tobytes() == before
        return got

    def test_no_agent(self):
        assert self._assert_naive([]).tolist() == []

    def test_one_agent_has_no_nearest(self):
        assert self._assert_naive([(0.3, -0.2)]).tolist() == [math.inf]

    def test_two_agents_share_their_distance(self):
        assert self._assert_naive([(0.0, 0.0), (0.6, 0.8)]).tolist() == [1.0, 1.0]

    def test_coincident_groups(self):
        # a triple and a pair each at one point, and an agent on its own
        xy = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.3, 0.4)]
        assert self._assert_naive(xy).tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 0.5]

    @given(snapshots())
    def test_snapshots(self, snap):
        self._assert_naive(snap[0].positions)

    @given(walled_snapshots())
    def test_walled_snapshots(self, snap):
        self._assert_naive(snap[0].positions)


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


class TestDiameter:
    """`Graph._diameter` is the cached hop diameter that `graph_metrics`
    reports: 0 for n <= 1 and -1 for a disconnected graph."""

    @given(st.data())
    def test_matches_naive_bfs(self, data):
        # up to 150 vertices, so the search spans up to three uint64 words: a
        # random spanning path, cut at up to two places, plus sparse chords
        n = data.draw(st.integers(0, 150))
        order = data.draw(st.permutations(range(n)))
        cuts = data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=2))
        edges = [(order[k - 1], order[k]) for k in range(1, n) if k not in cuts]
        if n >= 2:
            vertex = st.integers(0, n - 1)
            chords = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=n // 8))
            edges += chords
        g = Graph(n, edges)
        want = naive_hop_diameter(n, edge_set(g))
        assert g._diameter == want
        assert is_connected(g) == (want >= 0)

    @pytest.mark.parametrize(
        "n, edges, want",
        [(0, [], 0), (1, [], 0), (2, [], -1), (2, [(0, 1)], 1), (4, [(0, 1), (2, 3)], -1),
         (5, _path(5), 4), (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 2),
         (63, _path(63), 62), (64, _path(64), 63), (65, _path(65), 64), (129, [(0, 128)] + _path(128), 128),
         (130, _path(65) + [(65 + i, 65 + j) for i, j in _path(65)], -1)],
        ids=["n0", "n1", "two-apart", "one-edge", "two-pieces", "path", "star",
             "path63", "path64", "path65", "path129", "two-pieces130"],
    )
    def test_small_and_disconnected(self, n, edges, want):
        # path129 runs 128, 0, 1, ..., 127: both its ends lie past the first
        # uint64 word, so a search from the first 64 sources alone falls short
        assert Graph(n, edges)._diameter == want == naive_hop_diameter(n, edges)

    def test_no_n_by_n_array(self):
        # a 32 x 32 king's-move grid: n = 1024, diameter 31. The search's
        # peak stays below one float32 n x n matrix (4 MiB)
        k = 32
        cell = np.arange(k * k).reshape(k, k)
        pairs = [(cell[:, :-1], cell[:, 1:]), (cell[:-1], cell[1:]), (cell[:-1, :-1], cell[1:, 1:]),
                 (cell[:-1, 1:], cell[1:, :-1])]
        g = Graph(k * k, np.concatenate([np.column_stack((a.ravel(), b.ravel())) for a, b in pairs]))
        tracemalloc.start()
        try:
            assert g._diameter == k - 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.n * g.n

    def test_an_idle_run_searches_from_every_vertex_once(self, monkeypatch):
        # the agents never move, so every round keeps the start's graph, and
        # only the first round's metrics derive its diameter
        world = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "adhoc_network.yaml")
        sources = []
        real = graphs._hops

        def counted(graph, src):
            sources.append(len(src))
            return real(graph, src)

        monkeypatch.setattr(graphs, "_hops", counted)
        reports = run(world)
        assert world.n == 25 and len(reports) > 1
        assert sources.count(world.n) == 1


class TestBuiltGraphs:
    """`visibility_graph` and `effective_graph` hand their edges to `Graph`
    without its checks, so they must already be what `Graph` normalises
    them to; `_holds` must agree with `has_edges`."""

    @staticmethod
    def _assert_canonical(graph):
        # reversed pairs in reversed order take every normalising step
        outside = Graph(graph.n, [(j, i) for i, j in graph.edges.tolist()[::-1]])
        assert graph.edges.dtype == outside.edges.dtype
        assert graph.edges.shape == outside.edges.shape
        assert graph.edges.tobytes() == outside.edges.tobytes()
        assert not graph.edges.flags.writeable

    def _assert_builders_canonical(self, xy, vis_range=1.0, obstacles=()):
        g = visibility_graph(xy, vis_range, obstacles)
        self._assert_canonical(g)
        for limit in (0, 1, 2):
            eff = effective_graph(g, xy, limit)
            self._assert_canonical(eff)
            assert g._holds(eff).all()

    @pytest.mark.parametrize(
        "xy",
        [np.zeros((0, 2)), np.array([[0.3, 0.1]]), np.array([[0.0, 0.0], [0.6, 0.8]]),
         np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.25, 0.4]])],
        ids=["n0", "n1", "n2", "coincident-pair", "coincident-in-four"],
    )
    def test_small_and_coincident(self, xy):
        self._assert_builders_canonical(xy)

    @given(snapshots())
    def test_snapshots(self, snap):
        state, _, world = snap
        self._assert_builders_canonical(state.positions, world.vis_range, world.obstacles)

    @given(walled_snapshots())
    def test_walled_snapshots(self, snap):
        state, _, world = snap
        self._assert_builders_canonical(state.positions, world.vis_range, world.obstacles)

    @given(st.data())
    def test_holds_matches_has_edges(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        subset = st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([])
        a = Graph(n, data.draw(subset))
        b = Graph(n, data.draw(subset))
        sub = Graph(n, [tuple(e) for e in a.edges.tolist() if data.draw(st.booleans())])
        for x, y in ((a, b), (b, a), (a, sub), (sub, a), (a, a), (a, Graph(n))):
            assert x._holds(y).tolist() == x.has_edges(y.edges).tolist()

    @given(snapshots(), st.data())
    def test_holds_on_built_graphs(self, snap, data):
        state, eff, world = snap
        xy = state.positions
        moved = xy + data.draw(st.sampled_from((0.0, 0.1, 0.5))) * np.cos(np.arange(2 * len(xy))).reshape(-1, 2)
        for g in (visibility_graph(xy, world.vis_range, world.obstacles),
                  visibility_graph(moved, world.vis_range, world.obstacles)):
            assert g._holds(eff).tolist() == g.has_edges(eff.edges).tolist()
