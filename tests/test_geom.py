import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngswarm.geom import (
    Polygon,
    _contacts,
    clamp_fraction,
    clamp_point_xy,
    segments_blocked,
)
from rngswarm.graphs import effective_graph, pairwise_distances, visibility_graph
from rngswarm.properties import _clamp_rows, bisect_clamp_fraction, random_clamp_instance

from helpers import (
    margin_points,
    naive_lune_occupants,
    pillar_fields,
    reference_clamp_point,
    scalar_blocks,
    scalar_segments_intersect,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def in_lens(k, i, j):
    """Whether point k lies strictly inside the lens of the pair (i, j): the
    trim then drops the edge (i, j)."""
    xy = np.array([i, j, k], dtype=float)
    return not effective_graph(visibility_graph(xy, 100.0), xy, 0).has_edges([(0, 1)])[0]


class TestPoints:
    def test_distance(self):
        # lengths are sqrt(dx*dx + dy*dy): a 3-4-5 triangle is exact
        d = pairwise_distances(np.array([(0.0, 0.0), (3.0, 4.0), (-1.0, -1.0), (-1.0, -1.0)]))
        assert d[0, 1] == 5.0
        assert d[2, 3] == 0.0

    def test_disc_contains_is_closed(self):
        # a clamp disc includes its rim: a target on it is reached, one just
        # beyond it is cut back to the rim
        cur, centers = np.zeros((2, 2)), np.zeros((2, 2))
        tgt = np.array([[1.0, 0.0], [1.0 + 1e-6, 0.0]])
        s = clamp_fraction(cur, tgt, centers, np.ones(2), np.arange(2))
        assert s[0] == 1.0
        assert s[1] < 1.0


class TestLune:
    def test_point_inside(self):
        assert in_lens((0.5, 0.1), (0, 0), (1, 0))

    def test_midpoint_inside(self):
        assert in_lens((0.5, 0.0), (0, 0), (1, 0))

    def test_boundary_point_excluded(self):
        # (3, 4) is at distance exactly 5 from (0, 0) — on the lens rim of a
        # pair at distance 5, and well inside the disc around the other end
        assert not in_lens((3, 4), (0, 0), (5, 0))
        # nudged one step inward it counts
        assert in_lens((3, 3.9999999), (0, 0), (5, 0))

    def test_endpoints_excluded(self):
        assert not in_lens((0, 0), (0, 0), (1, 0))
        assert not in_lens((1, 0), (0, 0), (1, 0))

    def test_far_point_excluded(self):
        assert not in_lens((2.0, 0.0), (0, 0), (1, 0))

    def test_coincident_pair_raises(self):
        # the lens of a coincident pair is undefined; the trim keeps its edge
        with pytest.raises(ValueError, match="coincident"):
            naive_lune_occupants([(1.0, 1.0), (1.0, 1.0), (0.3, 0.3)], 0, 1)
        assert not in_lens((0.3, 0.3), (1, 1), (1, 1))

    def test_symmetric_in_pair_order(self):
        k, a, b = (0.4, -0.2), (0, 0), (1, 0)
        assert in_lens(k, a, b) == in_lens(k, b, a)


ORIGIN = np.zeros((1, 2))
ONE_DISC = np.zeros(1, dtype=np.intp)


class TestClampFraction:
    """The clamp takes rows; each example is a one-row call, or one row per case."""

    def test_single_disc_frozen_example(self):
        # ray (0,0)->(3,0) leaves the disc centred (0.5,0) r=1 at x=1.5
        tgt, centers, radii = np.array([[3.0, 0.0]]), np.array([[0.5, 0.0]]), np.array([1.0])
        s = clamp_fraction(ORIGIN, tgt, centers, radii, ONE_DISC)
        assert s.shape == (1,)
        assert s[0] == pytest.approx(0.5, abs=1e-12)
        q = clamp_point_xy(ORIGIN, tgt, centers, radii, ONE_DISC)
        assert q.shape == (1, 2)
        assert q[0] == pytest.approx((1.5, 0.0), abs=1e-9)

    def test_no_constraints_returns_target(self):
        tgt, centers, radii, owner = np.array([[3.0, 7.0]]), np.empty((0, 2)), np.empty(0), np.empty(0, np.intp)
        assert clamp_fraction(ORIGIN, tgt, centers, radii, owner).tolist() == [1.0]
        assert clamp_point_xy(ORIGIN, tgt, centers, radii, owner).tolist() == [[3.0, 7.0]]

    def test_target_already_feasible(self):
        s = clamp_fraction(ORIGIN, np.array([[0.2, 0.0]]), ORIGIN, np.array([1.0]), ONE_DISC)
        assert s.tolist() == [1.0]

    def test_zero_length_segment(self):
        cur = np.array([[0.5, 0.5]])
        assert clamp_fraction(cur, cur, ORIGIN, np.array([1.0]), ONE_DISC).tolist() == [1.0]

    def test_two_discs_take_the_tighter_one(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        s = clamp_fraction(ORIGIN, np.array([[4.0, 0.0]]), centers, np.array([3.0, 1.5]), np.zeros(2, np.intp))
        # second disc exits at x=2.5, first at x=3
        assert s[0] == pytest.approx(2.5 / 4.0, abs=1e-12)

    def test_infeasible_start_raises(self):
        with pytest.raises(ValueError, match="violates"):
            clamp_fraction(np.array([[5.0, 5.0]]), ORIGIN, ORIGIN, np.array([1.0]), ONE_DISC)

    def test_start_on_boundary_gives_zero_forward_motion(self):
        s = clamp_fraction(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]), ORIGIN, np.array([1.0]), ONE_DISC)
        assert s[0] == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_bisection_oracle(self, rng):
        cases = [random_clamp_instance(rng) for _ in range(1000)]
        s = clamp_fraction(*_clamp_rows(cases))
        for row, case in zip(s.tolist(), cases):
            assert abs(row - bisect_clamp_fraction(*case)) <= 1e-7

    def test_clamped_point_feasible_and_maximal(self, rng):
        cases = [c for c in (random_clamp_instance(rng) for _ in range(500)) if len(c[2])]
        rows = _clamp_rows(cases)
        s, q = clamp_fraction(*rows), clamp_point_xy(*rows)
        for row, (cur, tgt, centers, radii) in enumerate(cases):
            d = np.sqrt(((q[row] - centers) ** 2).sum(axis=1))
            assert np.all(d <= radii + 1e-9)
            if s[row] < 1.0 - 1e-9:
                # one part in 1e6 further along the segment breaks some disc
                q2 = cur + (s[row] + 1e-6) * (tgt - cur)
                d2 = np.sqrt(((q2 - centers) ** 2).sum(axis=1))
                assert np.any(d2 > radii)

    def test_rows_match_single_point_calls(self, rng):
        # one call over many rows, each with its own discs (some with none),
        # gives each row the single-point reference clamp byte for byte; a
        # row with no discs keeps its target
        cases = [random_clamp_instance(rng) for _ in range(3000)]
        rows = clamp_point_xy(*_clamp_rows(cases))
        assert any(len(c[2]) == 0 for c in cases)
        for q, (cur, tgt, centers, radii) in zip(rows, cases):
            want = reference_clamp_point(cur, tgt, centers, radii) if len(centers) else tgt
            assert q.tobytes() == want.tobytes()


def meet(ax, ay, bx, by, cx, cy, dx, dy):
    """`_contacts` of a-b against c-d, their ends stacked [x | y][a | b | c | d]
    as `Polygon` stacks its edge pairs."""
    return _contacts(np.array(((ax, bx, cx, dx), (ay, by, cy, dy)), dtype=float))


class TestSegmentIntersection:
    def test_proper_crossing(self):
        assert meet(0, 0, 1, 1, 0, 1, 1, 0)

    def test_disjoint(self):
        assert not meet(0, 0, 1, 0, 0, 1, 1, 1)

    def test_shared_endpoint_counts(self):
        assert meet(0, 0, 1, 0, 1, 0, 2, 5)

    def test_t_junction_counts(self):
        assert meet(0, 0, 2, 0, 1, 0, 1, 1)

    def test_collinear_overlap_counts(self):
        assert meet(0, 0, 2, 0, 1, 0, 3, 0)

    def test_collinear_disjoint(self):
        assert not meet(0, 0, 1, 0, 2, 0, 3, 0)

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    @settings(max_examples=200)
    def test_symmetric_in_argument_order(self, ax, ay, bx, by, cx, cy, dx, dy):
        first = meet(ax, ay, bx, by, cx, cy, dx, dy)
        second = meet(cx, cy, dx, dy, ax, ay, bx, by)
        assert first == second
        assert first == scalar_segments_intersect(ax, ay, bx, by, cx, cy, dx, dy)


SQUARE = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))


class TestPolygon:
    def test_accepts_bare_pairs(self):
        p = Polygon(((0, 0), (1, 0), (0, 1)))
        assert p.vertices[1] == (1.0, 0.0)

    def test_a_polygon_is_its_vertices(self):
        # the wall kernels build their edge and box tables from the vertices
        assert list(vars(Polygon(SQUARE.vertices))) == ["vertices"]

    def test_clockwise_input_is_reversed(self):
        ccw = Polygon(((0, 0), (1, 0), (0, 1)))
        cw = Polygon(((0, 1), (1, 0), (0, 0)))
        assert set(ccw.vertices) == set(cw.vertices)
        assert cw.contains_xy(0.25, 0.25)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon(((0, 0), (1, 0)))

    def test_coincident_consecutive_vertices(self):
        with pytest.raises(ValueError, match="coincident"):
            Polygon(((0, 0), (0, 0), (1, 1)))

    def test_rejects_non_finite_vertices(self):
        with pytest.raises(ValueError, match="finite"):
            Polygon(((0, 0), (math.nan, 0.0), (1, 1)))
        with pytest.raises(ValueError, match="finite"):
            Polygon(((0, 0), (1, 0), (0.0, math.inf)))

    def test_zero_area(self):
        with pytest.raises(ValueError, match="degenerate"):
            Polygon(((0, 0), (1, 1), (2, 2)))

    def test_self_intersection(self):
        # asymmetric bowtie: nonzero area, edges 1 and 3 cross at (1.2, 0.6)
        with pytest.raises(ValueError, match="not simple"):
            Polygon(((0, 0), (3, 0), (0, 1), (2, 1)))

    def test_contains_interior_and_exterior(self):
        assert SQUARE.contains_xy(1.0, 1.0)
        assert not SQUARE.contains_xy(3.0, 1.0)
        assert not SQUARE.contains_xy(-0.001, 1.0)

    def test_boundary_counts_as_contained(self):
        assert SQUARE.contains_xy(2.0, 1.0)  # edge
        assert SQUARE.contains_xy(0.0, 0.0)  # vertex
        assert SQUARE.contains_xy(1.0, 2.0)

    def test_a_point_by_a_vertex_is_held_by_every_wall_test(self):
        # (-1e-12, -1e-12) is off the square's edge lines by more than the
        # cross-product cutoff allows, but the vertex (0, 0) lies in its
        # 1e-12 box: containment, the zero-length segment and the start
        # check of the engine agree that the wall holds it
        x = y = -1e-12
        assert SQUARE.contains_xy(x, y)
        assert SQUARE.blocks_segment_xy(x, y, x, y)
        assert segments_blocked(np.array([[x, y]]), np.array([[x, y]]), (SQUARE,)).tolist() == [True]

    def test_predicates_refuse_non_finite_coordinates(self):
        # the wall kernels answer a NaN by accident: from (nan, 4) this
        # triangle read as blocking the segment to (3, 0.5), whose end is on
        # its edge, and as not blocking the one to (2, 0.5)
        tri = Polygon(((3, 0), (4, 1), (3, 2)))
        for x2 in (3.0, 2.0):
            with pytest.raises(ValueError, match="^segment coordinates must be finite$"):
                tri.blocks_segment_xy(math.nan, 4.0, x2, 0.5)
        with pytest.raises(ValueError, match="finite"):
            tri.blocks_segment_xy([3.5, 3.5], [1.0, 1.0], [2.0, 2.0], [1.0, math.inf])
        for x, y in ((math.nan, 1.0), (3.5, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                tri.contains_xy(x, y)

    def test_concave_polygon_containment(self):
        # L-shape: the notch around (1.5, 1.5) is outside
        ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert ell.contains_xy(0.5, 1.5)
        assert not ell.contains_xy(1.5, 1.5)
        assert ell.contains_xy(1.5, 0.5)

    def test_blocks_crossing_segment(self):
        assert SQUARE.blocks_segment_xy(-1, 1, 3, 1)

    def test_blocks_segment_fully_inside(self):
        assert SQUARE.blocks_segment_xy(0.5, 0.5, 1.5, 1.5)

    def test_blocks_grazing_segment(self):
        # running exactly along the top edge counts as contact
        assert SQUARE.blocks_segment_xy(-1.0, 2.0, 3.0, 2.0)

    def test_blocks_vertex_touch(self):
        assert SQUARE.blocks_segment_xy(-1.0, -1.0, 0.0, 0.0)

    def test_does_not_block_clear_segment(self):
        assert not SQUARE.blocks_segment_xy(-1.0, 3.0, 3.0, 3.0)
        assert not SQUARE.blocks_segment_xy(2.1, 0.0, 2.1, 2.0)

    @given(st.floats(min_value=-3, max_value=5), st.floats(min_value=-3, max_value=5))
    @settings(max_examples=200)
    def test_contains_matches_winding_free_reference(self, x, y):
        # for an axis-aligned square the answer is the box test
        expected = 0.0 <= x <= 2.0 and 0.0 <= y <= 2.0
        # skip hair-thin boundary disagreements: the polygon test is
        # deliberately tolerant within 1e-12 of an edge
        on_edge = min(abs(x), abs(x - 2), abs(y), abs(y - 2)) < 1e-9
        if not on_edge:
            assert SQUARE.contains_xy(x, y) == expected


# grid values put points and segment ends on edges and vertices; free floats
# give everything in between
_COORD = st.one_of(
    st.integers(-4, 12).map(lambda k: k * 0.25),
    st.floats(min_value=-1, max_value=3, allow_nan=False, allow_subnormal=False),
)
POLYGONS = (
    SQUARE,
    Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))),  # non-convex
    Polygon(((0.25, 0.25), (1.75, 0.5), (0.5, 1.5))),
)


class TestElementwisePredicates:
    """The array predicates are the scalar ones of `helpers`, element by element."""

    @settings(max_examples=300)
    @given(st.sampled_from(POLYGONS), st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=30))
    def test_arrays_match_the_scalar_oracle(self, poly, segments):
        a = np.array(segments)
        other = np.roll(a, 1, axis=0)
        # a point is held where the zero-length segment at it is blocked
        assert poly.contains_xy(a[:, 0], a[:, 1]).tolist() == [scalar_blocks(poly, *s[:2], *s[:2]) for s in segments]
        assert poly.blocks_segment_xy(*a.T).tolist() == [scalar_blocks(poly, *s) for s in segments]
        assert meet(*a.T, *other.T).tolist() == [
            scalar_segments_intersect(*s, *t) for s, t in zip(segments, other.tolist())
        ]
        blocked = segments_blocked(a[:, :2], a[:, 2:], POLYGONS)
        assert blocked.tolist() == [any(scalar_blocks(p, *s) for p in POLYGONS) for s in segments]

    @settings(max_examples=200)
    @given(st.data())
    def test_pillar_fields_match_the_scalar_oracle(self, data):
        # one pass over 9 to 16 pillars, touching ones and shared edge lines
        # among them, is the per-polygon scalar test; some ends sit exactly
        # SIGHT_MARGIN outside a pillar edge, the rest anywhere
        pillars = data.draw(pillar_fields())
        point = st.one_of(st.tuples(_COORD, _COORD).map(lambda p: (p[0] - 1.0, p[1] - 1.0)), margin_points(pillars))
        segments = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=30))
        a = np.array(segments, dtype=float)
        blocked = segments_blocked(a[:, 0], a[:, 1], pillars)
        assert blocked.tolist() == [any(scalar_blocks(p, *s, *t) for p in pillars) for s, t in segments]
        # a zero-length segment at each end: a point touching a pillar
        touched = segments_blocked(a[:, 0], a[:, 0], pillars)
        assert touched.tolist() == [any(scalar_blocks(p, *s, *s) for p in pillars) for s, _ in segments]

    def test_a_scalar_call_is_the_0d_case(self):
        assert SQUARE.contains_xy(1.0, 1.0).shape == ()
        assert SQUARE.blocks_segment_xy(-1.0, 1.0, 3.0, 1.0).shape == ()

    def test_no_obstacles_block_nothing(self):
        assert segments_blocked(np.zeros((3, 2)), np.ones((3, 2)), ()).tolist() == [False] * 3
