import logging
import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngswarm.engine import InitSpec, SwarmState, WorldConfig, _advance_waypoints, run
from rngswarm.geom import SIGHT_MARGIN, Polygon
from rngswarm.graphs import Graph, effective_graph, visibility_graph
from rngswarm.motion import BehaviorSpec, _row_sums, apply_motion_law, desired_target, separation_cap
from rngswarm.properties import sample_connected_positions

from helpers import dist, reference_motion_law, reference_row_sums, scalar_blocks, snapshots, walled_snapshots


def make_state(positions, waypoint_index=0):
    return SwarmState(round=0, positions=np.asarray(positions, dtype=float), waypoint_index=waypoint_index)


def make_world(positions, behavior, *, vis_range=2.0, min_separation=0.0, obstacles=()):
    return WorldConfig(
        n=len(positions),
        vis_range=vis_range,
        behavior=behavior,
        init=InitSpec(positions=tuple(positions)),
        min_separation=min_separation,
        obstacles=tuple(obstacles),
    )


class TestBehaviorSpec:
    def test_basic_construction(self):
        spec = BehaviorSpec(kind="gather", max_step=0.2)
        assert spec.kind == "gather"
        assert spec.desired_spacing == 0.0
        assert spec.spring_gain == 0.5
        assert spec.waypoints == ()

    def test_waypoints_normalised_to_float_tuples(self):
        spec = BehaviorSpec(kind="leader_follow", max_step=1.0, waypoints=[[1, 2], (3.0, 4.5)])
        assert spec.waypoints == ((1.0, 2.0), (3.0, 4.5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown behavior kind"):
            BehaviorSpec(kind="swarm", max_step=0.2)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, math.nan])
    def test_bad_max_step(self, bad):
        with pytest.raises(ValueError, match="max_step must be positive"):
            BehaviorSpec(kind="idle", max_step=bad)

    def test_bad_spacing(self):
        with pytest.raises(ValueError, match="desired_spacing"):
            BehaviorSpec(kind="formation", max_step=0.2, desired_spacing=-0.1)

    @pytest.mark.parametrize("gain", [0.0, 1.5, -0.3])
    def test_bad_gain(self, gain):
        with pytest.raises(ValueError, match="spring_gain"):
            BehaviorSpec(kind="formation", max_step=0.2, spring_gain=gain)

    def test_bad_leader_index(self):
        with pytest.raises(ValueError, match="leader_index"):
            BehaviorSpec(kind="leader_follow", max_step=0.2, leader_index=-1)

    def test_bad_waypoint_tolerance(self):
        with pytest.raises(ValueError, match="waypoint_tolerance"):
            BehaviorSpec(kind="leader_follow", max_step=0.2, waypoint_tolerance=-1.0)

    def test_non_finite_waypoint(self):
        with pytest.raises(ValueError, match="waypoint coordinates must be finite"):
            BehaviorSpec(kind="leader_follow", max_step=0.2, waypoints=((math.nan, 0.0),))

    def test_for_range_defaults(self):
        # step budget a fifth of the range, spacing a tenth, tolerance a twentieth
        spec = BehaviorSpec.for_range("gather", 2.0)
        assert spec.max_step == 0.4
        assert spec.desired_spacing == 0.2
        assert spec.waypoint_tolerance == 0.1
        assert spec.spring_gain == 0.5

    def test_for_range_overrides(self):
        spec = BehaviorSpec.for_range(
            "formation", 2.0, max_step=0.3, desired_spacing=0.5, spring_gain=0.25
        )
        assert spec.max_step == 0.3
        assert spec.desired_spacing == 0.5
        assert spec.spring_gain == 0.25


def step_toward(i, positions, target, edges, vis_range):
    """Agent i's clamped step toward `target` with no floor and no step cap."""
    spec = BehaviorSpec(kind="leader_follow", max_step=100.0, leader_index=i, waypoints=(target,))
    world = WorldConfig(
        n=len(positions),
        vis_range=vis_range,
        behavior=BehaviorSpec(kind="idle", max_step=0.1),
        init=InitSpec(box=(0.0, 0.0, 1.0, 1.0)),  # the snapshot is given, not sampled
        min_separation=0.0,
    )
    eff = Graph(n=len(positions), edges=frozenset(edges))
    return apply_motion_law(i, make_state(positions), eff, spec, world)


class TestAllowableDisc:
    """The disc shared by an effective pair: radius V/2 at the pair midpoint."""

    def test_midpoint_and_radius(self):
        # disc centred (0.5, 0) with radius 1: the ray toward (1, 2) leaves it at (0.5, 1)
        q = step_toward(0, [(0.0, 0.0), (1.0, 0.0)], (1.0, 2.0), {(0, 1)}, vis_range=2.0)
        assert tuple(q) == pytest.approx((0.5, 1.0), abs=1e-9)

    def test_contains_both_endpoints(self):
        # the neighbour's own position lies in the shared disc, so it is reached exactly
        q = step_toward(0, [(0.0, 0.0), (1.2, 0.9)], (1.2, 0.9), {(0, 1)}, vis_range=2.0)
        assert tuple(q) == (1.2, 0.9)

    def test_pair_at_exactly_the_range(self):
        # the mover sits on the rim: it cannot back away, but it can close in
        positions = [(0.0, 0.0), (2.0, 0.0)]
        away = step_toward(0, positions, (-1.0, 0.0), {(0, 1)}, vis_range=2.0)
        assert tuple(away) == pytest.approx((0.0, 0.0), abs=1e-9)
        closer = step_toward(0, positions, (0.5, 0.0), {(0, 1)}, vis_range=2.0)
        assert tuple(closer) == (0.5, 0.0)

    def test_pair_beyond_range_raises(self):
        with pytest.raises(RuntimeError, match="allowable region"):
            step_toward(0, [(0.0, 0.0), (2.1, 0.0)], (1.0, 0.0), {(0, 1)}, vis_range=2.0)

    def test_symmetric_in_argument_order(self):
        # whichever end of the pair moves, it is clamped to the same disc
        a, b = (0.2, -0.4), (1.0, 0.3)
        mid = (0.6, -0.05)
        qa = step_toward(0, [a, b], (-5.0, -5.0), {(0, 1)}, vis_range=2.0)
        qb = step_toward(0, [b, a], (5.0, 5.0), {(0, 1)}, vis_range=2.0)
        for q in (qa, qb):
            assert math.hypot(q[0] - mid[0], q[1] - mid[1]) == pytest.approx(1.0, abs=1e-9)

    def test_any_two_points_inside_stay_visible(self, rng):
        # the whole point of the disc: it has diameter vis_range, so both ends
        # of a pair can move at once and still see each other
        for _ in range(200):
            p0 = (0.0, 0.0)
            p1 = tuple(rng.uniform(-1.4, 1.4, size=2))
            if math.hypot(*p1) > 2.0:
                continue
            t0, t1 = (tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(2))
            q0 = step_toward(0, [p0, p1], t0, {(0, 1)}, vis_range=2.0)
            q1 = step_toward(1, [p0, p1], t1, {(0, 1)}, vis_range=2.0)
            assert dist(q0, q1) <= 2.0 + 1e-9


class TestEffectiveAllowableRegion:
    """A mover stays in the intersection of the discs of all its effective edges."""

    TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_one_disc_per_effective_neighbour(self):
        # discs centred (0.5, 0) and (0, 0.5), radius 0.5: along the diagonal
        # both allow up to (0.5, 0.5)
        q = step_toward(0, self.TRIANGLE, (1.0, 1.0), {(0, 1), (0, 2)}, vis_range=1.0)
        assert tuple(q) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_contains_is_the_intersection(self):
        # (0.9, 0) is inside the disc toward agent 1 but leaves the disc toward
        # agent 2, whose rim passes through the mover: no progress is possible
        q = step_toward(0, self.TRIANGLE, (0.9, 0.0), {(0, 1), (0, 2)}, vis_range=1.0)
        assert tuple(q) == pytest.approx((0.0, 0.0), abs=1e-9)
        only_one = step_toward(0, self.TRIANGLE, (0.9, 0.0), {(0, 1)}, vis_range=1.0)
        assert tuple(only_one) == (0.9, 0.0)

    def test_isolated_vertex_is_unconstrained(self):
        positions = [(0.0, 0.0), (0.8, 0.0), (0.8, 0.5)]
        q = step_toward(0, positions, (-40.0, 30.0), {(1, 2)}, vis_range=1.0)
        assert tuple(q) == (-40.0, 30.0)


class TestDesiredTarget:
    def test_gather_moves_to_neighbour_centroid(self):
        state = make_state([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        eff = Graph(n=3, edges=frozenset({(0, 1), (0, 2)}))
        spec = BehaviorSpec(kind="gather", max_step=1.0)
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.5, 0.5)

    def test_gather_capped_at_max_step(self):
        state = make_state([(0.0, 0.0), (1.0, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(kind="gather", max_step=0.2)
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.2, 0.0)

    def test_gather_with_no_neighbours_holds(self):
        state = make_state([(0.3, 0.7), (5.0, 5.0)])
        eff = Graph(n=2, edges=frozenset())
        spec = BehaviorSpec(kind="gather", max_step=0.2)
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.3, 0.7)

    def test_idle_holds(self):
        state = make_state([(0.3, 0.7), (0.5, 0.5)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(kind="idle", max_step=0.2)
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.3, 0.7)

    def test_formation_spring_pull(self):
        # gain 0.5 on slack (0.75 - 0.25) pulls a quarter unit along the edge
        state = make_state([(0.0, 0.0), (0.75, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(kind="formation", max_step=10.0, desired_spacing=0.25, spring_gain=0.5)
        t = desired_target(0, state, eff, spec)
        assert t[0] == pytest.approx(0.25, abs=1e-12)
        assert t[1] == 0.0

    def test_formation_at_desired_spacing_holds(self):
        state = make_state([(0.0, 0.0), (0.25, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(kind="formation", max_step=10.0, desired_spacing=0.25, spring_gain=0.5)
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.0, 0.0)

    def test_formation_pushes_apart_when_too_close(self):
        state = make_state([(0.0, 0.0), (0.1, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(kind="formation", max_step=10.0, desired_spacing=0.25, spring_gain=0.5)
        t = desired_target(0, state, eff, spec)
        assert t[0] < 0.0  # negative slack pushes away from the neighbour
        assert t[1] == 0.0

    def test_formation_skips_coincident_neighbour(self):
        state = make_state([(0.0, 0.0), (0.0, 0.0), (0.75, 0.0)])
        eff = Graph(n=3, edges=frozenset({(0, 1), (0, 2)}))
        spec = BehaviorSpec(kind="formation", max_step=10.0, desired_spacing=0.25, spring_gain=0.5)
        t = desired_target(0, state, eff, spec)
        assert math.isfinite(t[0]) and math.isfinite(t[1])
        assert t[0] == pytest.approx(0.25, abs=1e-12)  # only the distinct neighbour pulls

    def test_leader_heads_for_current_waypoint(self):
        state = make_state([(0.0, 0.0), (0.5, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.25, waypoints=((2.0, 0.0), (5.0, 5.0))
        )
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.25, 0.0)

    def test_leader_tracks_waypoint_progress(self):
        state = make_state([(0.0, 0.0), (0.5, 0.0)], waypoint_index=1)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.25, waypoints=((2.0, 0.0), (5.0, 5.0))
        )
        t = desired_target(0, state, eff, spec)
        assert t[0] == pytest.approx(t[1], abs=1e-12)  # toward (5, 5) now
        assert t[0] > 0.0

    def test_leader_holds_once_waypoints_exhausted(self):
        state = make_state([(0.1, 0.2), (0.5, 0.0)], waypoint_index=2)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.25, waypoints=((2.0, 0.0), (5.0, 5.0))
        )
        t = desired_target(0, state, eff, spec)
        assert tuple(t) == (0.1, 0.2)

    def test_followers_gather(self):
        state = make_state([(0.0, 0.0), (0.5, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.25, waypoints=((2.0, 0.0),)
        )
        t = desired_target(1, state, eff, spec)
        assert tuple(t) == (0.25, 0.0)  # toward the leader, capped at max_step

    def test_never_exceeds_max_step(self, rng):
        spec = BehaviorSpec(kind="gather", max_step=0.2)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            xy = rng.uniform(-1.0, 1.0, size=(n, 2))
            g = visibility_graph(xy, 2.0)
            eff = effective_graph(g, xy, 1)
            state = make_state(xy)
            targets = desired_target(np.arange(n), state, eff, spec)
            for i, t in enumerate(targets):
                step = math.sqrt((t[0] - xy[i, 0]) ** 2 + (t[1] - xy[i, 1]) ** 2)
                assert step <= 0.2 + 1e-12


class TestSeparationCap:
    def test_half_the_slack_of_the_nearest_neighbour(self):
        xy = [(0.0, 0.0), (0.5, 0.0), (0.75, 0.0)]
        assert separation_cap(0, xy, vis_range=1.0, min_separation=0.1) == 0.2
        assert separation_cap(0, xy, vis_range=1.0, min_separation=0.0) == 0.25

    def test_zero_at_exactly_the_floor(self, caplog):
        xy = [(0.0, 0.0), (0.25, 0.0)]
        with caplog.at_level(logging.WARNING, logger="rngswarm.motion"):
            cap = separation_cap(0, xy, vis_range=1.0, min_separation=0.25)
        assert cap == 0.0
        assert caplog.records == []  # at the floor is fine, only below it warns

    def test_warns_below_the_floor(self, caplog):
        xy = [(0.0, 0.0), (0.2, 0.0)]
        with caplog.at_level(logging.WARNING, logger="rngswarm.motion"):
            cap = separation_cap(0, xy, vis_range=1.0, min_separation=0.25)
        assert cap == 0.0
        assert any("below the separation floor" in r.message for r in caplog.records)

    def test_unbounded_with_nothing_visible(self):
        xy = [(0.0, 0.0), (5.0, 0.0)]
        assert separation_cap(0, xy, vis_range=1.0, min_separation=0.1) == math.inf

    def test_pairs_beyond_range_not_inspected(self):
        # the far agent is closer than the visible one would allow, but out of range
        xy = [(0.0, 0.0), (0.5, 0.0), (1.5, 0.0)]
        assert separation_cap(0, xy, vis_range=1.0, min_separation=0.0) == 0.25

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError, match="min_separation"):
            separation_cap(0, [(0.0, 0.0), (1.0, 0.0)], vis_range=2.0, min_separation=-0.1)


class TestApplyMotionLaw:
    def test_reachable_target_returned_exactly(self):
        positions = [(0.0, 0.0), (1.8, 0.0)]
        spec = BehaviorSpec(kind="leader_follow", max_step=1.0, waypoints=((0.3, 0.4),))
        world = make_world(positions, spec, vis_range=2.0)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert tuple(q) == (0.3, 0.4)

    def test_clamped_at_the_allowable_disc(self):
        # neighbour at (1,0), range 2: the shared disc is centred (0.5,0) with
        # radius 1, so a run at (3,0) stops on its rim at (1.5,0)
        positions = [(0.0, 0.0), (1.0, 0.0)]
        spec = BehaviorSpec(kind="leader_follow", max_step=3.0, waypoints=((3.0, 0.0),))
        world = make_world(positions, spec, vis_range=2.0)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert tuple(q) == (1.5, 0.0)
        assert dist(q, (1.0, 0.0)) <= 2.0  # the edge survives the move

    def test_separation_cap_binds(self):
        # slack to the neighbour is 1 - 0.2; half of it caps the step at 0.4
        positions = [(0.0, 0.0), (1.0, 0.0)]
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.8, desired_spacing=0.2, waypoints=((3.0, 0.0),)
        )
        world = make_world(positions, spec, vis_range=2.0, min_separation=0.2)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert q[0] == pytest.approx(0.4, abs=1e-12)
        assert q[1] == 0.0

    def test_cap_then_disc_clamp(self):
        # step budget 0.9 toward (-5,0) is first capped at (1.8-0.2)/2 = 0.8,
        # then the disc toward the neighbour (centre (0.9,0), radius 1) cuts
        # the retreat at x = -0.1
        positions = [(0.0, 0.0), (1.8, 0.0)]
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.9, desired_spacing=0.2, waypoints=((-5.0, 0.0),)
        )
        world = make_world(positions, spec, vis_range=2.0, min_separation=0.2)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert q[0] == pytest.approx(-0.1, abs=1e-9)
        assert q[1] == 0.0
        assert dist(q, (1.8, 0.0)) <= 2.0 + 1e-9

    def test_zero_cap_holds_exactly(self):
        positions = [(0.0, 0.0), (0.2, 0.0)]
        spec = BehaviorSpec(kind="gather", max_step=0.8, desired_spacing=0.2)
        world = make_world(positions, spec, vis_range=2.0, min_separation=0.2)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert tuple(q) == (0.0, 0.0)

    def test_effective_neighbour_beyond_range_raises(self):
        positions = [(0.0, 0.0), (1.0, 0.0)]
        spec = BehaviorSpec(kind="gather", max_step=0.2)
        world = make_world(positions, spec, vis_range=2.0)
        bad_state = make_state([(0.0, 0.0), (3.0, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        with pytest.raises(RuntimeError, match="allowable region"):
            apply_motion_law(0, bad_state, eff, spec, world)

    def test_isolated_agent_moves_freely(self):
        positions = [(0.0, 0.0), (1.0, 0.0)]
        spec = BehaviorSpec(kind="leader_follow", max_step=1.0, waypoints=((0.0, 0.9),))
        world = make_world(positions, spec, vis_range=2.0)
        eff = Graph(n=2, edges=frozenset())  # nothing effective: no discs bind
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert tuple(q) == (0.0, 0.9)

    @pytest.mark.parametrize("kind", ["gather", "formation", "leader_follow"])
    @pytest.mark.parametrize("rng_plus", [0, 1])
    def test_random_step_invariants(self, rng, kind, rng_plus):
        spec = BehaviorSpec.for_range(kind, 1.0, waypoints=((0.5, 0.5),))
        for _ in range(40):
            n = int(rng.integers(2, 9))
            xy = sample_connected_positions(rng, n, min_sep=0.12)
            world = make_world([tuple(p) for p in xy], spec, vis_range=1.0, min_separation=0.1)
            g = visibility_graph(xy, 1.0)
            eff = effective_graph(g, xy, rng_plus)
            state = make_state(xy)
            proposals = apply_motion_law(np.arange(n), state, eff, spec, world)
            caps = separation_cap(np.arange(n), xy, 1.0, 0.1)
            for i, q in enumerate(proposals):
                step = math.sqrt((q[0] - xy[i, 0]) ** 2 + (q[1] - xy[i, 1]) ** 2)
                assert step <= spec.max_step + 1e-9
                assert step <= caps[i] + 1e-9
                for j in eff.neighbors(i):
                    mx = 0.5 * (xy[i, 0] + xy[j, 0])
                    my = 0.5 * (xy[i, 1] + xy[j, 1])
                    off = math.sqrt((q[0] - mx) ** 2 + (q[1] - my) ** 2)
                    assert off <= 0.5 + 1e-9  # stays inside the shared disc

    def test_idle_world_holds_everyone(self, rng):
        spec = BehaviorSpec.for_range("idle", 1.0)
        xy = sample_connected_positions(rng, 6)
        world = make_world([tuple(p) for p in xy], spec, vis_range=1.0)
        g = visibility_graph(xy, 1.0)
        eff = effective_graph(g, xy, 0)
        state = make_state(xy)
        proposals = apply_motion_law(np.arange(6), state, eff, spec, world)
        assert proposals.tobytes() == xy.tobytes()


class TestObstacleConstraint:
    WALL = Polygon(((0.5, -1.0), (1.5, -1.0), (1.5, 1.0), (0.5, 1.0)))

    def test_step_stops_at_the_wall(self):
        spec = BehaviorSpec(kind="leader_follow", max_step=1.0, waypoints=((1.0, 0.0),))
        world = make_world([(0.0, 0.0)], spec, vis_range=1.0, obstacles=(self.WALL,))
        eff = Graph(n=1, edges=frozenset())
        q = apply_motion_law(0, make_state([(0.0, 0.0)]), eff, spec, world)
        # the wall face is at x = 0.5; the step keeps the sight margin from it
        assert q[0] == 0.5 - SIGHT_MARGIN
        assert q[1] == 0.0

    def test_holds_when_no_shortened_step_clears(self):
        wall = Polygon(((0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)))
        spec = BehaviorSpec(kind="leader_follow", max_step=1.0, waypoints=((0.5, 0.0),))
        # the world starts off the wall; the planned snapshot sits on it
        world = make_world([(-0.5, 0.0)], spec, vis_range=1.0, obstacles=(wall,))
        eff = Graph(n=1, edges=frozenset())
        q = apply_motion_law(0, make_state([(0.0, 0.0)]), eff, spec, world)
        assert tuple(q) == (0.0, 0.0)

    def test_keeps_line_of_sight_to_effective_neighbour(self):
        wall = Polygon(((0.6, 0.4), (0.8, 0.4), (0.8, 10.0), (0.6, 10.0)))
        positions = [(0.0, 0.0), (0.0, 1.0)]
        spec = BehaviorSpec(kind="leader_follow", max_step=2.0, waypoints=((1.4, 1.0),))
        world = make_world(positions, spec, vis_range=4.0, obstacles=(wall,))
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        q = apply_motion_law(0, make_state(positions), eff, spec, world)
        assert not wall.contains_xy(*q)
        assert not wall.blocks_segment_xy(q[0], q[1], 0.0, 1.0)
        assert q[0] > 0.3  # real progress toward the waypoint, not a timid hold
        assert q[0] == pytest.approx(1.4 * q[1], abs=1e-9)  # still on the planned ray

    def test_clear_path_is_untouched(self):
        far_wall = Polygon(((50.0, 0.0), (51.0, 0.0), (51.0, 1.0), (50.0, 1.0)))
        positions = [(0.0, 0.0), (1.0, 0.0)]
        spec = BehaviorSpec(kind="gather", max_step=0.3)
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        state = make_state(positions)
        clear = make_world(positions, spec, vis_range=2.0)
        walled = make_world(positions, spec, vis_range=2.0, obstacles=(far_wall,))
        q1 = apply_motion_law(0, state, eff, spec, clear)
        q2 = apply_motion_law(0, state, eff, spec, walled)
        assert tuple(q1) == tuple(q2)


class TestSightByConstruction:
    """Moves planned from one snapshot keep every effective edge among walls."""

    @settings(max_examples=300)
    @given(walled_snapshots())
    def test_planned_moves_never_break_an_edge_or_cross_a_wall(self, snap):
        state, eff, world = snap
        p = state.positions
        q = apply_motion_law(np.arange(world.n), state, eff, world.behavior, world)

        def in_sight(a, b):
            return dist(a, b) <= world.vis_range and not any(
                scalar_blocks(poly, *a, *b) for poly in world.obstacles
            )

        for i, j in eff.edges.tolist():
            # both moved, or one of them held back at its snapshot position
            assert in_sight(q[i].tolist(), q[j].tolist())
            assert in_sight(p[i].tolist(), q[j].tolist())
            assert in_sight(q[i].tolist(), p[j].tolist())
        for a, b in zip(p.tolist(), q.tolist()):
            assert not any(scalar_blocks(poly, *a, *b) for poly in world.obstacles)


class TestArrayKernel:
    """The all-agent kernel is the per-agent law of `helpers`, byte for byte."""

    @settings(max_examples=200)
    @given(snapshots())
    def test_proposals_match_the_per_agent_law_bytewise(self, snap):
        state, eff, world = snap
        got = apply_motion_law(np.arange(world.n), state, eff, world.behavior, world)
        want = np.array([reference_motion_law(i, state, eff, world.behavior, world) for i in range(world.n)])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200)
    @given(walled_snapshots())
    def test_walled_proposals_match_the_per_agent_law_bytewise(self, snap):
        # the kernel skips the rows that cannot bind; the reference skips none
        state, eff, world = snap
        got = apply_motion_law(np.arange(world.n), state, eff, world.behavior, world)
        want = np.array([reference_motion_law(i, state, eff, world.behavior, world) for i in range(world.n)])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200)
    @given(st.data())
    def test_row_sums_match_the_level_loop_bytewise(self, data):
        # signed zeros, empty rows and magnitudes far apart, where the order
        # of the additions shows in the rounding
        deg = np.array(data.draw(st.lists(st.integers(0, 12), min_size=0, max_size=8)), dtype=np.intp)
        indptr = np.zeros(len(deg) + 1, dtype=np.intp)
        np.cumsum(deg, out=indptr[1:])
        value = st.one_of(
            st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1)),
            st.floats(-1e17, 1e17, allow_nan=False),
        )
        m = int(indptr[-1])
        rows = np.array(data.draw(st.lists(st.tuples(value, value), min_size=m, max_size=m)), dtype=float)
        rows = rows.reshape(m, 2)
        owner = np.repeat(np.arange(len(deg)), deg)
        got = _row_sums(rows, owner, len(deg))
        assert got.shape == (len(deg), 2)
        assert got.tobytes() == reference_row_sums(rows, indptr, deg).tobytes()

    @given(snapshots(), st.data())
    def test_one_index_is_the_one_row_case(self, snap, data):
        state, eff, world = snap
        i = data.draw(st.integers(0, world.n - 1))
        rows = apply_motion_law(np.array([i]), state, eff, world.behavior, world)
        one = apply_motion_law(i, state, eff, world.behavior, world)
        assert one.shape == (2,)
        assert one.tobytes() == rows[0].tobytes()
        assert desired_target(i, state, eff, world.behavior).tobytes() == (
            desired_target(np.array([i]), state, eff, world.behavior)[0].tobytes()
        )

    @pytest.mark.parametrize("kind", ["gather", "formation", "leader_follow"])
    def test_whole_runs_match_the_per_agent_law(self, kind):
        # planned from committed states of real runs, walls and reverts included
        spec = BehaviorSpec.for_range(kind, 1.0, waypoints=((2.0, 1.0),))
        wall = Polygon(((0.8, 0.5), (0.92, 0.5), (0.92, 0.62), (0.8, 0.62)))
        for rng_plus, obstacles in ((0, ()), (1, (wall,))):
            world = WorldConfig(
                n=14, vis_range=1.0, behavior=spec, init=InitSpec(box=(0.0, 0.0, 1.6, 1.6)),
                rng_plus=rng_plus, min_separation=0.1, obstacles=obstacles, max_rounds=60, seed=7,
            )
            states = []
            run(world, observer=lambda state, report: states.append(state))
            for state in states:
                state = replace(state, waypoint_index=_advance_waypoints(state, world))
                eff = effective_graph(visibility_graph(state.positions, 1.0), state.positions, rng_plus)
                got = apply_motion_law(np.arange(world.n), state, eff, spec, world)
                want = np.array([reference_motion_law(i, state, eff, spec, world) for i in range(world.n)])
                assert got.tobytes() == want.tobytes()

    def test_separation_cap_rows_match_scalar_calls(self, rng):
        for _ in range(20):
            xy = rng.uniform(0.0, 1.5, size=(9, 2))
            caps = separation_cap(np.arange(9), xy, 1.0, 0.0)
            assert caps.tolist() == [separation_cap(i, xy, 1.0, 0.0) for i in range(9)]

    def test_floor_warning_is_one_record_per_call(self, caplog):
        # agents 0, 1 and 2 are pairwise closer than the floor; agent 3 is clear
        xy = [(0.0, 0.0), (0.05, 0.0), (0.0, 0.08), (1.0, 0.0)]
        with caplog.at_level(logging.WARNING, logger="rngswarm.motion"):
            caps = separation_cap(np.arange(4), xy, vis_range=1.0, min_separation=0.1)
        assert caps[:3].tolist() == [0.0, 0.0, 0.0]
        assert len(caplog.records) == 1
        assert "below the separation floor" in caplog.records[0].message
        assert caplog.records[0].message.startswith("3 agent(s)")
