import logging
import math

import numpy as np
import pytest

from rngswarm.engine import (
    InitSpec,
    SwarmState,
    WorldConfig,
    _verify_and_revert,
    initial_state,
    run,
    step,
)
from rngswarm.geom import Polygon
from rngswarm.graphs import Graph, effective_graph, is_connected, pairwise_distances, visibility_graph
from rngswarm.motion import BehaviorSpec
from rngswarm.properties import sample_connected_positions


def make_world(positions=None, behavior=None, **kw):
    if behavior is None:
        behavior = BehaviorSpec.for_range("gather", kw.get("vis_range", 1.0))
    init = kw.pop("init", None)
    if init is None:
        init = InitSpec(positions=tuple(tuple(p) for p in positions))
    return WorldConfig(
        n=kw.pop("n", len(positions) if positions is not None else 0),
        vis_range=kw.pop("vis_range", 1.0),
        behavior=behavior,
        init=init,
        **kw,
    )


LINE3 = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]


class TestInitSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            InitSpec()
        with pytest.raises(ValueError, match="exactly one"):
            InitSpec(positions=((0.0, 0.0),), box=(0.0, 0.0, 1.0, 1.0))

    def test_positions_normalised(self):
        spec = InitSpec(positions=[[1, 2], (3.5, 4.0)])
        assert spec.positions == ((1.0, 2.0), (3.5, 4.0))

    def test_non_finite_position(self):
        with pytest.raises(ValueError, match="finite"):
            InitSpec(positions=((math.inf, 0.0),))

    def test_box_normalised(self):
        spec = InitSpec(box=(0, 0, 2, 1))
        assert spec.box == (0.0, 0.0, 2.0, 1.0)

    def test_degenerate_box(self):
        with pytest.raises(ValueError, match="xmin < xmax"):
            InitSpec(box=(1.0, 0.0, 1.0, 2.0))

    def test_non_finite_box(self):
        with pytest.raises(ValueError, match="finite"):
            InitSpec(box=(0.0, 0.0, math.nan, 1.0))


class TestWorldConfig:
    def test_defaults(self):
        w = make_world(LINE3)
        assert w.min_separation == 0.1  # a tenth of the range when unspecified
        assert w.rng_plus == 0
        assert w.obstacles == ()

    def test_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            make_world(LINE3, n=0, init=InitSpec(box=(0, 0, 1, 1)))

    @pytest.mark.parametrize("v", [0.0, -1.0, math.inf])
    def test_bad_vis_range(self, v):
        with pytest.raises(ValueError, match="vis_range"):
            make_world(LINE3, vis_range=v, behavior=BehaviorSpec(kind="idle", max_step=0.1))

    def test_bad_rng_plus(self):
        with pytest.raises(ValueError, match="rng_plus"):
            make_world(LINE3, rng_plus=-1)

    @pytest.mark.parametrize("sep", [-0.1, 1.0, 1.5])
    def test_separation_bounds(self, sep):
        with pytest.raises(ValueError, match="min_separation"):
            make_world(LINE3, min_separation=sep)

    def test_bad_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            make_world(LINE3, max_rounds=-1)

    def test_leader_index_must_address_an_agent(self):
        spec = BehaviorSpec(kind="leader_follow", max_step=0.2, desired_spacing=0.1, leader_index=5)
        with pytest.raises(ValueError, match="leader_index"):
            make_world(LINE3, behavior=spec)

    def test_spacing_must_clear_the_floor(self):
        spec = BehaviorSpec(kind="formation", max_step=0.2, desired_spacing=0.05)
        with pytest.raises(ValueError, match="desired_spacing"):
            make_world(LINE3, behavior=spec, min_separation=0.1)

    def test_step_budget_bounded_by_the_floor_slack(self):
        # a beyond-range pair can close by two steps in one round
        spec = BehaviorSpec(kind="gather", max_step=0.5, desired_spacing=0.1)
        with pytest.raises(ValueError, match="max_step"):
            make_world(LINE3, behavior=spec, min_separation=0.1)

    def test_no_step_budget_check_without_a_floor(self):
        spec = BehaviorSpec(kind="gather", max_step=0.5)
        w = make_world(LINE3, behavior=spec, min_separation=0.0)
        assert w.behavior.max_step == 0.5

    def test_position_count_must_match_n(self):
        with pytest.raises(ValueError, match="positions but n="):
            make_world(LINE3, n=4)

    def test_explicit_init_must_be_connected(self):
        with pytest.raises(ValueError, match="disconnected"):
            make_world([(0.0, 0.0), (5.0, 0.0)])

    def test_explicit_init_must_clear_the_floor(self):
        with pytest.raises(ValueError, match="init.positions must keep every pair"):
            make_world([(0.0, 0.0), (0.05, 0.0)], min_separation=0.1)
        make_world([(0.0, 0.0), (0.1, 0.0)], min_separation=0.1)  # exactly at the floor is fine


class TestInitialState:
    def test_explicit_positions_taken_verbatim(self):
        w = make_world(LINE3)
        state = initial_state(w)
        assert state.round == 0
        assert state.waypoint_index == 0
        np.testing.assert_array_equal(state.positions, np.asarray(LINE3))

    def test_box_sample_is_connected_and_separated(self):
        w = make_world(n=12, init=InitSpec(box=(0.0, 0.0, 2.0, 2.0)), min_separation=0.1, seed=3)
        state = initial_state(w)
        assert state.positions.shape == (12, 2)
        assert is_connected(visibility_graph(state.positions, 1.0))
        d = pairwise_distances(state.positions)
        iu, ju = np.triu_indices(12, k=1)
        assert float(d[iu, ju].min()) >= 0.1

    def test_box_sample_respects_the_box(self):
        w = make_world(n=8, init=InitSpec(box=(1.0, -1.0, 3.0, 0.5)), seed=7)
        xy = initial_state(w).positions
        assert (xy[:, 0] >= 1.0).all() and (xy[:, 0] <= 3.0).all()
        assert (xy[:, 1] >= -1.0).all() and (xy[:, 1] <= 0.5).all()

    def test_box_sample_deterministic_per_seed(self):
        w1 = make_world(n=10, init=InitSpec(box=(0.0, 0.0, 2.0, 2.0)), seed=5)
        w2 = make_world(n=10, init=InitSpec(box=(0.0, 0.0, 2.0, 2.0)), seed=5)
        w3 = make_world(n=10, init=InitSpec(box=(0.0, 0.0, 2.0, 2.0)), seed=6)
        a, b, c = (initial_state(w).positions for w in (w1, w2, w3))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_box_sample_avoids_obstacles(self):
        # a wall through the middle of the box: a usable start has everyone on
        # one side, outside the wall, with no visibility edge crossing it
        wall = Polygon(((0.45, -1.0), (0.55, -1.0), (0.55, 2.0), (0.45, 2.0)))
        w = make_world(
            n=4,
            init=InitSpec(box=(0.0, 0.0, 1.0, 1.0)),
            obstacles=(wall,),
            min_separation=0.0,
            seed=11,
        )
        xy = initial_state(w).positions
        assert not any(wall.contains_xy(float(x), float(y)) for x, y in xy)
        g = visibility_graph(xy, 1.0)
        for a, b in g.edges:
            assert not wall.blocks_segment_xy(
                float(xy[a, 0]), float(xy[a, 1]), float(xy[b, 0]), float(xy[b, 1])
            )
        assert is_connected(g)

    def test_impossible_box_raises(self):
        spec = BehaviorSpec(kind="gather", max_step=0.2, desired_spacing=0.5)
        w = make_world(
            n=5,
            init=InitSpec(box=(0.0, 0.0, 0.1, 0.1)),
            behavior=spec,
            min_separation=0.5,  # wider than the box diagonal: unsatisfiable
        )
        with pytest.raises(ValueError, match="no acceptable initial configuration"):
            initial_state(w)


class TestSwarmState:
    def test_positions_are_read_only(self):
        state = SwarmState(round=0, positions=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            state.positions[0, 0] = 1.0

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            SwarmState(round=0, positions=np.zeros((3, 3)))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SwarmState(round=0, positions=np.array([[0.0, math.nan]]))


class TestVerifyRevert:
    def test_no_violation_leaves_proposals_alone(self):
        w = make_world([(0.0, 0.0), (1.0, 0.0)], vis_range=2.0, min_separation=0.0)
        old = np.array([(0.0, 0.0), (1.0, 0.0)])
        props = np.array([(0.1, 0.0), (1.1, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        reverted = _verify_and_revert(old, props, eff, w)
        assert reverted == set()
        np.testing.assert_array_equal(props, [(0.1, 0.0), (1.1, 0.0)])

    def test_distance_violation_reverts_both_endpoints(self):
        w = make_world([(0.0, 0.0), (1.0, 0.0)], vis_range=2.0, min_separation=0.0)
        old = np.array([(0.0, 0.0), (1.0, 0.0)])
        props = np.array([(-0.5, 0.0), (1.6, 0.0)])  # pair would end up 2.1 apart
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        reverted = _verify_and_revert(old, props, eff, w)
        assert reverted == {0, 1}
        np.testing.assert_array_equal(props, old)

    def test_sight_violation_reverts(self):
        wall = Polygon(((0.6, 0.4), (0.8, 0.4), (0.8, 10.0), (0.6, 10.0)))
        w = make_world(
            [(0.0, 0.0), (0.0, 1.0)], vis_range=2.0, min_separation=0.0, obstacles=(wall,)
        )
        old = np.array([(0.0, 0.0), (0.0, 1.0)])
        props = np.array([(1.2, 0.5), (0.0, 1.0)])  # in range, but behind the wall
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        reverted = _verify_and_revert(old, props, eff, w)
        assert reverted == {0, 1}
        np.testing.assert_array_equal(props, old)

    def test_revert_cascade_reaches_a_fixpoint(self):
        # reverting agent 1 for the (0,1) edge re-breaks the (1,2) edge, which
        # must then revert agent 2 as well
        pts = [(0.0, 0.0), (1.8, 0.0), (3.6, 0.0)]
        w = make_world(pts, vis_range=2.0, min_separation=0.0)
        old = np.array(pts)
        props = np.array([(0.0, 0.0), (2.2, 0.0), (4.1, 0.0)])
        eff = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
        reverted = _verify_and_revert(old, props, eff, w)
        assert reverted == {0, 1, 2}
        np.testing.assert_array_equal(props, old)

    def test_unrepairable_edge_terminates(self):
        # both endpoints already reverted and still out of range: the sweep
        # must stop rather than loop
        w = make_world([(0.0, 0.0), (1.0, 0.0)], vis_range=2.0, min_separation=0.0)
        old = np.array([(0.0, 0.0), (2.1, 0.0)])
        props = np.array([(0.0, 0.0), (2.2, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        reverted = _verify_and_revert(old, props, eff, w)
        assert reverted == {0, 1}
        np.testing.assert_array_equal(props, old)


class TestStep:
    def test_round_counter_and_connectivity(self):
        w = make_world(LINE3)
        state, report = step(initial_state(w), w)
        assert state.round == 1 and report.round == 1
        assert report.metrics.connected

    def test_effective_edges_survive_into_the_next_round(self, rng):
        spec = BehaviorSpec.for_range("gather", 1.0)
        for _ in range(50):
            n = int(rng.integers(3, 11))
            xy = sample_connected_positions(rng, n, vis_range=1.0, min_sep=0.12)
            w = make_world([tuple(p) for p in xy], spec, min_separation=0.1)
            state = initial_state(w)
            eff_before = effective_graph(visibility_graph(state.positions, 1.0), state.positions, 0)
            new_state, report = step(state, w)
            vis_after = visibility_graph(new_state.positions, 1.0)
            assert eff_before.edges <= vis_after.edges
            assert report.metrics.connected

    def test_no_reverts_without_obstacles(self, rng):
        # snapshot-planned moves already respect every pairwise constraint;
        # the verify pass only bites when an obstacle cuts a line of sight
        spec = BehaviorSpec.for_range("gather", 1.0)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            xy = sample_connected_positions(rng, n, vis_range=1.0, min_sep=0.12)
            w = make_world([tuple(p) for p in xy], spec, min_separation=0.1)
            _, report = step(initial_state(w), w)
            assert report.reverted_agents == 0

    def test_separation_floor_holds(self, rng):
        spec = BehaviorSpec.for_range("gather", 1.0)
        for _ in range(20):
            xy = sample_connected_positions(rng, 8, vis_range=1.0, min_sep=0.12)
            w = make_world([tuple(p) for p in xy], spec, min_separation=0.1)
            state = initial_state(w)
            for _ in range(5):
                state, report = step(state, w)
                assert report.metrics.min_pair_distance >= 0.1 - 1e-9

    def test_deterministic(self):
        w = make_world(n=9, init=InitSpec(box=(0.0, 0.0, 1.5, 1.5)), seed=2)
        s1, r1 = step(initial_state(w), w)
        s2, r2 = step(initial_state(w), w)
        assert s1.positions.tobytes() == s2.positions.tobytes()
        assert r1 == r2


class TestRun:
    def test_gather_contracts_monotonically(self):
        w = make_world(
            n=8,
            init=InitSpec(box=(0.0, 0.0, 1.8, 1.8)),
            min_separation=0.0,
            seed=9,
            max_rounds=300,
        )
        diameters = []
        reports = run(w, observer=lambda s, r: diameters.append(None))
        widths = [r.metrics.max_pair_distance for r in reports]
        for before, after in zip(widths, widths[1:]):
            assert after <= before + 1e-12  # every new point lies in the old hull
        assert widths[-1] < 0.05  # the blob has all but collapsed
        assert all(r.metrics.connected for r in reports)

    def test_idle_swarm_quiesces_after_ten_still_rounds(self):
        w = make_world(LINE3, BehaviorSpec(kind="idle", max_step=0.1), max_rounds=100, min_separation=0.0)
        reports = run(w)
        assert len(reports) == 10
        assert all(r.reverted_agents == 0 for r in reports)

    def test_zero_round_budget(self):
        w = make_world(LINE3, max_rounds=0)
        assert run(w) == []

    def test_observer_sees_init_and_every_commit(self):
        w = make_world(LINE3, BehaviorSpec(kind="idle", max_step=0.1), max_rounds=50, min_separation=0.0)
        seen = []
        reports = run(w, observer=lambda s, r: seen.append((s.round, r)))
        assert len(seen) == len(reports) + 1
        assert seen[0] == (0, None)
        assert [rnd for rnd, _ in seen] == list(range(len(reports) + 1))

    def test_leader_blocks_quiescence_until_waypoints_done(self):
        # an agent pinned against a wall never reaches its waypoint, so the
        # run must burn the whole round budget even though nothing moves
        wall = Polygon(((0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)))
        spec = BehaviorSpec(kind="leader_follow", max_step=0.2, waypoints=((0.5, 0.0),))
        w = make_world(
            [(0.0, 0.0)], spec, min_separation=0.0, obstacles=(wall,), max_rounds=25
        )
        reports = run(w)
        assert len(reports) == 25
        assert all(r.leader_waypoint_index == 0 for r in reports)

    def test_leader_run_ends_after_reaching_waypoints(self):
        # follower trails the leader: one-sided approaches keep a little slack
        # above the floor, so the pair never freezes mid-route
        spec = BehaviorSpec.for_range("leader_follow", 1.0, waypoints=((0.3, 0.0),))
        w = make_world([(0.0, 0.0), (-0.5, 0.0)], spec, min_separation=0.1, max_rounds=100)
        reports = run(w)
        assert 0 < len(reports) < 100  # quiescent well before the budget
        assert reports[-1].leader_waypoint_index == 1
        assert all(r.metrics.connected for r in reports)
        assert all(r.metrics.min_pair_distance >= 0.1 - 1e-9 for r in reports)

    def test_identical_configs_identical_reports(self):
        def world():
            return make_world(
                n=10,
                init=InitSpec(box=(0.0, 0.0, 1.6, 1.6)),
                rng_plus=1,
                seed=13,
                max_rounds=60,
            )

        track1, track2 = [], []
        reports1 = run(world(), observer=lambda s, r: track1.append(s.positions.tobytes()))
        reports2 = run(world(), observer=lambda s, r: track2.append(s.positions.tobytes()))
        assert reports1 == reports2
        assert track1 == track2

    def test_coincident_agents_warn_once_per_run(self, caplog):
        w = make_world(
            [(0.0, 0.0), (0.0, 0.0)], BehaviorSpec(kind="idle", max_step=0.1), min_separation=0.0
        )
        with caplog.at_level(logging.WARNING, logger="rngswarm.engine"):
            reports = run(w)
        assert all(r.metrics.min_pair_distance == 0.0 for r in reports)
        assert len(caplog.records) == 1
        assert f"coincident agents (a pair at zero distance) in {len(reports)} of {len(reports)} rounds" in (
            caplog.records[0].message
        )

    def test_obstacle_world_stays_connected(self):
        wall = Polygon(((0.9, 0.5), (1.1, 0.5), (1.1, 1.5), (0.9, 1.5)))
        w = make_world(
            n=8,
            init=InitSpec(box=(0.0, 0.0, 2.0, 2.0)),
            obstacles=(wall,),
            seed=21,
            max_rounds=120,
        )
        reports = run(w)
        assert all(r.metrics.connected for r in reports)
        assert all(r.metrics.min_pair_distance >= 0.1 - 1e-9 for r in reports)
