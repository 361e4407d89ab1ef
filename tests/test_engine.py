import contextlib
import hashlib
import logging
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rngswarm import engine, geom
from rngswarm.engine import (
    ConnectivityError,
    InitSpec,
    SwarmState,
    WorldConfig,
    _commit,
    _geometry,
    _init_fault,
    _step_core,
    initial_state,
    run,
    step,
)
from rngswarm.geom import Polygon, segments_blocked
from rngswarm.graphs import (
    Graph,
    effective_graph,
    is_connected,
    nearest_distances,
    pairwise_distances,
    visibility_graph,
)
from rngswarm.motion import BehaviorSpec, apply_motion_law, separation_cap
from rngswarm.properties import sample_connected_positions
from rngswarm.scenario import load_scenario

from helpers import (
    edge_set,
    pillar_snapshots,
    reference_edge_safe,
    reference_verify,
    scalar_blocks,
    scalar_contains,
    snapshots,
    walled_snapshots,
)


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
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def commit(old, proposals, effective, world):
    """`_commit`'s reverted agents as a set, from the geometry of `old` with
    `effective` as its effective graph; mutates `proposals` like it."""
    snap = _geometry(old, world)._replace(eff=effective)
    return set(np.flatnonzero(_commit(old, proposals, snap, world)[1]).tolist())


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", True),
            ("rng_plus", True),
            ("max_rounds", 2.5),
            ("max_rounds", False),
            ("seed", -1),
            ("seed", 1.0),
            ("seed", True),
        ],
    )
    def test_counts_are_integers(self, field, value):
        # a bool is an int to Python, but no count; a float or a negative
        # seed would fail only once the run starts
        with pytest.raises(ValueError, match=f"^{field} must be >= [01] and an integer, got {value!r}$"):
            make_world(LINE3, **{field: value})

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

    def test_floor_message_names_the_closest_pair_as_a_float(self):
        with pytest.raises(ValueError) as err:
            make_world([(0.0, 0.0), (0.05, 0.0), (0.5, 0.0)], min_separation=0.1)
        assert str(err.value) == (
            "init.positions must keep every pair at least min_separation (0.1) apart, got a pair at 0.05"
        )

    def test_explicit_init_must_keep_off_the_walls(self):
        wall = Polygon(((0.2, -0.1), (0.3, -0.1), (0.3, 0.1), (0.2, 0.1)))
        # a lone agent inside a wall is connected, but still refused
        with pytest.raises(ValueError, match="init.positions put an agent on or inside an obstacle"):
            make_world([(0.25, 0.0)], obstacles=(wall,))
        make_world([(0.5, 0.0)], obstacles=(wall,))
        # with company, an agent on a wall also sees no one; the wall is named first
        with pytest.raises(ValueError, match="init.positions put an agent on or inside an obstacle"):
            make_world([(0.2, 0.0), (0.0, 0.5)], obstacles=(wall,))
        # the floor is checked before the wall
        with pytest.raises(ValueError, match="init.positions must keep every pair"):
            make_world([(0.25, 0.0), (0.26, 0.0)], obstacles=(wall,), min_separation=0.1)


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
        # a pillar in the middle of the box: a usable start keeps everyone off
        # it and connected around it; a pair it blocks is simply not an edge
        pillar = Polygon(((0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)))
        w = make_world(
            n=12,
            init=InitSpec(box=(0.0, 0.0, 1.0, 1.0)),
            obstacles=(pillar,),
            min_separation=0.0,
            seed=11,
        )
        xy = initial_state(w).positions
        assert not any(scalar_contains(pillar, float(x), float(y)) for x, y in xy)
        g = visibility_graph(xy, 1.0, (pillar,))
        assert is_connected(g)
        blind = edge_set(visibility_graph(xy, 1.0))
        blocked = {(a, b) for a, b in blind if scalar_blocks(pillar, *xy[a].tolist(), *xy[b].tolist())}
        assert blocked  # the start does look through the pillar in places
        assert edge_set(g) == blind - blocked

    def test_box_start_in_clutter(self):
        # 20 agents in a 3 x 3 box among 9 pillars: a sample is usable when
        # no agent touches a pillar and the walled graph is connected, which
        # a good share of samples are (about 270 in 2000 with this seed)
        h = 0.075
        pillars = tuple(
            Polygon(((cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)))
            for cx in (0.5, 1.5, 2.5)
            for cy in (0.5, 1.5, 2.5)
        )
        rng = np.random.default_rng(0)
        samples = (rng.uniform(0.0, 3.0, (20, 2)) for _ in range(400))
        accepted = sum(_init_fault(xy, 1.0, 0.1, pillars) is None for xy in samples)
        assert accepted >= 25
        w = make_world(n=20, init=InitSpec(box=(0.0, 0.0, 3.0, 3.0)), obstacles=pillars, seed=3)
        xy = initial_state(w).positions
        assert not segments_blocked(xy, xy, pillars).any()
        assert is_connected(visibility_graph(xy, 1.0, pillars))

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

    def test_property_sampler_draw_is_pinned(self):
        # the property suites sample their starts with initial_state's sampler
        xy = sample_connected_positions(np.random.default_rng(7), 12, min_sep=0.1)
        digest = hashlib.sha256(xy.tobytes()).hexdigest()
        assert digest == "fe20628c42ff4cc1718269887f80778d1f299e6ba4edf4415947756a65e92763"


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
        reverted = commit(old, props, eff, w)
        assert reverted == set()
        np.testing.assert_array_equal(props, [(0.1, 0.0), (1.1, 0.0)])

    def test_distance_violation_reverts_both_endpoints(self):
        w = make_world([(0.0, 0.0), (1.0, 0.0)], vis_range=2.0, min_separation=0.0)
        old = np.array([(0.0, 0.0), (1.0, 0.0)])
        props = np.array([(-0.5, 0.0), (1.6, 0.0)])  # pair would end up 2.1 apart
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        reverted = commit(old, props, eff, w)
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
        reverted = commit(old, props, eff, w)
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
        reverted = commit(old, props, eff, w)
        assert reverted == {0, 1, 2}
        np.testing.assert_array_equal(props, old)

    def test_unrepairable_edge_terminates(self):
        # both endpoints already reverted and still out of range: the sweep
        # must stop rather than loop
        w = make_world([(0.0, 0.0), (1.0, 0.0)], vis_range=2.0, min_separation=0.0)
        old = np.array([(0.0, 0.0), (2.1, 0.0)])
        props = np.array([(0.0, 0.0), (2.2, 0.0)])
        eff = Graph(n=2, edges=frozenset({(0, 1)}))
        reverted = commit(old, props, eff, w)
        assert reverted == {0, 1}
        np.testing.assert_array_equal(props, old)

    def test_every_broken_edge_reverts_in_the_same_pass(self):
        # both edges break: (0,1) at 2.3 and (1,2) at 2.5. Reverting only the
        # first edge's ends would leave (1,2) at 2.0, in range; the fixpoint
        # reverts the ends of every broken edge at once, agent 2 included
        pts = [(0.0, 0.0), (1.8, 0.0), (3.6, 0.0)]
        w = make_world(pts, vis_range=2.0, min_separation=0.0)
        old = np.array(pts)
        props = np.array([(-1.0, 0.0), (1.3, 0.0), (3.8, 0.0)])
        eff = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
        reverted = commit(old, props, eff, w)
        assert reverted == {0, 1, 2}
        np.testing.assert_array_equal(props, old)

    @settings(max_examples=200)
    @given(snapshots(), st.data())
    def test_matches_the_full_sweep(self, snap, data):
        # random moves of up to about half the range break many edges at once;
        # about two thirds of the examples revert, some through several sweeps
        state, eff, world = snap
        old = state.positions
        step = data.draw(st.lists(st.floats(-0.6, 0.6), min_size=2 * world.n, max_size=2 * world.n))
        props = old + np.reshape(step, (world.n, 2))
        got_props, want_props = props.copy(), props.copy()
        got = commit(old, got_props, eff, world)
        want = reference_verify(old, want_props, eff, world)
        assert got == want
        assert got_props.tobytes() == want_props.tobytes()

    @given(snapshots())
    def test_matches_the_full_sweep_on_planned_moves(self, snap):
        state, eff, world = snap
        props = apply_motion_law(np.arange(world.n), state, eff, world.behavior, world)
        want_props = props.copy()
        assert commit(state.positions, props, eff, world) == reference_verify(
            state.positions, want_props, eff, world
        )
        assert props.tobytes() == want_props.tobytes()


class TestFoldedVerify:
    """The round checks its effective edges by reading the next visibility
    graph; agents revert only when that graph lacks one of them."""

    @settings(max_examples=300)
    @given(walled_snapshots(), st.data())
    def test_next_graph_holds_exactly_the_safe_edges(self, snap, data):
        # moves of up to 0.6 against a range of 1 break edges by distance and by walls
        state, eff, world = snap
        step = data.draw(st.lists(st.floats(-0.6, 0.6), min_size=2 * world.n, max_size=2 * world.n))
        moved = state.positions + np.reshape(step, (world.n, 2))
        held = visibility_graph(moved, world.vis_range, world.obstacles).has_edges(eff.edges)
        safe = [reference_edge_safe(moved[i], moved[j], world) for i, j in eff.edges.tolist()]
        assert held.tolist() == safe

    @settings(max_examples=200)
    @given(walled_snapshots(), st.data())
    def test_every_effective_edge_is_kept_or_fully_reverted(self, snap, data):
        state, eff, world = snap
        step = data.draw(st.lists(st.floats(-0.6, 0.6), min_size=2 * world.n, max_size=2 * world.n))
        props = state.positions + np.reshape(step, (world.n, 2))
        geo, reverted = _commit(state.positions, props, _geometry(state.positions, world), world)
        kept = geo.g.has_edges(eff.edges)
        assert (kept | reverted[eff.edges].all(axis=1)).all()
        # the returned geometry is that of the committed positions
        np.testing.assert_array_equal(props[reverted], state.positions[reverted])
        g = visibility_graph(props, world.vis_range, world.obstacles)
        dist = pairwise_distances(props)
        assert [a.tobytes() for a in geo.distances] == [dist.tobytes(), nearest_distances(dist).tobytes()]
        assert geo.g.edges.tobytes() == g.edges.tobytes()
        assert geo.eff.edges.tobytes() == effective_graph(g, props, world.rng_plus).edges.tobytes()

    @settings(max_examples=100)
    @given(walled_snapshots(), st.data())
    def test_a_violated_round_commits_the_reference_sweep(self, snap, data):
        state, eff, world = snap
        step = data.draw(st.lists(st.floats(-0.6, 0.6), min_size=2 * world.n, max_size=2 * world.n))
        props = state.positions + np.reshape(step, (world.n, 2))
        assume(not all(reference_edge_safe(props[i], props[j], world) for i, j in eff.edges.tolist()))
        want_props = props.copy()
        want = reference_verify(state.positions, want_props, eff, world)
        with mock.patch.object(engine, "apply_motion_law", lambda *args, **kwargs: props.copy()):
            if not is_connected(visibility_graph(want_props, world.vis_range, world.obstacles)):
                # a snapshot that starts disconnected may stay so
                with pytest.raises(ConnectivityError):
                    _step_core(state, world, _geometry(state.positions, world))
                return
            new_state, report, geo = _step_core(state, world, _geometry(state.positions, world))
        assert new_state.positions.tobytes() == want_props.tobytes()
        assert report.reverted_agents == len(want)
        # the geometry handed to the next round is that of the committed state
        fresh = _geometry(new_state.positions, world)
        assert [a.tobytes() for a in geo.distances] == [a.tobytes() for a in fresh.distances]
        assert geo.g.edges.tobytes() == fresh.g.edges.tobytes()
        assert geo.eff.edges.tobytes() == fresh.eff.edges.tobytes()


def assert_fresh(geo, positions, world):
    """`geo` equals a fresh `_geometry` of `positions` in its distances and in
    every value derived from each graph's edges (its CSR, edge keys, planner
    indices and hop diameter), byte for byte and dtype for dtype."""
    fresh = _geometry(positions, world)
    assert [a.tobytes() for a in geo.distances] == [a.tobytes() for a in fresh.distances]
    assert not geo.distances[1].flags.writeable
    for got, want in ((geo.g, fresh.g), (geo.eff, fresh.eff)):
        assert got.n == want.n
        assert got.edges.tobytes() == want.edges.tobytes()
        for cached in ("_csr", "_plan"):
            mine, theirs = getattr(got, cached), getattr(want, cached)
            assert [(a.dtype, a.shape) for a in mine] == [(a.dtype, a.shape) for a in theirs]
            assert [a.tobytes() for a in mine] == [a.tobytes() for a in theirs]
        assert got._keys.tobytes() == want._keys.tobytes()
        assert got._diameter == want._diameter


class TestCarriedGraphs:
    """A committed state whose visibility or effective edges equal the
    snapshot's keeps the snapshot's own Graph, caches and all; what a round
    hands on must still equal the geometry built afresh."""

    @pytest.mark.parametrize("name", ["adhoc_network", "formation", "leader_line", "narrow_passage"])
    def test_bundled_scenarios(self, name):
        world = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        state = initial_state(world)
        geo = _geometry(state.positions, world)
        carried = 0
        for _ in range(min(world.max_rounds, 200)):
            snap = geo
            state, _, geo = _step_core(state, world, geo)
            assert_fresh(geo, state.positions, world)
            carried += geo.eff is snap.eff
        assert carried

    @settings(max_examples=100)
    @given(walled_snapshots(), st.data())
    def test_walled_snapshots_with_random_moves(self, snap, data):
        # no move, small moves that seldom change an edge, and moves that break many
        state, _, world = snap
        scale = data.draw(st.sampled_from((0.0, 0.01, 0.6)))
        step = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * world.n, max_size=2 * world.n))
        props = state.positions + scale * np.reshape(step, (world.n, 2))
        geo = _geometry(state.positions, world)
        assert_fresh(geo, state.positions, world)  # derives every cached value before the round
        with mock.patch.object(engine, "apply_motion_law", lambda *args, **kwargs: props.copy()):
            try:
                new_state, _, new = _step_core(state, world, geo)
            except ConnectivityError:
                return  # a snapshot that starts disconnected may stay so
        assert_fresh(new, new_state.positions, world)
        if scale == 0.0:
            assert new.g is geo.g and new.eff is geo.eff

    def test_an_idle_run_keeps_the_snapshots_graphs(self):
        world = load_scenario(SCENARIO_DIR / "adhoc_network.yaml")
        state = initial_state(world)
        geo = _geometry(state.positions, world)
        for _ in range(world.max_rounds):
            snap = geo
            state, _, geo = _step_core(state, world, geo)
            assert geo.g is snap.g and geo.eff is snap.eff


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
            xy = sample_connected_positions(rng, n, min_sep=0.12)
            w = make_world([tuple(p) for p in xy], spec, min_separation=0.1)
            state = initial_state(w)
            eff_before = effective_graph(visibility_graph(state.positions, 1.0), state.positions, 0)
            new_state, report = step(state, w)
            vis_after = visibility_graph(new_state.positions, 1.0)
            assert vis_after.has_edges(eff_before.edges).all()
            assert report.metrics.connected

    def test_no_reverts_without_obstacles(self, rng):
        # snapshot-planned moves keep every effective edge in range, and in
        # sight among walls, by construction; the verify pass is a backstop
        # that no planned move should trip (walls: the test below)
        spec = BehaviorSpec.for_range("gather", 1.0)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            xy = sample_connected_positions(rng, n, min_sep=0.12)
            w = make_world([tuple(p) for p in xy], spec, min_separation=0.1)
            _, report = step(initial_state(w), w)
            assert report.reverted_agents == 0

    @pytest.mark.parametrize("snapshots", [walled_snapshots, pillar_snapshots], ids=lambda f: f.__name__)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(0, 2))
    def test_the_commit_reverts_no_planned_move_among_walls(self, snapshots, data, m):
        # the engine's own arithmetic, not the scalar oracles of
        # TestSightByConstruction: the proposals of every agent, planned on
        # the snapshot's geometry at m = 0-2, pass the commit untouched. A
        # revert here is a planner defect, not a case to draw around.
        state, _, world = data.draw(snapshots())
        world = replace(world, rng_plus=m)
        geo = _geometry(state.positions, world)
        proposals = apply_motion_law(np.arange(world.n), state, geo.eff, world.behavior, world, geo.distances)
        planned = proposals.copy()
        _, reverted = _commit(state.positions, proposals, geo, world)
        assert np.flatnonzero(reverted).tolist() == []
        assert proposals.tobytes() == planned.tobytes()

    def test_separation_floor_holds(self, rng):
        spec = BehaviorSpec.for_range("gather", 1.0)
        for _ in range(20):
            xy = sample_connected_positions(rng, 8, min_sep=0.12)
            w = make_world([tuple(p) for p in xy], spec, min_separation=0.1)
            state = initial_state(w)
            for _ in range(5):
                state, report = step(state, w)
                assert report.metrics.min_pair_distance >= 0.1 - 1e-9

    def test_rejects_a_state_of_another_size(self):
        w = make_world(n=4, init=InitSpec(box=(0.0, 0.0, 1.0, 1.0)), seed=2)
        for k in (3, 5):
            state = SwarmState(round=0, positions=np.zeros((k, 2)))
            with pytest.raises(ValueError, match=f"state has {k} agents but the world has n=4"):
                step(state, w)

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
        # an agent pinned against a wall (closer to it than the sight margin)
        # never reaches its waypoint, so the run must burn the whole round
        # budget even though nothing moves
        wall = Polygon(((0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)))
        spec = BehaviorSpec(kind="leader_follow", max_step=0.2, waypoints=((0.5, 0.0),))
        w = make_world(
            [(-1e-7, 0.0)], spec, min_separation=0.0, obstacles=(wall,), max_rounds=25
        )
        waypoint = []
        reports = run(w, observer=lambda state, report: waypoint.append(state.waypoint_index))
        assert len(reports) == 25
        assert waypoint == [0] * 26

    def test_leader_run_ends_after_reaching_waypoints(self):
        # follower trails the leader: one-sided approaches keep a little slack
        # above the floor, so the pair never freezes mid-route
        spec = BehaviorSpec.for_range("leader_follow", 1.0, waypoints=((0.3, 0.0),))
        w = make_world([(0.0, 0.0), (-0.5, 0.0)], spec, min_separation=0.1, max_rounds=100)
        waypoint = []
        reports = run(w, observer=lambda state, report: waypoint.append(state.waypoint_index))
        assert 0 < len(reports) < 100  # quiescent well before the budget
        assert waypoint[-1] == 1
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

    def test_rounds_below_the_floor_are_one_line_per_run(self, caplog):
        # a start below the floor is refused, so a patched planner puts agents
        # 0 and 1 below 0.1 for the first k rounds, then back at the start
        gaps = (0.05, 0.03, 0.07)
        k = len(gaps)
        plans = iter([np.array([(0.0, 0.0), (gap, 0.0), (1.0, 0.0)]) for gap in gaps] + [np.array(LINE3)] * 2)
        w = make_world(LINE3, BehaviorSpec.for_range("idle", 1.0), min_separation=0.1, max_rounds=k + 2)
        states = []
        with mock.patch.object(engine, "apply_motion_law", lambda *args, **kwargs: next(plans).copy()):
            with caplog.at_level(logging.WARNING):
                reports = run(w, observer=lambda state, report: states.append(state))
        assert [r.metrics.min_pair_distance < 0.1 for r in reports] == [True] * k + [False] * 2
        assert [r.name for r in caplog.records] == ["rngswarm.engine"]  # and none from rngswarm.motion
        assert f"below the separation floor in {k} of {k + 2} rounds (closest at 0.03 < 0.1)" in (
            caplog.records[0].getMessage()
        )
        # the cap holds both agents of the pair still when they plan from there
        nearest = nearest_distances(pairwise_distances(states[1].positions))
        caps = separation_cap(nearest, w.vis_range, w.min_separation)
        assert caps[:2].tolist() == [0.0, 0.0]

    def test_one_ulp_below_the_floor_logs_nothing(self, caplog):
        # agents packed down to exactly the floor may sit an ulp below it
        gap = np.nextafter(0.1, 0.0)
        packed = np.array([(0.0, 0.0), (gap, 0.0), (1.0, 0.0)])
        w = make_world(LINE3, BehaviorSpec.for_range("idle", 1.0), min_separation=0.1, max_rounds=3)
        with mock.patch.object(engine, "apply_motion_law", lambda *args, **kwargs: packed.copy()):
            with caplog.at_level(logging.WARNING):
                reports = run(w)
        assert [r.metrics.min_pair_distance for r in reports] == [gap] * 3
        assert caplog.records == []

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


def scaled(world, f):
    """`world` with every length times f: the start, V, the separation
    floor, the behaviour's step, spacing, waypoints and tolerance, and the
    walls. For f a power of two every product is exact."""
    spec = world.behavior
    behavior = replace(
        spec,
        max_step=spec.max_step * f,
        desired_spacing=spec.desired_spacing * f,
        waypoints=tuple((x * f, y * f) for x, y in spec.waypoints),
        waypoint_tolerance=spec.waypoint_tolerance * f,
    )
    if world.init.positions is not None:
        init = InitSpec(positions=tuple((x * f, y * f) for x, y in world.init.positions))
    else:
        init = InitSpec(box=tuple(v * f for v in world.init.box))
    return replace(
        world,
        vis_range=world.vis_range * f,
        min_separation=world.min_separation * f,
        behavior=behavior,
        init=init,
        obstacles=tuple(Polygon(tuple((x * f, y * f) for x, y in p.vertices)) for p in world.obstacles),
    )


def walled_batch_world():
    """World 1 of the acceptance batch: 16 agents in formation, one
    lens occupant allowed, a separation floor and a wall in the box."""
    side = max(1.2, 0.55 * math.sqrt(16))
    x0, y0 = 0.55 * side, 0.4 * side
    wall = Polygon(((x0, y0), (x0 + 0.12, y0), (x0 + 0.12, y0 + 0.12), (x0, y0 + 0.12)))
    return make_world(
        n=16,
        behavior=BehaviorSpec.for_range("formation", 1.0),
        init=InitSpec(box=(0.0, 0.0, side, side)),
        rng_plus=1,
        obstacles=(wall,),
        seed=1001,
        max_rounds=200,
    )


class TestScaleInvariance:
    """Scaling every length of a world by a power of two scales its run
    exactly: each position and each pair distance of the first 200 rounds
    is 2^k times the unscaled run's, and every count is the same. So no
    rewrite of the round may reorder its arithmetic, or add an absolute
    length that the lengths of a world do not set.

    The walls still hold two: the sight clamp's clearance `SIGHT_MARGIN`
    and the contact tolerance `_EPS` (a cross product, so an area). Scaled
    with the world, they keep a walled world exact too."""

    @staticmethod
    def _run(world):
        states = []
        world = replace(world, max_rounds=min(world.max_rounds, 200))
        reports = run(world, lambda state, _: states.append(state.positions))
        return np.array(states), reports

    def _assert_scales(self, world, f, scaled_context=contextlib.nullcontext):
        base, base_reports = self._run(world)
        with scaled_context():
            got, reports = self._run(scaled(world, f))
        assert got.shape == base.shape
        assert got.tobytes() == (base * f).tobytes()
        for xy, want in zip(got, base):
            assert pairwise_distances(xy).tobytes() == (pairwise_distances(want) * f).tobytes()
        counts = ("edge_count", "effective_edge_count", "diameter_hops")
        for r, b in zip(reports, base_reports, strict=True):
            assert r.metrics.min_pair_distance == b.metrics.min_pair_distance * f
            assert r.metrics.max_pair_distance == b.metrics.max_pair_distance * f
            assert [getattr(r.metrics, c) for c in counts] == [getattr(b.metrics, c) for c in counts]
            assert r.reverted_agents == b.reverted_agents

    @pytest.mark.parametrize("f", [2.0**10, 2.0**-10])
    @pytest.mark.parametrize(
        "name",
        [
            "adhoc_network",
            "formation",
            "leader_line",
            "narrow_passage",
            # the wall's sight clamp binds agent 1 in round 1, where the
            # absolute SIGHT_MARGIN moves it by 1e-6 in world units
            pytest.param("walled batch", marks=pytest.mark.xfail(strict=True, reason="absolute wall margins")),
        ],
    )
    def test_positions_and_pair_distances_scale_exactly(self, name, f):
        world = walled_batch_world() if name == "walled batch" else load_scenario(SCENARIO_DIR / f"{name}.yaml")
        self._assert_scales(world, f)

    @pytest.mark.parametrize("f", [2.0**10, 2.0**-10])
    def test_a_walled_world_scales_exactly_with_its_margins(self, f):
        def margins():
            return mock.patch.multiple(geom, SIGHT_MARGIN=geom.SIGHT_MARGIN * f, _EPS=geom._EPS * f * f)

        self._assert_scales(walled_batch_world(), f, margins)


def test_a_large_lattice_step_stays_within_ten_distance_matrices():
    # the trim compares E x n rows of edge lengths; folding its two compares
    # into np.maximum(a, b) < d is exact but allocates a third E x n float
    # array, which lifts this peak far above ten n x n float64 matrices
    k = 32
    rng = np.random.default_rng(7)
    grid = 0.6 * np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
    xy = grid + rng.uniform(-0.05, 0.05, size=grid.shape)
    world = make_world([tuple(p) for p in xy], min_separation=0.1, max_rounds=1)
    state = initial_state(world)
    tracemalloc.start()
    try:
        step(state, world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * world.n * world.n * 8, f"peak {peak / 1e6:.1f} MB"
