"""Synchronous round engine: snapshot, propose, verify, commit.

Each committed state's geometry (its distance matrix and nearest distances,
visibility graph and effective graph) is derived once and read by every
layer: the motion law plans from it, and the verify and the metrics read the
next state's. Both graphs are built in full every round, but one whose edges
equal the round before's is that round's Graph, so its adjacency rows, edge
keys, planner indices and hop diameter (pure functions of n and the edges of
an immutable Graph) are derived once per distinct graph and no byte moves.
All agents plan from the same round-start snapshot, each inside the discs
and wall half-planes it shares with its effective neighbours, so the planned
moves keep every effective edge in range and in sight. The commit is a
backstop: it derives the proposals' geometry and checks that their
visibility graph still holds every effective edge of the snapshot. Only
when one is missing does it revert both endpoints of every missing edge at
once to their snapshot positions and derive the geometry again, until every
missing edge has both endpoints reverted. The rule reads only visibility
graphs and no edge order. Reverting is monotone, so it reaches its fixpoint
after at most n passes. Snapshot positions are safe against both old and
new neighbour positions, which keeps every effective edge inside the next
visibility graph and hence the swarm connected.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .geom import FEASIBILITY_TOL, Polygon, _integer, _number, _points, segments_blocked
from .graphs import (
    Graph,
    GraphMetrics,
    coords,
    effective_graph,
    graph_metrics,
    is_connected,
    nearest_distances,
    pairwise_distances,
    visibility_graph,
)
from .motion import BehaviorSpec, apply_motion_law

log = logging.getLogger(__name__)

_MAX_INIT_ATTEMPTS = 10_000
_QUIESCENT_ROUNDS = 10
_QUIESCENT_FRACTION = 1e-6  # of the visibility range, per round


class ConnectivityError(RuntimeError):
    """The committed round left the visibility graph disconnected."""


@dataclass(frozen=True)
class InitSpec:
    """Initial constellation: explicit positions, or a sampling box."""

    positions: tuple[tuple[float, float], ...] | None = None
    box: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if (self.positions is None) == (self.box is None):
            raise ValueError("init must give exactly one of positions or box")
        if self.positions is not None:
            object.__setattr__(self, "positions", _points(self.positions, "positions", "positions"))
        else:
            if not (isinstance(self.box, (list, tuple)) and len(self.box) == 4):
                raise ValueError(f"box must be [xmin, ymin, xmax, ymax], got {self.box!r}")
            xmin, ymin, xmax, ymax = (
                _number(v, f"box[{k}]", "must be finite", math.isfinite) for k, v in enumerate(self.box)
            )
            if not (xmin < xmax and ymin < ymax):
                raise ValueError(f"box must satisfy xmin < xmax and ymin < ymax, got {self.box}")
            object.__setattr__(self, "box", (xmin, ymin, xmax, ymax))


@dataclass(frozen=True)
class WorldConfig:
    """Full description of one deterministic run."""

    n: int
    vis_range: float
    behavior: BehaviorSpec
    init: InitSpec
    rng_plus: int = 0  # how many lens occupants an edge survives; 0 trims hardest
    min_separation: float | None = None  # None: a tenth of vis_range; 0 disables
    obstacles: tuple[Polygon, ...] = ()
    max_rounds: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        parts = [("behavior", self.behavior, BehaviorSpec), ("init", self.init, InitSpec)]
        for name, value, kind in parts + [(f"obstacles[{k}]", p, Polygon) for k, p in enumerate(self.obstacles)]:
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
        for name, low in (("n", 1), ("rng_plus", 0), ("max_rounds", 0), ("seed", 0)):
            _integer(getattr(self, name), name, low)
        v = _number(self.vis_range, "vis_range", "must be positive and finite", lambda x: 0.0 < x < math.inf)
        sep = v / 10.0 if self.min_separation is None else self.min_separation
        sep = _number(sep, "min_separation", f"must satisfy 0 <= sep < V={v!r}", lambda x: 0.0 <= x < v)
        object.__setattr__(self, "vis_range", v)
        object.__setattr__(self, "min_separation", sep)
        spec = self.behavior
        if spec.kind == "leader_follow" and not (0 <= spec.leader_index < self.n):
            raise ValueError(f"leader_index must lie in [0, n) for n={self.n}, got {spec.leader_index}")
        if sep > 0.0:
            if spec.desired_spacing < sep:
                raise ValueError(
                    f"desired_spacing must be >= min_separation ({sep!r}) so the target spacing "
                    f"is reachable, got {spec.desired_spacing!r}"
                )
            # beyond-range pairs can close by 2 * max_step in one round; keep
            # that below the (vis_range - sep) slack so the floor is provable
            limit = 0.5 * (self.vis_range - sep)
            if spec.max_step > limit + 1e-12:
                raise ValueError(
                    f"max_step must be <= (V - sep) / 2 = {limit!r} to keep the separation floor, "
                    f"got {spec.max_step!r}"
                )
        if self.init.positions is not None:
            count = len(self.init.positions)
            if count != self.n:
                raise ValueError(
                    f"init.positions must list n={self.n} points, got {count} positions but n={self.n}"
                )
            xy = np.asarray(self.init.positions, dtype=float)
            fault = _init_fault(xy, self.vis_range, sep, self.obstacles)
            if fault is not None:
                raise ValueError(f"init.positions {fault}")


@dataclass(frozen=True, eq=False)
class SwarmState:
    """Committed snapshot: round counter, positions, leader waypoint progress."""

    round: int
    positions: np.ndarray  # (n, 2) float64, one row per agent, read-only
    waypoint_index: int = 0

    def __post_init__(self) -> None:
        arr = coords(self.positions).copy()  # a state owns its read-only positions
        if not np.isfinite(arr).all():
            raise ValueError("positions must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "positions", arr)


@dataclass(frozen=True)
class RoundReport:
    """Outcome of one committed round."""

    round: int
    metrics: GraphMetrics
    reverted_agents: int


def initial_state(world: WorldConfig) -> SwarmState:
    """Explicit positions as given; otherwise sample the box with the world seed
    until no pair starts below the separation floor, no agent touches a wall
    and the visibility graph is connected."""
    if world.init.positions is not None:
        return SwarmState(round=0, positions=np.asarray(world.init.positions, dtype=float))
    rng = np.random.default_rng(world.seed)
    xy = _sample_start(rng, world.init.box, world.n, world.vis_range, world.min_separation, world.obstacles)
    return SwarmState(round=0, positions=xy)


def _sample_start(
    rng: np.random.Generator, box, n: int, vis_range: float, min_separation: float, obstacles
) -> np.ndarray:
    """Draw n points uniformly in box = (xmin, ymin, xmax, ymax) until the
    draw passes `_init_fault`, up to `_MAX_INIT_ATTEMPTS` draws."""
    xmin, ymin, xmax, ymax = box
    for _ in range(_MAX_INIT_ATTEMPTS):
        xy = rng.uniform((xmin, ymin), (xmax, ymax), size=(n, 2))
        if _init_fault(xy, vis_range, min_separation, obstacles) is None:
            return xy
    raise ValueError(
        f"no acceptable initial configuration in {_MAX_INIT_ATTEMPTS} samples; "
        "enlarge the box, raise vis_range, or lower n"
    )


def _init_fault(xy: np.ndarray, vis_range: float, min_separation: float, obstacles) -> str | None:
    """The first condition a start fails, checked in the order separation
    floor, wall contact, connectivity of the walled visibility graph; None
    when it fails none."""
    dist = pairwise_distances(xy)
    if min_separation > 0.0:
        closest = float(nearest_distances(dist).min(initial=math.inf))
        if closest < min_separation:
            return (
                f"must keep every pair at least min_separation ({min_separation!r}) apart, "
                f"got a pair at {closest!r}"
            )
    # a zero-length segment is blocked where its point touches a wall
    if segments_blocked(xy, xy, obstacles).any():
        return "put an agent on or inside an obstacle"
    if not is_connected(visibility_graph(xy, vis_range, obstacles, dist=dist)):
        return "give a disconnected initial visibility graph"
    return None


def _advance_waypoints(state: SwarmState, world: WorldConfig) -> int:
    spec = world.behavior
    if spec.kind != "leader_follow":
        return state.waypoint_index
    k = state.waypoint_index
    leader = state.positions[spec.leader_index]
    while k < len(spec.waypoints):
        wx, wy = spec.waypoints[k]
        ox = float(leader[0]) - wx
        oy = float(leader[1]) - wy
        if math.sqrt(ox * ox + oy * oy) > spec.waypoint_tolerance:
            break
        k += 1
    return k


class _Geometry(NamedTuple):
    """One committed state's geometry, derived once and read by every layer.
    Kept by the engine, not on SwarmState, so that an observer holding states
    holds no n x n matrices. An unchanged graph is the previous state's own
    Graph, so its cached values are derived once per distinct graph."""

    distances: tuple  # the positions' pairwise_distances, and their nearest_distances read-only
    g: Graph  # visibility graph
    eff: Graph  # effective graph


def _geometry(positions: np.ndarray, world: WorldConfig, prev: _Geometry | None = None) -> _Geometry:
    """The geometry of `positions`; `prev` is that of the state they follow,
    None at a start. A graph whose n and edges equal prev's is prev's own
    Graph: its caches are pure functions of n and the edges, so no byte moves."""
    dist = pairwise_distances(positions)
    # kept before the trim, which then reads the kept graph's edge keys
    g = _kept(visibility_graph(positions, world.vis_range, world.obstacles, dist=dist), prev and prev.g)
    eff = _kept(effective_graph(g, positions, world.rng_plus, dist=dist), prev and prev.eff)
    nearest = nearest_distances(dist)
    nearest.setflags(write=False)
    return _Geometry((dist, nearest), g, eff)


def _kept(new: Graph, old: Graph | None) -> Graph:
    return new if old is None or old.n != new.n or old.edges.tobytes() != new.edges.tobytes() else old


def _commit(
    old: np.ndarray, proposals: np.ndarray, snap: _Geometry, world: WorldConfig
) -> tuple[_Geometry, np.ndarray]:
    """Revert the proposals to a fixpoint over their visibility graph.

    Each pass derives the geometry of the proposals after `snap`, that of
    `old`. Every edge of `snap.eff` missing from its visibility graph that
    still has an endpoint not reverted gets both endpoints reverted to
    `old`, all at once, and the pass repeats. In a round, `snap.eff` is a
    subgraph of `snap.g`, so an edge with both endpoints reverted is never
    missing; skipping such edges keeps the loop finite for any other input.
    Mutates `proposals`; returns the last pass's geometry, which is the
    committed state's, and the mask of reverted agents.
    """
    edges = snap.eff.edges
    reverted = np.zeros(world.n, dtype=bool)
    while True:
        geo = _geometry(proposals, world, snap)
        broken = edges.take((~geo.g._holds(snap.eff)).nonzero()[0], axis=0)
        broken = broken[~reverted[broken].all(axis=1)]
        if not len(broken):
            return geo, reverted
        ends = broken.ravel()
        proposals[ends] = old[ends]
        reverted[ends] = True


def _step_core(
    state: SwarmState, world: WorldConfig, geo: _Geometry
) -> tuple[SwarmState, RoundReport, _Geometry]:
    wp_index = _advance_waypoints(state, world)
    if wp_index != state.waypoint_index:
        state = replace(state, waypoint_index=wp_index)
    proposals = apply_motion_law(np.arange(world.n), state, geo.eff, world.behavior, world, geo.distances)
    geo, reverted = _commit(state.positions, proposals, geo, world)
    new_state = SwarmState(round=state.round + 1, positions=proposals, waypoint_index=wp_index)
    metrics = graph_metrics(geo.g, geo.eff, new_state.positions, distances=geo.distances)
    if not metrics.connected:
        raise ConnectivityError(
            f"visibility graph disconnected after round {new_state.round}; positions:\n"
            + np.array2string(new_state.positions, precision=17, threshold=10_000)
        )
    report = RoundReport(round=new_state.round, metrics=metrics, reverted_agents=int(reverted.sum()))
    return new_state, report, geo


def step(state: SwarmState, world: WorldConfig) -> tuple[SwarmState, RoundReport]:
    """Advance one synchronous round and return the committed state + report."""
    if len(state.positions) != world.n:
        raise ValueError(f"state has {len(state.positions)} agents but the world has n={world.n}")
    new_state, report, _ = _step_core(state, world, _geometry(state.positions, world))
    return new_state, report


def run(
    world: WorldConfig,
    observer: Callable[[SwarmState, RoundReport | None], None] | None = None,
) -> list[RoundReport]:
    """Run a whole scenario; returns one report per committed round.

    Stops at max_rounds, or earlier once the swarm is quiescent (largest
    per-round displacement below 1e-6 of the visibility range for 10 rounds
    in a row; a leader must additionally have exhausted its waypoints).
    Identical configs produce identical reports. `observer`, when given, is
    called with the initial state (report None) and after every commit.
    Rounds that end with coincident agents, or below the separation floor,
    are logged once each, as a count.
    """
    state = initial_state(world)
    # connected by construction: WorldConfig checks explicit positions and
    # initial_state resamples the box until the visibility graph is connected
    geo = _geometry(state.positions, world)
    if observer is not None:
        observer(state, None)
    spec = world.behavior
    threshold = _QUIESCENT_FRACTION * world.vis_range
    reports: list[RoundReport] = []
    quiescent = 0
    coincident = 0
    below, closest = 0, math.inf
    for _ in range(world.max_rounds):
        prev = state.positions
        state, report, geo = _step_core(state, world, geo)
        reports.append(report)
        dmin = report.metrics.min_pair_distance
        coincident += dmin == 0.0
        if dmin < world.min_separation - FEASIBILITY_TOL:  # a pair packed to the floor may sit an ulp below it
            below, closest = below + 1, min(closest, dmin)
        if observer is not None:
            observer(state, report)
        moved = state.positions - prev
        largest = float(np.sqrt(moved[:, 0] * moved[:, 0] + moved[:, 1] * moved[:, 1]).max())
        quiescent = quiescent + 1 if largest < threshold else 0
        if quiescent >= _QUIESCENT_ROUNDS:
            if spec.kind != "leader_follow" or state.waypoint_index >= len(spec.waypoints):
                break
    if coincident:
        log.warning(
            "coincident agents (a pair at zero distance) in %d of %d rounds", coincident, len(reports)
        )
    if below:
        log.warning(
            "a pair below the separation floor in %d of %d rounds (closest at %.6g < %.6g); "
            "the separation cap holds such agents still", below, len(reports), closest, world.min_separation,
        )
    return reports
