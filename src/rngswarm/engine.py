"""Synchronous round engine: snapshot, propose, verify, commit.

Each committed state's geometry (its distance matrix, visibility graph and
effective graph) is derived once and read by every layer: the motion law
plans from it, and the verify and the metrics read the next state's.
All agents plan from the same round-start snapshot, each inside the discs
and wall half-planes it shares with its effective neighbours, so the planned
moves keep every effective edge in range and in sight. The commit is a
backstop: it builds the visibility graph of the proposals and checks that
it still holds every effective edge of the snapshot. Only when one is
missing does it revert both endpoints of every missing edge at once to
their snapshot positions and build the graph again, until every missing
edge has both endpoints reverted. The rule reads only visibility graphs and no
edge order. Reverting is monotone, so it reaches its fixpoint after at most
n passes. Snapshot positions are safe against both old and new neighbour
positions, which keeps every effective edge inside the next visibility
graph and hence the swarm connected.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .geom import Polygon, segments_blocked
from .graphs import (
    Graph,
    GraphMetrics,
    effective_graph,
    graph_metrics,
    is_connected,
    pair_distance_range,
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
            pts = tuple((float(x), float(y)) for x, y in self.positions)
            for x, y in pts:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"positions must be finite, got ({x!r}, {y!r})")
            object.__setattr__(self, "positions", pts)
        else:
            xmin, ymin, xmax, ymax = (float(v) for v in self.box)
            if not all(map(math.isfinite, (xmin, ymin, xmax, ymax))):
                raise ValueError("box bounds must be finite")
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
        for name, low in (("n", 1), ("rng_plus", 0), ("max_rounds", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
        if not (math.isfinite(self.vis_range) and self.vis_range > 0.0):
            raise ValueError(f"vis_range must be positive and finite, got {self.vis_range!r}")
        sep = self.vis_range / 10.0 if self.min_separation is None else float(self.min_separation)
        if not (0.0 <= sep < self.vis_range):
            raise ValueError(
                f"min_separation must satisfy 0 <= sep < V, got sep={sep!r} with V={self.vis_range!r}"
            )
        object.__setattr__(self, "min_separation", sep)
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
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
        arr = np.array(self.positions, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {arr.shape}")
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
    xmin, ymin, xmax, ymax = world.init.box
    for _ in range(_MAX_INIT_ATTEMPTS):
        xy = rng.uniform((xmin, ymin), (xmax, ymax), size=(world.n, 2))
        if _init_fault(xy, world.vis_range, world.min_separation, world.obstacles) is None:
            return SwarmState(round=0, positions=xy)
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
        closest = pair_distance_range(xy, dist)[0]
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


def _commit(
    old: np.ndarray, proposals: np.ndarray, effective: Graph, world: WorldConfig
) -> tuple[np.ndarray, Graph, np.ndarray]:
    """Revert the proposals to a fixpoint over their visibility graph.

    Each pass builds the distance matrix and visibility graph of the
    proposals. Every effective edge missing from that graph that still has an
    endpoint not reverted gets both endpoints reverted to `old`, all at once,
    and the pass repeats. An edge missing with both endpoints reverted
    predates the round (a line of sight break) and is left to the trimming
    dynamics.
    Mutates `proposals`; returns the last pass's matrix and graph, which are
    the committed state's, and the mask of reverted agents.
    """
    edges = effective.edges
    reverted = np.zeros(world.n, dtype=bool)
    while True:
        dist = pairwise_distances(proposals)
        g = visibility_graph(proposals, world.vis_range, world.obstacles, dist=dist)
        held = g._holds(effective)
        if held.all():
            return dist, g, reverted
        broken = edges[~held]
        broken = broken[~reverted[broken].all(axis=1)]
        if not len(broken):
            return dist, g, reverted
        ends = broken.ravel()
        proposals[ends] = old[ends]
        reverted[ends] = True


class _Geometry(NamedTuple):
    """One committed state's geometry, derived once and read by every layer.
    Kept by the engine, not on SwarmState, so that an observer holding states
    holds no n x n matrices."""

    dist: np.ndarray  # pairwise_distances of the positions
    g: Graph  # visibility graph
    eff: Graph  # effective graph


def _geometry(positions: np.ndarray, world: WorldConfig) -> _Geometry:
    dist = pairwise_distances(positions)
    g = visibility_graph(positions, world.vis_range, world.obstacles, dist=dist)
    return _Geometry(dist, g, effective_graph(g, positions, world.rng_plus, dist=dist))


def _step_core(
    state: SwarmState, world: WorldConfig, geo: _Geometry
) -> tuple[SwarmState, RoundReport, _Geometry]:
    wp_index = _advance_waypoints(state, world)
    if wp_index != state.waypoint_index:
        state = replace(state, waypoint_index=wp_index)
    proposals = apply_motion_law(np.arange(world.n), state, geo.eff, world.behavior, world, dist=geo.dist)
    dist, g2, reverted = _commit(state.positions, proposals, geo.eff, world)
    new_state = SwarmState(round=state.round + 1, positions=proposals, waypoint_index=wp_index)
    eff2 = effective_graph(g2, new_state.positions, world.rng_plus, dist=dist)
    metrics = graph_metrics(g2, eff2, new_state.positions, dist=dist)
    if not metrics.connected:
        raise ConnectivityError(
            f"visibility graph disconnected after round {new_state.round}; positions:\n"
            + np.array2string(new_state.positions, precision=17, threshold=10_000)
        )
    report = RoundReport(round=new_state.round, metrics=metrics, reverted_agents=int(reverted.sum()))
    return new_state, report, _Geometry(dist, g2, eff2)


def step(state: SwarmState, world: WorldConfig) -> tuple[SwarmState, RoundReport]:
    """Advance one synchronous round and return the committed state + report."""
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
    Rounds that end with coincident agents are logged once, as a count.
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
    for _ in range(world.max_rounds):
        prev = state.positions
        state, report, geo = _step_core(state, world, geo)
        reports.append(report)
        coincident += report.metrics.min_pair_distance == 0.0
        if observer is not None:
            observer(state, report)
        moved = state.positions - prev
        largest = float(np.sqrt((moved * moved).sum(axis=1)).max())
        quiescent = quiescent + 1 if largest < threshold else 0
        if quiescent >= _QUIESCENT_ROUNDS:
            if spec.kind != "leader_follow" or state.waypoint_index >= len(spec.waypoints):
                break
    if coincident:
        log.warning(
            "coincident agents (a pair at zero distance) in %d of %d rounds", coincident, len(reports)
        )
    return reports
