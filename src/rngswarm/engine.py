"""Synchronous round engine: snapshot, propose, verify, commit.

Each committed state's geometry (its distance matrix, visibility graph and
effective graph) is derived once and read by every layer: the motion law
plans from it, and the verify and the metrics read the next state's.
All agents plan from the same round-start snapshot, each inside the discs
and wall half-planes it shares with its effective neighbours, so the planned
moves keep every effective edge in range and in sight. The commit phase is
a backstop: it builds the visibility graph of the proposals and checks that
it still holds every effective edge of the snapshot (pair distance, plus
line of sight when obstacles exist). Only when one is missing does the
sweep run that reverts both endpoints of each violated edge to their
snapshot positions, and the next graph is rebuilt from the result.
Reverting is monotone, a reverted agent never moves again within the round,
so the sweep reaches a fixpoint after at most n passes. Snapshot positions
are safe against both old and new neighbour positions, which keeps every
effective edge inside the next visibility graph and hence the swarm
connected.
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
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.vis_range) and self.vis_range > 0.0):
            raise ValueError(f"vis_range must be positive and finite, got {self.vis_range!r}")
        if not (isinstance(self.rng_plus, int) and self.rng_plus >= 0):
            raise ValueError(f"rng_plus must be >= 0 and an integer, got {self.rng_plus!r}")
        sep = self.vis_range / 10.0 if self.min_separation is None else float(self.min_separation)
        if not (0.0 <= sep < self.vis_range):
            raise ValueError(
                f"min_separation must satisfy 0 <= sep < V, got sep={sep!r} with V={self.vis_range!r}"
            )
        object.__setattr__(self, "min_separation", sep)
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds!r}")
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
            dist = pairwise_distances(xy)
            closest = pair_distance_range(xy, dist)[0]
            if closest < sep:
                raise ValueError(
                    f"init.positions must keep every pair at least min_separation ({sep!r}) apart, "
                    f"got a pair at {closest!r}"
                )
            if not is_connected(visibility_graph(xy, self.vis_range, self.obstacles, dist=dist)):
                raise ValueError("init.positions give a disconnected initial visibility graph")


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
    until the visibility graph is connected (and, with a separation floor, no
    pair starts below it)."""
    if world.init.positions is not None:
        return SwarmState(round=0, positions=np.asarray(world.init.positions, dtype=float))
    rng = np.random.default_rng(world.seed)
    # box sampling additionally rejects an agent on or in a wall; explicit
    # positions are taken verbatim once WorldConfig has checked them (the
    # scenario author owns their placement around walls)
    xmin, ymin, xmax, ymax = world.init.box
    for _ in range(_MAX_INIT_ATTEMPTS):
        xy = rng.uniform((xmin, ymin), (xmax, ymax), size=(world.n, 2))
        if _acceptable_init(xy, world.vis_range, world.min_separation, world.obstacles):
            return SwarmState(round=0, positions=xy)
    raise ValueError(
        f"no acceptable initial configuration in {_MAX_INIT_ATTEMPTS} samples; "
        "enlarge the box, raise vis_range, or lower n"
    )


def _acceptable_init(xy: np.ndarray, vis_range: float, min_separation: float, obstacles) -> bool:
    """No pair below the separation floor, no agent touching an obstacle, and
    a connected visibility graph, walls included."""
    dist = pairwise_distances(xy)
    if min_separation > 0.0 and pair_distance_range(xy, dist)[0] < min_separation:
        return False
    # a zero-length segment is blocked where its point touches a wall
    if segments_blocked(xy, xy, obstacles).any():
        return False
    return is_connected(visibility_graph(xy, vis_range, obstacles, dist=dist))


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


def _edges_safe(pos: np.ndarray, edges: np.ndarray, world: WorldConfig) -> np.ndarray:
    """Whether each edge keeps its endpoints in range and in sight of each other."""
    p, q = pos[edges[:, 0]], pos[edges[:, 1]]
    d = p - q
    # the arithmetic and the wall test of visibility_graph: an edge this check
    # accepts is guaranteed to reappear in the next round's visibility graph
    return (np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= world.vis_range) & ~segments_blocked(
        p, q, world.obstacles
    )


def _verify_and_revert(
    old: np.ndarray, proposals: np.ndarray, effective: Graph, world: WorldConfig
) -> set[int]:
    """Revert both endpoints of every violated effective edge, to a fixpoint.

    The planner keeps every effective edge by construction, so this is a
    backstop. One array pass checks every edge; only when one fails are the
    edges swept in sorted order, reverting as each violated edge is met,
    until a sweep changes nothing. An edge that stays violated with both
    endpoints already reverted (a pre-existing line of sight break) cannot
    be repaired and is left to the trimming dynamics.
    """
    edges = effective.edges
    reverted: set[int] = set()
    changed = not _edges_safe(proposals, edges, world).all()
    while changed:
        changed = False
        for e, (i, j) in enumerate(edges.tolist()):
            if {i, j} <= reverted or _edges_safe(proposals, edges[e : e + 1], world)[0]:
                continue
            proposals[[i, j]] = old[[i, j]]
            reverted |= {i, j}
            changed = True
    return reverted


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
    old = state.positions
    proposals = apply_motion_law(np.arange(world.n), state, geo.eff, world.behavior, world, dist=geo.dist)
    # the next visibility graph applies the verify's predicate to every pair:
    # when it holds every effective edge, no edge needs a revert
    dist = pairwise_distances(proposals)
    g2 = visibility_graph(proposals, world.vis_range, world.obstacles, dist=dist)
    reverted: set[int] = set()
    if not g2.has_edges(geo.eff.edges).all():
        reverted = _verify_and_revert(old, proposals, geo.eff, world)
        dist = pairwise_distances(proposals)
        g2 = visibility_graph(proposals, world.vis_range, world.obstacles, dist=dist)
    new_state = SwarmState(round=state.round + 1, positions=proposals, waypoint_index=wp_index)
    eff2 = effective_graph(g2, new_state.positions, world.rng_plus, dist=dist)
    metrics = graph_metrics(g2, eff2, new_state.positions, dist=dist)
    if not metrics.connected:
        raise ConnectivityError(
            f"visibility graph disconnected after round {new_state.round}; positions:\n"
            + np.array2string(new_state.positions, precision=17, threshold=10_000)
        )
    report = RoundReport(round=new_state.round, metrics=metrics, reverted_agents=len(reverted))
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
