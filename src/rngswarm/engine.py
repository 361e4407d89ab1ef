"""Synchronous round engine: snapshot, propose, verify, commit.

All agents plan from the same round-start snapshot. The commit phase then
re-checks every effective edge of that snapshot against the proposals (pair
distance, plus line of sight when obstacles exist) and reverts both
endpoints of any violated edge to their snapshot positions. Reverting is
monotone, a reverted agent never moves again within the round, so the sweep
reaches a fixpoint after at most n passes. Snapshot positions are safe
against both old and new neighbour positions, which keeps every effective
edge inside the next visibility graph and hence the swarm connected.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geom import Polygon
from .graphs import (
    Graph,
    GraphMetrics,
    coords,
    effective_graph,
    graph_metrics,
    is_connected,
    pair_distance_range,
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
            closest = pair_distance_range(xy)[0]
            if closest < sep:
                raise ValueError(
                    f"init.positions must keep every pair at least min_separation ({sep!r}) apart, "
                    f"got a pair at {closest!r}"
                )
            if not is_connected(visibility_graph(xy, self.vis_range)):
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
    leader_waypoint_index: int = 0


def initial_state(world: WorldConfig) -> SwarmState:
    """Explicit positions as given; otherwise sample the box with the world seed
    until the visibility graph is connected (and, with a separation floor, no
    pair starts below it)."""
    if world.init.positions is not None:
        return SwarmState(round=0, positions=np.asarray(world.init.positions, dtype=float))
    rng = np.random.default_rng(world.seed)
    # box sampling additionally rejects starts entangled with obstacles; explicit
    # positions are taken verbatim once WorldConfig has checked them (the
    # scenario author owns their placement around walls)
    xmin, ymin, xmax, ymax = world.init.box
    for _ in range(_MAX_INIT_ATTEMPTS):
        xy = rng.uniform((xmin, ymin), (xmax, ymax), size=(world.n, 2))
        if _acceptable_init(xy, world):
            return SwarmState(round=0, positions=xy)
    raise ValueError(
        f"no acceptable initial configuration in {_MAX_INIT_ATTEMPTS} samples; "
        "enlarge the box, raise vis_range, or lower n"
    )


def _acceptable_init(xy: np.ndarray, world: WorldConfig) -> bool:
    if world.min_separation > 0.0 and pair_distance_range(xy)[0] < world.min_separation:
        return False
    if world.obstacles:
        for x, y in xy:
            if any(poly.contains_xy(float(x), float(y)) for poly in world.obstacles):
                return False
    g = visibility_graph(xy, world.vis_range)
    if world.obstacles:
        # an initial edge through a wall would be reverted forever; resample instead
        for a, b in g.edges:
            x1, y1 = xy[a]
            x2, y2 = xy[b]
            if any(
                poly.blocks_segment_xy(float(x1), float(y1), float(x2), float(y2))
                for poly in world.obstacles
            ):
                return False
    return is_connected(g)


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


def _edge_safe(pi: np.ndarray, pj: np.ndarray, world: WorldConfig) -> bool:
    xi, yi = float(pi[0]), float(pi[1])
    xj, yj = float(pj[0]), float(pj[1])
    dx = xi - xj
    dy = yi - yj
    # same arithmetic as pairwise_distances: an edge this check accepts is
    # guaranteed to reappear in the next round's visibility graph
    if math.sqrt(dx * dx + dy * dy) > world.vis_range:
        return False
    for poly in world.obstacles:
        if poly.blocks_segment_xy(xi, yi, xj, yj):
            return False
    return True


def _verify_and_revert(
    old: np.ndarray, proposals: np.ndarray, effective: Graph, world: WorldConfig
) -> set[int]:
    """Revert both endpoints of every violated effective edge, to a fixpoint.

    Edges are swept in sorted order for determinism. Each sweep only ever
    adds newly reverted agents, so at most n sweeps run; an edge that stays
    violated with both endpoints already reverted (a pre-existing line of
    sight break) cannot be repaired and is left to the trimming dynamics.
    """
    reverted: set[int] = set()
    edges = sorted(effective.edges)
    if not edges:
        return reverted
    while True:
        changed = False
        for i, j in edges:
            if _edge_safe(proposals[i], proposals[j], world):
                continue
            for a in (i, j):
                if a not in reverted:
                    proposals[a] = old[a]
                    reverted.add(a)
                    changed = True
        if not changed:
            return reverted


def _build_graphs(positions: np.ndarray, world: WorldConfig) -> tuple[Graph, Graph]:
    g = visibility_graph(positions, world.vis_range)
    eff = effective_graph(g, positions, world.rng_plus)
    return g, eff


def _step_core(
    state: SwarmState, world: WorldConfig, g: Graph, eff: Graph
) -> tuple[SwarmState, RoundReport, Graph, Graph]:
    wp_index = _advance_waypoints(state, world)
    if wp_index != state.waypoint_index:
        state = replace(state, waypoint_index=wp_index)
    spec = world.behavior
    old = state.positions
    proposals = np.array(old, dtype=float)
    for i in range(world.n):
        q = apply_motion_law(i, state, eff, spec, world)
        proposals[i, 0] = q.x
        proposals[i, 1] = q.y
    reverted = _verify_and_revert(old, proposals, eff, world)
    new_state = SwarmState(round=state.round + 1, positions=proposals, waypoint_index=wp_index)
    g2, eff2 = _build_graphs(new_state.positions, world)
    metrics = graph_metrics(g2, eff2, new_state.positions)
    if not metrics.connected:
        raise ConnectivityError(
            f"visibility graph disconnected after round {new_state.round}; positions:\n"
            + np.array2string(new_state.positions, precision=17, threshold=10_000)
        )
    report = RoundReport(
        round=new_state.round,
        metrics=metrics,
        reverted_agents=len(reverted),
        leader_waypoint_index=wp_index,
    )
    return new_state, report, g2, eff2


def step(state: SwarmState, world: WorldConfig) -> tuple[SwarmState, RoundReport]:
    """Advance one synchronous round and return the committed state + report."""
    g, eff = _build_graphs(state.positions, world)
    new_state, report, _, _ = _step_core(state, world, g, eff)
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
    g, eff = _build_graphs(state.positions, world)
    if observer is not None:
        observer(state, None)
    spec = world.behavior
    threshold = _QUIESCENT_FRACTION * world.vis_range
    reports: list[RoundReport] = []
    quiescent = 0
    coincident = 0
    for _ in range(world.max_rounds):
        prev = state.positions
        state, report, g, eff = _step_core(state, world, g, eff)
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
