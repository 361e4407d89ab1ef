"""Per-agent motion: behaviour targets and the step constrained to the allowable discs.

Every step is planned against the round-start snapshot only. The proposal
pipeline is: behaviour target, pre-cap at max_step, separation cap, clamp
into the intersection of the allowable discs of all effective neighbours,
then (with obstacles) shorten along the same segment until the endpoint is
outside every obstacle and keeps line of sight to every effective neighbour.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geom import FEASIBILITY_TOL, Point2, clamp_point_xy
from .graphs import Graph, coords

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SwarmState, WorldConfig

log = logging.getLogger(__name__)

BEHAVIOR_KINDS = ("gather", "formation", "leader_follow", "idle")

_OBSTACLE_BISECTIONS = 40


@dataclass(frozen=True)
class BehaviorSpec:
    """Behaviour parameters; `for_range` applies the range-scaled defaults."""

    kind: str
    max_step: float
    desired_spacing: float = 0.0
    spring_gain: float = 0.5
    leader_index: int = 0
    waypoints: tuple[tuple[float, float], ...] = ()
    waypoint_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError(f"kind must be one of {BEHAVIOR_KINDS}, got unknown behavior kind {self.kind!r}")
        if not (math.isfinite(self.max_step) and self.max_step > 0.0):
            raise ValueError(f"max_step must be positive, got {self.max_step!r}")
        if not (math.isfinite(self.desired_spacing) and self.desired_spacing >= 0.0):
            raise ValueError(f"desired_spacing must be >= 0, got {self.desired_spacing!r}")
        if not (0.0 < self.spring_gain <= 1.0):
            raise ValueError(f"spring_gain must lie in (0, 1], got {self.spring_gain!r}")
        if self.leader_index < 0:
            raise ValueError(f"leader_index must be >= 0, got {self.leader_index}")
        if not (math.isfinite(self.waypoint_tolerance) and self.waypoint_tolerance >= 0.0):
            raise ValueError(f"waypoint_tolerance must be >= 0, got {self.waypoint_tolerance!r}")
        wps = tuple((float(x), float(y)) for x, y in self.waypoints)
        for x, y in wps:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"waypoints: waypoint coordinates must be finite, got ({x!r}, {y!r})")
        object.__setattr__(self, "waypoints", wps)

    @classmethod
    def for_range(
        cls,
        kind: str,
        vis_range: float,
        *,
        desired_spacing: float | None = None,
        spring_gain: float = 0.5,
        leader_index: int = 0,
        waypoints: Sequence[Sequence[float]] = (),
        waypoint_tolerance: float | None = None,
        max_step: float | None = None,
    ) -> "BehaviorSpec":
        """Defaults scale with the visibility range: spacing is a tenth of it,
        waypoint tolerance a twentieth, and the step budget a fifth."""
        if not (math.isfinite(vis_range) and vis_range > 0.0):
            # checked here too, so a bad range is not reported as a bad default
            raise ValueError(f"vis_range must be positive and finite, got {vis_range!r}")
        return cls(
            kind=kind,
            max_step=0.2 * vis_range if max_step is None else max_step,
            desired_spacing=0.1 * vis_range if desired_spacing is None else desired_spacing,
            spring_gain=spring_gain,
            leader_index=leader_index,
            waypoints=tuple(tuple(w) for w in waypoints),
            waypoint_tolerance=0.05 * vis_range if waypoint_tolerance is None else waypoint_tolerance,
        )


def desired_target(i: int, state: "SwarmState", effective: Graph, spec: BehaviorSpec) -> Point2:
    """Behaviour target for agent i, pre-capped at max_step from its position.

    gather moves toward the centroid of the effective neighbours; formation
    applies a spring pull of gain * (d - spacing) along each effective edge;
    leader_follow sends the leader to its current waypoint (holding position
    once the list is exhausted) while everyone else gathers; idle stays put.
    """
    xy = state.positions
    p = xy[i]
    if spec.kind == "idle":
        raw = p
    elif spec.kind == "leader_follow" and i == spec.leader_index:
        k = state.waypoint_index
        raw = np.asarray(spec.waypoints[k], dtype=float) if k < len(spec.waypoints) else p
    elif spec.kind == "formation":
        nbrs = effective.neighbors(i)
        raw = p
        if len(nbrs):
            rel = xy[nbrs] - p
            dist = np.sqrt((rel * rel).sum(axis=1))
            ok = dist > 0.0  # a coincident neighbour has no direction to pull along
            if ok.any():
                scale = spec.spring_gain * (dist[ok] - spec.desired_spacing) / dist[ok]
                raw = p + (scale[:, None] * rel[ok]).sum(axis=0)
    else:  # gather, and every non-leader in leader_follow
        nbrs = effective.neighbors(i)
        raw = xy[nbrs].mean(axis=0) if len(nbrs) else p
    off = raw - p
    norm = math.sqrt(float(off[0]) ** 2 + float(off[1]) ** 2)
    if norm > spec.max_step:
        raw = p + off * (spec.max_step / norm)
    return Point2(float(raw[0]), float(raw[1]))


def separation_cap(i: int, positions, vis_range: float, min_separation: float) -> float:
    """Largest displacement of agent i that cannot break the separation floor.

    Each visible pair may close by at most its slack (d - min_separation),
    and under simultaneous motion both endpoints spend half of it, hence the
    /2. Pairs beyond vis_range are not inspected; they stay safe as long as
    max_step <= (vis_range - min_separation) / 2, which the world config
    enforces. With nothing visible the cap is unbounded (inf); the behaviour
    target is already pre-capped at max_step.
    """
    if min_separation < 0.0:
        raise ValueError(f"min_separation must be >= 0, got {min_separation!r}")
    xy = coords(positions)
    rel = xy - xy[i]
    d = np.sqrt((rel * rel).sum(axis=1))
    d[i] = math.inf
    visible = d <= vis_range
    if not visible.any():
        return math.inf
    nearest = float(d[visible].min())
    # Agents that have packed down to exactly the floor sit an ulp below it in
    # floats; only a materially shorter distance is worth flagging.
    if nearest < min_separation - 1e-9:
        log.warning(
            "agent %d starts the round below the separation floor (%.6g < %.6g); holding it still",
            i, nearest, min_separation,
        )
    return max(0.0, 0.5 * (nearest - min_separation))


def _feasible_xy(x: float, y: float, nbr_pts: list[tuple[float, float]], obstacles) -> bool:
    for poly in obstacles:
        if poly.contains_xy(x, y):
            return False
    for bx, by in nbr_pts:
        for poly in obstacles:
            if poly.blocks_segment_xy(x, y, bx, by):
                return False
    return True


def _constrain_to_obstacles(p: np.ndarray, q: np.ndarray, nbr_xy: np.ndarray, obstacles) -> np.ndarray:
    """Shorten the step p -> q until the endpoint clears every obstacle and
    keeps line of sight to each effective neighbour's current position."""
    nbr_pts = [(float(a), float(b)) for a, b in nbr_xy]
    if _feasible_xy(float(q[0]), float(q[1]), nbr_pts, obstacles):
        return q
    lo, hi = 0.0, 1.0
    for _ in range(_OBSTACLE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        x = float(p[0] + mid * (q[0] - p[0]))
        y = float(p[1] + mid * (q[1] - p[1]))
        if _feasible_xy(x, y, nbr_pts, obstacles):
            lo = mid
        else:
            hi = mid
    # lo stays 0.0 when no shortened step works; the agent then holds position
    return p + lo * (q - p)


def apply_motion_law(
    i: int,
    state: "SwarmState",
    effective: Graph,
    spec: BehaviorSpec,
    world: "WorldConfig",
) -> Point2:
    """Propose the next position of agent i from the current snapshot.

    The move never leaves the intersection of the allowable discs toward the
    effective neighbours, never exceeds the separation cap, and with
    obstacles present never loses line of sight to an effective neighbour's
    current position. Cross-agent interactions of simultaneous proposals are
    the engine's verify step, not handled here.
    """
    xy = state.positions
    p = xy[i]
    nbrs = effective.neighbors(i)
    nbr_xy = xy[nbrs]
    if len(nbrs):
        rel = nbr_xy - p
        dist = np.sqrt((rel * rel).sum(axis=1))
        if float(dist.max()) > world.vis_range + FEASIBILITY_TOL:
            raise RuntimeError(
                f"agent {i} is outside its allowable region: an effective neighbour "
                f"sits {float(dist.max()):.6g} away with visibility range {world.vis_range:.6g}"
            )
    target = desired_target(i, state, effective, spec)
    t = np.array((target.x, target.y), dtype=float)
    if world.min_separation > 0.0:
        cap = separation_cap(i, xy, world.vis_range, world.min_separation)
        off = t - p
        norm = math.sqrt(float(off[0]) ** 2 + float(off[1]) ** 2)
        if norm > cap:
            t = p + off * (cap / norm) if cap > 0.0 else p.copy()
    if len(nbrs):
        # allowable disc of a pair: radius V/2 at its midpoint; any two points
        # inside it are at most V apart, so a pair that moves into its shared
        # disc keeps its visibility edge
        centers = 0.5 * (nbr_xy + p)
        q = clamp_point_xy(p, t, centers, 0.5 * world.vis_range)
    else:
        q = t.copy()
    if world.obstacles:
        q = _constrain_to_obstacles(p, q, nbr_xy, world.obstacles)
    return Point2(float(q[0]), float(q[1]))
