"""Motion: behaviour targets and the step constrained to the allowable region.

Every step is planned against the round-start snapshot only, for all agents
at once: each stage is one array pass over the agents and their effective
edges, in the portable arithmetic of `geom`. The proposal pipeline is:
behaviour target, pre-cap at max_step, separation cap, clamp into the
intersection of the allowable discs of all effective neighbours, then (with
obstacles) shorten the same segment into the half-planes that separate each
effective edge, and the agent's own point, from every obstacle edge.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geom import FEASIBILITY_TOL, clamp_point_xy, clamp_to_sight
from .graphs import Graph, coords, pairwise_distances

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SwarmState, WorldConfig

log = logging.getLogger(__name__)

BEHAVIOR_KINDS = ("gather", "formation", "leader_follow", "idle")


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


def _as_rows(agents) -> tuple[bool, np.ndarray]:
    """(single, indices): a scalar index is the one-row case of an index array."""
    idx = np.asarray(agents, dtype=np.intp)
    return idx.ndim == 0, idx.reshape(-1)


def _neighbour_rows(effective: Graph, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the agents `idx`: row k lists the effective neighbours of
    idx[k], in ascending order, as nbr[indptr[k]:indptr[k + 1]]."""
    full_ptr, full_idx = effective._csr
    if len(idx) == effective.n and (idx == np.arange(len(idx))).all():
        return full_ptr, full_idx  # every agent in order: the graph's own rows
    start = full_ptr[idx]
    deg = full_ptr[idx + 1] - start
    indptr = np.zeros(len(idx) + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    return indptr, full_idx[np.repeat(start - indptr[:-1], deg) + np.arange(indptr[-1])]


def _row_sums(rows: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    """(k, 2) sums of the (m, 2) `rows`, row r going to owner[r]. `bincount`
    adds its weights one at a time in input order from +0.0, so each sum
    takes its CSR row in order: the rounding of `ndarray.sum(axis=0)`. A
    flat `add` reduction (`reduceat`, or a sum over a padded block) may add
    pairwise instead, which rounds differently and would move trajectories."""
    return np.array((np.bincount(owner, rows[:, 0], k), np.bincount(owner, rows[:, 1], k))).T


def desired_target(agents, state: "SwarmState", effective: Graph, spec: BehaviorSpec) -> np.ndarray:
    """Behaviour target of each agent, pre-capped at max_step from its position.

    gather moves toward the centroid of the effective neighbours; formation
    applies a spring pull of gain * (d - spacing) along each effective edge;
    leader_follow sends the leader to its current waypoint (holding position
    once the list is exhausted) while everyone else gathers; idle stays put.
    `agents` is an index array, giving (k, 2) targets, or one index, giving
    one (2,) target.
    """
    single, idx = _as_rows(agents)
    xy = state.positions
    p = xy[idx]
    raw = p.copy()
    if spec.kind != "idle":
        indptr, nbr = _neighbour_rows(effective, idx)
        deg = indptr[1:] - indptr[:-1]
        owner = np.repeat(np.arange(len(idx)), deg)
        if spec.kind == "formation":
            rel = xy[nbr] - p[owner]
            dist = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])
            ok = dist > 0.0  # a coincident neighbour has no direction to pull along
            scale = spec.spring_gain * (dist - spec.desired_spacing) / np.where(ok, dist, 1.0)
            # a skipped neighbour adds -0.0, which leaves every sum as it was
            pull = np.where(ok[:, None], scale[:, None] * rel, -0.0)
            pulled = np.bincount(owner[ok], minlength=len(idx)) > 0
            raw[pulled] = p[pulled] + _row_sums(pull, owner, len(idx))[pulled]
        else:  # gather, and every non-leader in leader_follow
            has = deg > 0
            raw[has] = _row_sums(xy[nbr], owner, len(idx))[has] / deg[has, None]
        if spec.kind == "leader_follow":
            k = state.waypoint_index
            lead = idx == spec.leader_index
            raw[lead] = spec.waypoints[k] if k < len(spec.waypoints) else p[lead]
    off = raw - p
    norm = np.sqrt(off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1])
    over = norm > spec.max_step
    raw[over] = p[over] + off[over] * (spec.max_step / norm[over])[:, None]
    return raw[0] if single else raw


def separation_cap(
    agents, positions, vis_range: float, min_separation: float, dist: np.ndarray | None = None
):
    """Largest displacement of each agent that cannot break the separation floor.

    Each visible pair may close by at most its slack (d - min_separation),
    and under simultaneous motion both endpoints spend half of it, hence the
    /2. Pairs beyond vis_range are not inspected; they stay safe as long as
    max_step <= (vis_range - min_separation) / 2, which the world config
    enforces. With nothing visible the cap is unbounded (inf); the behaviour
    target is already pre-capped at max_step. An index array gives a (k,)
    array of caps, one index a float. Agents that start below the floor are
    held still and reported in one warning per call. `dist` is
    `pairwise_distances` of the positions; without it only the agents' own
    rows are computed.
    """
    if min_separation < 0.0:
        raise ValueError(f"min_separation must be >= 0, got {min_separation!r}")
    single, idx = _as_rows(agents)
    d = pairwise_distances(coords(positions), idx) if dist is None else dist[idx]
    d[np.arange(len(idx)), idx] = math.inf
    nearest = np.where(d <= vis_range, d, math.inf).min(axis=1, initial=math.inf)
    # Agents that have packed down to exactly the floor sit an ulp below it in
    # floats; only a materially shorter distance is worth flagging.
    below = nearest < min_separation - 1e-9
    if below.any():
        log.warning(
            "%d agent(s) start the round below the separation floor (closest at %.6g < %.6g); holding them still",
            int(below.sum()), float(nearest[below].min()), min_separation,
        )
    half = 0.5 * (nearest - min_separation)
    cap = np.where(half > 0.0, half, 0.0)
    return float(cap[0]) if single else cap


def apply_motion_law(
    agents,
    state: "SwarmState",
    effective: Graph,
    spec: BehaviorSpec,
    world: "WorldConfig",
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Propose the next position of each agent from the current snapshot.

    The move never leaves the intersection of the allowable discs toward the
    effective neighbours, never exceeds the separation cap, and with
    obstacles present stays in the half-planes that separate each effective
    edge, and the agent's own point, from every obstacle edge. A neighbour
    planning from the same snapshot stays in the same disc and half-planes,
    so their edge survives both moves; the engine's verify is the backstop.
    `agents` is an index array, giving (k, 2) proposals, or one index,
    giving one (2,) proposal. `dist` is `pairwise_distances` of the
    positions; without it only the agents' own rows are computed.
    """
    single, idx = _as_rows(agents)
    xy = state.positions
    p = xy[idx]
    indptr, nbr = _neighbour_rows(effective, idx)
    owner = np.repeat(np.arange(len(idx)), indptr[1:] - indptr[:-1])
    nbr_xy = xy[nbr]
    length = pairwise_distances(xy, idx)[owner, nbr] if dist is None else dist[idx[owner], nbr]
    far = length > world.vis_range + FEASIBILITY_TOL
    if far.any():
        row = owner[np.argmax(far)]
        raise RuntimeError(
            f"agent {idx[row]} is outside its allowable region: an effective neighbour "
            f"sits {float(length[owner == row].max()):.6g} away with visibility range {world.vis_range:.6g}"
        )
    t = desired_target(idx, state, effective, spec)
    if world.min_separation > 0.0:
        cap = separation_cap(idx, xy, world.vis_range, world.min_separation, dist=dist)
        off = t - p
        norm = np.sqrt(off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1])
        over = norm > cap
        held = over & (cap <= 0.0)
        t[held] = p[held]
        scaled = over & (cap > 0.0)
        t[scaled] = p[scaled] + off[scaled] * (cap[scaled] / norm[scaled])[:, None]
    # allowable disc of a pair: radius V/2 at its midpoint; any two points
    # inside it are at most V apart, so a pair that moves into its shared
    # disc keeps its visibility edge
    centers = 0.5 * (nbr_xy + p[owner])
    q = clamp_point_xy(p, t, centers, 0.5 * world.vis_range, indptr=indptr)
    if world.obstacles:
        # each edge from its index-ordered pair, so both ends share its half-planes
        seg_a, seg_b = xy[np.minimum(idx[owner], nbr)], xy[np.maximum(idx[owner], nbr)]
        q = clamp_to_sight(p, q, owner, seg_a, seg_b, world.obstacles)
    return q[0] if single else q
