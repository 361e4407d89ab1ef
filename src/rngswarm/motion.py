"""Motion: behaviour targets and the step constrained to the allowable region.

Every step is planned against the round-start snapshot only, for all agents
at once: each stage reads the round's arrays, returns one row per agent and
is one array pass in the portable arithmetic of `geom`. The proposal
pipeline is: behaviour target, pre-cap at max_step, separation cap (one
step-length cap with two limits), clamp into the intersection of the
allowable discs of all effective neighbours, then (with obstacles) shorten
the same segment into the half-planes that separate each effective edge,
and the agent's own point, from every obstacle edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geom import FEASIBILITY_TOL, _integer, _number, _points, clamp_point_xy, clamp_to_sight
from .graphs import Graph, nearest_distances, pairwise_distances

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SwarmState, WorldConfig

BEHAVIOR_KINDS = ("gather", "formation", "leader_follow", "idle")

# (field, rule, test) for each number of a BehaviorSpec
_NUMBER_RULES = (
    ("max_step", "must be positive", lambda x: 0.0 < x < math.inf),
    ("desired_spacing", "must be >= 0", lambda x: 0.0 <= x < math.inf),
    ("spring_gain", "must lie in (0, 1]", lambda x: 0.0 < x <= 1.0),
    ("waypoint_tolerance", "must be >= 0", lambda x: 0.0 <= x < math.inf),
)


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
        for name, rule, ok in _NUMBER_RULES:
            object.__setattr__(self, name, _number(getattr(self, name), name, rule, ok))
        _integer(self.leader_index, "leader_index", 0)
        object.__setattr__(self, "waypoints", _points(self.waypoints, "waypoints", "waypoint coordinates"))

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
        # checked here too, so a bad range is not reported as a bad default
        vis_range = _number(vis_range, "vis_range", "must be positive and finite", lambda x: 0.0 < x < math.inf)
        return cls(
            kind=kind,
            max_step=0.2 * vis_range if max_step is None else max_step,
            desired_spacing=0.1 * vis_range if desired_spacing is None else desired_spacing,
            spring_gain=spring_gain,
            leader_index=leader_index,
            waypoints=waypoints,
            waypoint_tolerance=0.05 * vis_range if waypoint_tolerance is None else waypoint_tolerance,
        )


def _row_sums(rows: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    """(k, 2) sums of the (m, 2) `rows`, row r going to owner[r]. `bincount`
    adds its weights one at a time in input order from +0.0, so each sum
    takes its CSR row in order: the rounding of `ndarray.sum(axis=0)`. A
    flat `add` reduction (`reduceat`, or a sum over a padded block) may add
    pairwise instead, which rounds differently and would move trajectories."""
    return np.array((np.bincount(owner, rows[:, 0], k), np.bincount(owner, rows[:, 1], k))).T


def _cap_steps(xy: np.ndarray, t: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Shorten in place every step xy -> t longer than its agent's `limit`
    to that length along its own ray, xy + off * (limit / norm); returns
    the indices of the shortened steps."""
    off = t - xy
    norm = np.sqrt(off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1])
    over = (norm > limit).nonzero()[0]
    if len(over):
        t[over] = xy.take(over, axis=0) + off.take(over, axis=0) * (limit.take(over) / norm.take(over))[:, None]
    return over


def desired_target(state: "SwarmState", effective: Graph, spec: BehaviorSpec) -> np.ndarray:
    """(n, 2) behaviour targets, each pre-capped at max_step from its agent.

    gather moves toward the centroid of the effective neighbours; formation
    applies a spring pull of gain * (d - spacing) along each effective edge;
    leader_follow sends the leader to its current waypoint (holding position
    once the list is exhausted) while everyone else gathers; idle stays put.
    """
    xy = state.positions
    n = len(xy)
    raw = xy.copy()
    if spec.kind != "idle":
        _, nbr, owner = effective._csr
        if spec.kind == "formation":
            rel = xy.take(nbr, axis=0) - xy.take(owner, axis=0)
            dist = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])
            ok = dist > 0.0  # a coincident neighbour has no direction to pull along
            scale = spec.spring_gain * (dist - spec.desired_spacing) / np.where(ok, dist, 1.0)
            # a skipped neighbour adds -0.0, which leaves every sum as it was
            pull = np.where(ok[:, None], scale[:, None] * rel, -0.0)
            pulled = np.bincount(owner[ok], minlength=n).nonzero()[0]
            raw[pulled] = xy.take(pulled, axis=0) + _row_sums(pull, owner, n).take(pulled, axis=0)
        else:  # gather, and every non-leader in leader_follow
            has, deg = effective._plan[:2]
            raw[has] = _row_sums(xy.take(nbr, axis=0), owner, n).take(has, axis=0) / deg
        if spec.kind == "leader_follow":
            k = state.waypoint_index
            lead = np.arange(n) == spec.leader_index
            raw[lead] = spec.waypoints[k] if k < len(spec.waypoints) else xy[lead]
    _cap_steps(xy, raw, np.full(n, spec.max_step))
    return raw


def separation_cap(nearest: np.ndarray, vis_range: float, min_separation: float) -> np.ndarray:
    """(n,) largest displacement of each agent that cannot break the separation
    floor, read from (and not written into) the agents' `nearest_distances`.

    Each visible pair may close by at most its slack (d - min_separation),
    and under simultaneous motion both endpoints spend half of it, hence the
    /2, so the cap reads each agent's nearest distance. Pairs beyond
    vis_range are not inspected, so a nearest one beyond it counts as none;
    they stay safe as long as max_step <= (vis_range - min_separation) / 2,
    which the world config enforces. With nothing visible the cap is unbounded (inf); the behaviour
    target is already pre-capped at max_step. An agent at or below the floor
    gets 0 and is held still; `run` counts the rounds that end below it.
    """
    rule = f"must satisfy 0 <= sep < V={vis_range!r}"  # WorldConfig's rule
    sep = _number(min_separation, "min_separation", rule, lambda x: 0.0 <= x < vis_range)
    half = 0.5 * (np.where(nearest > vis_range, math.inf, nearest) - sep)
    return np.where(half > 0.0, half, 0.0)


def apply_motion_law(
    agents,
    state: "SwarmState",
    effective: Graph,
    spec: BehaviorSpec,
    world: "WorldConfig",
    distances: tuple | None = None,
) -> np.ndarray:
    """Propose the next position of each agent from the current snapshot.

    The move never leaves the intersection of the allowable discs toward the
    effective neighbours, never exceeds the separation cap, and with
    obstacles present stays in the half-planes that separate each effective
    edge, and the agent's own point, from every obstacle edge. A neighbour
    planning from the same snapshot stays in the same disc and half-planes,
    so their edge survives both moves; the engine's verify is the backstop.
    Every agent is planned, and `agents` selects the rows returned: an index
    array gives (k, 2) proposals, one index one (2,) proposal. `distances` is
    (dist, nearest), as `graph_metrics` takes it, derived here when not given.
    """
    xy = state.positions
    dist = pairwise_distances(xy) if distances is None else distances[0]
    _, nbr, owner = effective._csr
    _, _, key, mover, ends = effective._plan
    length = dist.take(key)
    far = length > world.vis_range + FEASIBILITY_TOL
    if far.any():
        row = owner[np.argmax(far)]
        raise RuntimeError(
            f"agent {row} is outside its allowable region: an effective neighbour "
            f"sits {float(length[owner == row].max()):.6g} away with visibility range {world.vis_range:.6g}"
        )
    t = desired_target(state, effective, spec)
    if world.min_separation > 0.0:
        nearest = nearest_distances(dist) if distances is None else distances[1]
        cap = separation_cap(nearest, world.vis_range, world.min_separation)
        over = _cap_steps(xy, t, cap)
        held = over[cap.take(over) <= 0.0]  # a zero cap holds its agent exactly
        t[held] = xy.take(held, axis=0)
    # allowable disc of a pair: radius V/2 at its midpoint; any two points
    # inside it are at most V apart, so a pair that moves into its shared
    # disc keeps its visibility edge
    centers = 0.5 * (xy.take(nbr, axis=0) + xy.take(owner, axis=0))
    q = clamp_point_xy(xy, t, centers, 0.5 * world.vis_range, owner)
    # each edge from its index-ordered pair, so both ends share its half-planes
    return clamp_to_sight(xy, q, mover, ends, world.obstacles)[agents]
