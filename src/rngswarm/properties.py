"""Randomised property suites behind the `check` subcommand.

Each suite draws its own generator from the given seed, so a (cases, seed)
pair is fully reproducible. The acceptance tests reuse these helpers with
larger case counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import InitSpec, SwarmState, WorldConfig, _init_fault, step
from .geom import clamp_fraction, clamp_point_xy
from .graphs import effective_graph, is_connected, pair_distance_range, visibility_graph
from .motion import BEHAVIOR_KINDS, BehaviorSpec

CLAMP_ORACLE_TOL = 1e-7
SEPARATION_TOL = 1e-9
_SAMPLE_ATTEMPTS = 10_000


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def sample_connected_positions(rng: np.random.Generator, n: int, min_sep: float = 0.0) -> np.ndarray:
    """Uniform sample of a square of side max(1, 0.7 * sqrt(n)), resampled
    until the unit-range visibility graph is connected (and no pair starts
    below min_sep, when given)."""
    side = max(1.0, 0.7 * math.sqrt(n))
    for _ in range(_SAMPLE_ATTEMPTS):
        xy = rng.uniform(0.0, side, size=(n, 2))
        if _init_fault(xy, 1.0, min_sep, ()) is None:
            return xy
    raise RuntimeError(f"no connected sample found for n={n} in {_SAMPLE_ATTEMPTS} attempts")


def check_connectivity_preservation(cases: int, seed: int) -> SuiteResult:
    """Trimming a connected visibility graph never disconnects it."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(3, 61))
        xy = sample_connected_positions(rng, n)
        g = visibility_graph(xy, 1.0)
        eff = effective_graph(g, xy, 0)
        if not is_connected(eff):
            failures += 1
    return SuiteResult("connectivity-preservation", cases, failures)


def check_edge_bound(cases: int, seed: int) -> SuiteResult:
    """The trimmed graph is a subgraph with at most 3n - 6 edges (n >= 3)."""
    rng = np.random.default_rng(seed)
    failures = 0
    detail = ""
    for _ in range(cases):
        n = int(rng.integers(3, 61))
        xy = sample_connected_positions(rng, n)
        g = visibility_graph(xy, 1.0)
        eff = effective_graph(g, xy, 0)
        if not g.has_edges(eff.edges).all() or len(eff.edges) > 3 * n - 6:
            failures += 1
            detail = f"n={n} effective_edges={len(eff.edges)}"
    return SuiteResult("edge-bound", cases, failures, detail)


def check_plus_nesting(cases: int, seed: int) -> SuiteResult:
    """Raising the lens occupancy limit only ever adds edges."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(3, 41))
        xy = sample_connected_positions(rng, n)
        g = visibility_graph(xy, 1.0)
        levels = [effective_graph(g, xy, m) for m in (0, 1, 2)] + [g]
        if not all(outer.has_edges(inner.edges).all() for inner, outer in zip(levels, levels[1:])):
            failures += 1
    return SuiteResult("plus-nesting", cases, failures)


def check_separation_floor(cases: int, seed: int) -> SuiteResult:
    """One synchronous round never pushes any pair below the separation floor."""
    rng = np.random.default_rng(seed)
    sep = 0.1
    failures = 0
    detail = ""
    for case in range(cases):
        n = int(rng.integers(2, 21))
        xy = sample_connected_positions(rng, n, min_sep=sep)
        kind = BEHAVIOR_KINDS[int(rng.integers(0, len(BEHAVIOR_KINDS)))]
        spec = BehaviorSpec.for_range(
            kind,
            1.0,
            leader_index=int(rng.integers(0, n)),
            waypoints=[tuple(rng.uniform(-2.0, 4.0, size=2))] if kind == "leader_follow" else (),
        )
        world = WorldConfig(
            n=n,
            vis_range=1.0,
            behavior=spec,
            init=InitSpec(positions=tuple(map(tuple, xy))),
            min_separation=sep,
            max_rounds=1,
            seed=int(rng.integers(0, 2**31)),
        )
        new_state, _ = step(SwarmState(round=0, positions=xy), world)
        dmin = pair_distance_range(new_state.positions)[0]
        if dmin < sep - SEPARATION_TOL:
            failures += 1
            detail = f"case {case}: min pair {dmin}"
    return SuiteResult("separation-floor", cases, failures, detail)


def random_clamp_instance(rng: np.random.Generator):
    """A feasible clamp instance: discs containing the current point, plus a target."""
    cur = rng.uniform(-1.0, 1.0, size=2)
    k = int(rng.integers(0, 7))
    centers = np.empty((k, 2), dtype=float)
    radii = np.empty(k, dtype=float)
    for idx in range(k):
        r = float(rng.uniform(0.2, 2.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        offset = r * float(rng.uniform(0.0, 0.999))
        centers[idx] = cur + offset * np.array([math.cos(angle), math.sin(angle)])
        radii[idx] = r
    tgt = cur + rng.uniform(-3.0, 3.0, size=2)
    return cur, tgt, centers, radii


def bisect_clamp_fraction(cur, tgt, centers, radii) -> float:
    """Independent oracle: bisection on the feasibility predicate along the segment."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (centers.shape[0],))
    cur = np.asarray(cur, dtype=float)
    tgt = np.asarray(tgt, dtype=float)

    def feasible(s: float) -> bool:
        q = cur + s * (tgt - cur)
        w = q - centers
        return bool(np.all(np.sqrt((w * w).sum(axis=1)) <= radii + 1e-12))

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def check_clamp_oracle(cases: int, seed: int) -> SuiteResult:
    """The quadratic clamp agrees with the bisection oracle and stays feasible."""
    rng = np.random.default_rng(seed)
    failures = 0
    detail = ""
    for case in range(cases):
        cur, tgt, centers, radii = random_clamp_instance(rng)
        s = clamp_fraction(cur, tgt, centers, radii)
        s_oracle = bisect_clamp_fraction(cur, tgt, centers, radii)
        q = clamp_point_xy(cur, tgt, centers, radii)
        feasible = True
        if len(centers):
            w = q - centers
            feasible = bool(np.all(np.sqrt((w * w).sum(axis=1)) <= radii + 1e-9))
        if abs(s - s_oracle) > CLAMP_ORACLE_TOL or not feasible:
            failures += 1
            detail = f"case {case}: s={s} oracle={s_oracle}"
    return SuiteResult("clamp-oracle", cases, failures, detail)


def run_all(cases: int, seed: int) -> list[SuiteResult]:
    """All suites with per-suite derived seeds; used by `rngswarm check`."""
    return [
        check_connectivity_preservation(cases, seed + 1),
        check_plus_nesting(max(1, cases // 2), seed + 3),
        check_edge_bound(cases, seed + 4),
        check_separation_floor(max(1, cases // 2), seed + 5),
        check_clamp_oracle(cases, seed + 6),
    ]
