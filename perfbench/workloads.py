"""Seeded workload generators.

Each generator returns the units of one pass. A unit holds the generated
inputs and a `build` step that turns them into a `WorldConfig` through the
package's public API (constructors, or `load_scenario`), so validation and
YAML parsing are paid inside the measured set-up, in every pass. Equal seeds
give equal units; nothing here imports the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import rngswarm as rs

# The tier-1 acceptance mix repeats every 36 worlds: n = 5 + (11 i mod 36)
# visits each n once per period and the behaviour (period 3) and the wall
# (period 2) divide 36. One period is the whole mix. The tier-1 500-round
# length does not fit a run, so each world is capped at BATCH_ROUNDS: traced
# over the gate's 100 worlds x 500 rounds, the first 160 rounds of each (or
# fewer, where run() stops at rest) match the whole gate in motion share
# (0.693 vs 0.691), reverted agents per round (0.60 vs 0.60) and visibility
# edges per round (169 vs 170); a cap of 40 undercounts the last two (0.52, 136).
BATCH_WORLDS = 36
BATCH_ROUNDS = 160
BATCH_KINDS = ("gather", "formation", "leader_follow")
BATCH_WALL_SIDE = 0.12

# The bundled scenarios, by name, so later additions to scenarios/ do not
# change this workload.
SCENARIO_FILES = ("adhoc_network.yaml", "formation.yaml", "leader_line.yaml", "narrow_passage.yaml")

# large_swarm shows the graph layer (graph_metrics is about nine tenths of a
# round) but BENCHMARK.json leaves it out: its ~1.4 s rounds leave a run too
# few repeats to stay steady on a shared 2-vCPU host. Run it by name.
LARGE_N = 400
LARGE_ROUNDS = 5
# Jitter of at most LATTICE_JITTER per axis changes a pair distance by at
# most 2 * sqrt(2) * LATTICE_JITTER = 0.141, so every pair stays far above
# sep = 0.1, diagonal neighbours (0.849) always see each other and points two
# steps apart (1.2) never do: every seed starts from the same king's-move
# visibility graph (hop diameter k - 1), and only the trimmed graph varies.
LATTICE_SPACING = 0.6
LATTICE_JITTER = 0.05


@dataclass(frozen=True)
class Unit:
    """One world of a pass. `build(tracer)` returns its WorldConfig."""

    label: str
    build: Callable[[object], "rs.WorldConfig"]
    writes_metrics: bool = False  # the scenarios path ends in write_metrics, like `rngswarm run`


def derived_seeds(seed: int, tag: int, count: int) -> list[int]:
    """`count` independent 32-bit seeds drawn from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def batch_world(i: int, seed: int) -> "rs.WorldConfig":
    n = 5 + (11 * i) % 36
    side = max(1.2, 0.55 * math.sqrt(n))
    kind = BATCH_KINDS[i % 3]
    waypoints = ((0.9 * side, 0.45 * side), (0.1 * side, 0.9 * side)) if kind == "leader_follow" else ()
    obstacles = ()
    if i % 2:
        x0, y0 = 0.55 * side, 0.4 * side
        w = BATCH_WALL_SIDE
        obstacles = (rs.Polygon(((x0, y0), (x0 + w, y0), (x0 + w, y0 + w), (x0, y0 + w))),)
    return rs.WorldConfig(
        n=n,
        vis_range=1.0,
        behavior=rs.BehaviorSpec.for_range(kind, 1.0, waypoints=waypoints),
        init=rs.InitSpec(box=(0.0, 0.0, side, side)),
        rng_plus=i % 2,
        min_separation=0.1,
        obstacles=obstacles,
        max_rounds=BATCH_ROUNDS,
        seed=seed,
    )


def lattice_positions(n: int, seed: int) -> list[tuple[float, float]]:
    """A k x k grid (n = k * k) at LATTICE_SPACING, each point jittered."""
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError(f"lattice size must be a square, got {n}")
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    grid = LATTICE_SPACING * np.column_stack((gx.ravel(), gy.ravel())).astype(float)
    xy = grid + rng.uniform(-LATTICE_JITTER, LATTICE_JITTER, size=(n, 2))
    return [(float(x), float(y)) for x, y in xy]


def lattice_world(positions: list[tuple[float, float]], max_rounds: int) -> "rs.WorldConfig":
    """Gather on the lattice: V = 1, sep 0.1, m = 0, no obstacles."""
    return rs.WorldConfig(
        n=len(positions),
        vis_range=1.0,
        behavior=rs.BehaviorSpec.for_range("gather", 1.0),
        init=rs.InitSpec(positions=positions),
        rng_plus=0,
        min_separation=0.1,
        max_rounds=max_rounds,
    )


def _load_scenario(path: Path, seed: int, tracer) -> "rs.WorldConfig":
    with tracer.span("scenario.load"):
        world = rs.load_scenario(path)
    # what `rngswarm run --seed` does; only box initialisation reads the seed
    return replace(world, seed=seed)


def make_units(workload: str, seed: int, root: Path) -> list[Unit]:
    if workload == "batch":
        seeds = derived_seeds(seed, 1, BATCH_WORLDS)
        return [
            Unit(f"batch[{i}]", lambda tracer, i=i, s=s: batch_world(i, s))
            for i, s in enumerate(seeds)
        ]
    if workload == "scenarios":
        seeds = derived_seeds(seed, 2, len(SCENARIO_FILES))
        return [
            Unit(name, lambda tracer, p=root / "scenarios" / name, s=s: _load_scenario(p, s, tracer), True)
            for name, s in zip(SCENARIO_FILES, seeds)
        ]
    if workload == "large_swarm":
        positions = lattice_positions(LARGE_N, derived_seeds(seed, 3, 1)[0])
        return [Unit("large_swarm", lambda tracer: lattice_world(positions, LARGE_ROUNDS))]
    raise ValueError(f"unknown workload {workload!r}")
