"""Per-layer cost at fixed sizes, through the public API only.

Each size gets one seeded lattice snapshot (the large_swarm generator at
n = k * k) and times, in ms per call, the median over repetitions of:
visibility_graph, effective_graph (trim), graph_metrics, apply_motion_law
for every agent (motion) and one whole step. n = 1000 is left out while one
graph_metrics call there takes about a minute.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import rngswarm as rs
from workloads import derived_seeds, lattice_positions, lattice_world

SIZES = (25, 100, 400)
# per (size, layer): at least BUDGET_S of calls, and MIN_REPS calls unless
# they would take longer than CAP_S (one n = 400 graph_metrics call is ~1.4 s)
MIN_REPS = 3
BUDGET_S = 0.25
CAP_S = 1.0


def _median_ms(fn) -> float:
    times = []
    start = perf_counter()
    while (spent := perf_counter() - start) < BUDGET_S or (len(times) < MIN_REPS and spent < CAP_S):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return float(np.median(times)) * 1e3


def layer_sweep(seed: int) -> dict[str, float]:
    """`sweep.n<N>.<layer>_ms`; a layer whose public name is gone is left out."""
    out: dict[str, float] = {}
    for n in SIZES:
        world = lattice_world(lattice_positions(n, derived_seeds(seed, 4, 1)[0]), max_rounds=1)
        state = rs.initial_state(world)
        xy = state.positions
        g = rs.visibility_graph(xy, world.vis_range)
        eff = rs.effective_graph(g, xy, world.rng_plus)
        layers = {
            "visibility": ("visibility_graph", lambda: rs.visibility_graph(xy, world.vis_range)),
            "trim": ("effective_graph", lambda: rs.effective_graph(g, xy, world.rng_plus)),
            "metrics": ("graph_metrics", lambda: rs.graph_metrics(g, eff, xy)),
            "motion": (
                "apply_motion_law",
                lambda: [rs.apply_motion_law(i, state, eff, world.behavior, world) for i in range(n)],
            ),
            "step": ("step", lambda: rs.step(state, world)),
        }
        for layer, (name, fn) in layers.items():
            if hasattr(rs, name):
                out[f"sweep.n{n}.{layer}_ms"] = _median_ms(fn)
    return out
