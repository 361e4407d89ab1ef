"""Runs passes over a workload's units and checks what the program produced.

A pass builds and runs every unit once through `run(world, observer=...)`.
Set-up is the time from the generated inputs to the first observer call; a
round is the gap between consecutive observer calls. Every pass does the
same work, so a faster program fits more passes into the same seconds and
the mix of worlds it measures does not change.

Round-time percentiles are taken over the pooled round gaps of all worlds,
each world's gaps weighing together as much as its round cap. How many
rounds a world runs before it comes to rest depends on the seed; unweighted,
that would move the percentile between the clusters of worlds with very
different round costs. Pooling, rather than averaging per-world
percentiles, keeps the distribution broad, so a host that switches between
speeds moves the percentile smoothly instead of snapping it to one speed.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import rngswarm as rs
from rngswarm.reporting import metrics_lines

SEP_TOL = 1e-9


@dataclass
class PassResult:
    digest: str = ""
    setup_s: float = 0.0  # summed over units
    init_s: float = 0.0  # run() call to first observer call, summed over units
    timed_s: float = 0.0  # first observer call to the unit's end, summed over units
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    planned_agents: int = 0
    # report fields summed over committed rounds; reports are not kept, so
    # memory does not grow with the number of passes
    edges: int = 0
    effective_edges: int = 0
    diameter_hops: int = 0
    reverted_agents: int = 0
    round_s: float = 0.0  # sum of the round gaps
    gaps: list[list[float]] = field(default_factory=list)  # per unit
    caps: list[int] = field(default_factory=list)  # per unit, its world's max_rounds
    units: int = 0


class _Observer:
    """Times each committed round and keeps every committed position array."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.started = 0.0
        self.last = 0.0
        self.gaps: list[float] = []
        self.states: list[np.ndarray] = []
        self.final: np.ndarray | None = None

    def __call__(self, state, report) -> None:
        now = perf_counter()
        if report is None:
            self.started = now
            self.tracer.in_rounds = True
        else:
            self.gaps.append(now - self.last)
            self.states.append(state.positions)
        self.final = state.positions
        self.last = now


def _bad_rounds(states: list[np.ndarray], reports: list, world) -> int:
    """Committed rounds that fail: reported disconnected or below the floor,
    or found so by an independent check of the committed positions."""
    bad = 0
    floor = world.min_separation - SEP_TOL
    for xy, rep in zip(states, reports):
        m = rep.metrics
        bad += (not m.connected) or m.min_pair_distance < floor or not _positions_ok(xy, world)
    return bad


def _positions_ok(xy: np.ndarray, world) -> bool:
    n = len(xy)
    if n < 2:
        return True
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    if world.min_separation > 0.0:
        off = dist[~np.eye(n, dtype=bool)]
        if float(off.min()) < world.min_separation - SEP_TOL:
            return False
    adj = dist <= world.vis_range
    reach = np.zeros(n, dtype=bool)
    reach[0] = True
    frontier = reach.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reach
        reach |= frontier
    return bool(reach.all())


def run_pass(units, tracer, out_dir: Path, round_cap: int | None = None) -> PassResult:
    """One run of every unit; `round_cap` shortens the worlds (for a warm-up)."""
    res = PassResult(units=len(units))
    sha = hashlib.sha256()
    for unit in units:
        obs = _Observer(tracer)
        world = None
        t0 = perf_counter()
        try:
            world = unit.build(tracer)
            if round_cap is not None:
                world = replace(world, max_rounds=min(world.max_rounds, round_cap))
            t_run = perf_counter()
            try:
                reports = rs.run(world, observer=obs)
            finally:
                tracer.in_rounds = False
            if unit.writes_metrics:
                with tracer.span("reporting.write_metrics"):
                    rs.write_metrics(reports, out_dir / f"{Path(unit.label).stem}.csv")
            raised = False
        except Exception:  # a world that raises is counted as failed, not fatal
            traceback.print_exc(file=sys.stderr)
            raised = True
        end = perf_counter()
        if obs.started:
            res.setup_s += obs.started - t0
            res.init_s += obs.started - t_run
            res.timed_s += end - obs.started
        committed = len(obs.gaps)
        max_rounds = world.max_rounds if world is not None else 0
        res.rounds += committed
        res.round_s += sum(obs.gaps)
        res.gaps.append(obs.gaps)
        res.caps.append(max_rounds)
        if raised:
            # the round that raised and every round the world had left fail
            res.attempted += max(max_rounds, committed + 1)
            res.failed += max(max_rounds, committed + 1) - committed
            sha.update(f"{unit.label}:raised\n".encode())
            continue
        res.attempted += committed
        res.failed += _bad_rounds(obs.states, reports, world)
        res.planned_agents += committed * world.n
        for rep in reports:
            res.edges += rep.metrics.edge_count
            res.effective_edges += rep.metrics.effective_edge_count
            res.diameter_hops += rep.metrics.diameter_hops
            res.reverted_agents += rep.reverted_agents
        sha.update(f"{unit.label}\n".encode())
        sha.update(("\n".join(metrics_lines(reports)) + "\n").encode())
        sha.update(np.ascontiguousarray(obs.final, dtype="<f8").tobytes())
    res.digest = sha.hexdigest()
    return res


def measure(units, seconds: float, tracer, out_dir: Path) -> list[PassResult]:
    """Whole passes while the next one is expected to end within `seconds`."""
    passes: list[PassResult] = []
    spent = 0.0
    while not passes or spent * (len(passes) + 1) / len(passes) <= seconds:
        t0 = perf_counter()
        passes.append(run_pass(units, tracer, out_dir))
        spent += perf_counter() - t0
    return passes


def rounds_per_s(passes: list[PassResult]) -> float:
    """Committed rounds / seconds of the timed section, set-up excluded."""
    return sum(p.rounds for p in passes) / sum(p.timed_s for p in passes)


def _weighted_gaps(passes: list[PassResult]) -> tuple[np.ndarray, np.ndarray]:
    """All round gaps, sorted, with their cumulative weights; the gaps of one
    unit over all passes weigh together as much as its round cap."""
    gaps, weights = [], []
    for u, cap in enumerate(passes[0].caps):
        unit_gaps = np.concatenate([np.asarray(p.gaps[u]) for p in passes])
        gaps.append(unit_gaps)
        weights.append(np.full(len(unit_gaps), cap / max(len(unit_gaps), 1)))
    all_gaps = np.concatenate(gaps)
    order = np.argsort(all_gaps)
    return all_gaps[order], np.cumsum(np.concatenate(weights)[order])


def _percentile_s(passes: list[PassResult], q: float) -> float:
    gaps, cum = _weighted_gaps(passes)
    return float(gaps[np.searchsorted(cum, q / 100.0 * cum[-1])])


def percentile_ms(passes: list[PassResult], q: float) -> float:
    """Weighted q-th percentile of the round gaps, in ms."""
    return _percentile_s(passes, q) * 1e3


def tail_count(passes: list[PassResult], q: float) -> int:
    """Round gaps strictly above their weighted q-th percentile."""
    gaps, _ = _weighted_gaps(passes)
    return int((gaps > _percentile_s(passes, q)).sum())
