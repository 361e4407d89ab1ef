"""End-to-end acceptance checks for the whole package.

Each test prints one `[PASS]`/`[FAIL]` summary line with the measured
numbers; run `pytest tests/test_acceptance.py -s` to see them all. The
expensive artifacts (the 100-scenario batch, the 10k-config trim sweep, the
corridor run) are module-scoped fixtures shared between checks.
"""

import math
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from rngswarm.cli import main as cli_main
from rngswarm.engine import InitSpec, WorldConfig, _geometry, _step_core, initial_state, run
from rngswarm.geom import Polygon
from rngswarm.graphs import effective_graph, is_connected, visibility_graph
from rngswarm.motion import BehaviorSpec
from rngswarm.properties import (
    check_clamp_oracle,
    check_plus_nesting,
    sample_connected_positions,
)
from rngswarm.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

BATCH_RUNS = 100
BATCH_ROUNDS = 500


def report_line(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _batch_worlds() -> list[WorldConfig]:
    """100 mixed scenarios: n sweeps 5..40, behaviours cycle, every second
    world gets a small wall inside the spawn box."""
    kinds = ("gather", "formation", "leader_follow")
    worlds = []
    for i in range(BATCH_RUNS):
        n = 5 + (i * 11) % 36
        side = max(1.2, 0.55 * math.sqrt(n))
        kind = kinds[i % 3]
        waypoints = (
            ((0.9 * side, 0.45 * side), (0.1 * side, 0.9 * side))
            if kind == "leader_follow"
            else ()
        )
        spec = BehaviorSpec.for_range(kind, 1.0, waypoints=waypoints)
        obstacles = ()
        if i % 2:
            x0, y0 = 0.55 * side, 0.4 * side
            obstacles = (
                Polygon(((x0, y0), (x0 + 0.12, y0), (x0 + 0.12, y0 + 0.12), (x0, y0 + 0.12))),
            )
        worlds.append(
            WorldConfig(
                n=n,
                vis_range=1.0,
                behavior=spec,
                init=InitSpec(box=(0.0, 0.0, side, side)),
                rng_plus=i % 2,
                min_separation=0.1,
                obstacles=obstacles,
                max_rounds=BATCH_ROUNDS,
                seed=1000 + i,
            )
        )
    return worlds


@pytest.fixture(scope="module")
def scenario_batch():
    t0 = perf_counter()
    total_rounds = 0
    disconnections = 0
    reverted = 0
    min_pair = math.inf
    for world in _batch_worlds():
        state = initial_state(world)
        geo = _geometry(state.positions, world)
        for _ in range(BATCH_ROUNDS):
            state, rep, geo = _step_core(state, world, geo)
            total_rounds += 1
            disconnections += not rep.metrics.connected
            reverted += rep.reverted_agents
            if rep.metrics.min_pair_distance < min_pair:
                min_pair = rep.metrics.min_pair_distance
    return {
        "rounds": total_rounds,
        "disconnections": disconnections,
        "reverted": reverted,
        "min_pair": min_pair,
        "elapsed": perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def bulk_trim():
    rng = np.random.default_rng(2024)
    t0 = perf_counter()
    disconnected = 0
    non_subset = 0
    too_dense = 0
    for _ in range(10_000):
        n = int(rng.integers(3, 61))
        xy = sample_connected_positions(rng, n)
        g = visibility_graph(xy, 1.0)
        eff = effective_graph(g, xy, 0)
        if not is_connected(eff):
            disconnected += 1
        if not g.has_edges(eff.edges).all():
            non_subset += 1
        if len(eff.edges) > 3 * n - 6:
            too_dense += 1
    return {
        "disconnected": disconnected,
        "non_subset": non_subset,
        "too_dense": too_dense,
        "elapsed": perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def corridor_run():
    world = load_scenario(SCENARIO_DIR / "narrow_passage.yaml")
    holder = {}
    t0 = perf_counter()
    reports = run(world, observer=lambda s, r: holder.__setitem__("state", s))
    return {
        "world": world,
        "reports": reports,
        "final": holder["state"],
        "elapsed": perf_counter() - t0,
    }


def test_random_scenarios_never_disconnect(scenario_batch):
    b = scenario_batch
    ok = b["disconnections"] == 0 and b["rounds"] == BATCH_RUNS * BATCH_ROUNDS and b["elapsed"] < 120
    report_line(
        ok,
        "scenario batch connectivity",
        f"{BATCH_RUNS} runs x {BATCH_ROUNDS} rounds, "
        f"{b['disconnections']} disconnected rounds out of {b['rounds']}, "
        f"{b['reverted']} reverted agents, {b['elapsed']:.1f}s < 120s",
    )
    assert b["rounds"] == BATCH_RUNS * BATCH_ROUNDS
    assert b["disconnections"] == 0
    assert b["elapsed"] < 120


def test_bulk_trim_preserves_connectivity(bulk_trim):
    ok = bulk_trim["disconnected"] == 0 and bulk_trim["elapsed"] < 60
    report_line(
        ok,
        "bulk trim connectivity",
        f"10000 connected configs (n up to 60), {bulk_trim['disconnected']} "
        f"trim disconnections, {bulk_trim['elapsed']:.1f}s < 60s",
    )
    assert bulk_trim["disconnected"] == 0
    assert bulk_trim["elapsed"] < 60


def test_bulk_trim_sparse_subset(bulk_trim):
    ok = bulk_trim["non_subset"] == 0 and bulk_trim["too_dense"] == 0
    report_line(
        ok,
        "bulk trim sparsity",
        f"10000 configs: {bulk_trim['non_subset']} not a subgraph, "
        f"{bulk_trim['too_dense']} above the 3n-6 edge bound",
    )
    assert bulk_trim["non_subset"] == 0
    assert bulk_trim["too_dense"] == 0


def test_dense_configs_trim_hard():
    rng = np.random.default_rng(41)
    t0 = perf_counter()
    ratios = []
    attempts = 0
    while len(ratios) < 100:
        attempts += 1
        assert attempts < 1000, "dense sampling should not struggle"
        xy = rng.uniform(0.0, 2.0, size=(20, 2))
        g = visibility_graph(xy, 1.0)
        if len(g.edges) < 40:
            continue
        eff = effective_graph(g, xy, 0)
        ratios.append(len(eff.edges) / len(g.edges))
    elapsed = perf_counter() - t0
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio <= 0.7 and elapsed < 10
    report_line(
        ok,
        "dense trim ratio",
        f"mean kept fraction {mean_ratio:.3f} <= 0.7 over 100 configs "
        f"with 40+ edges, {elapsed:.1f}s < 10s",
    )
    assert mean_ratio <= 0.7
    assert elapsed < 10


def test_occupancy_levels_nest():
    res = check_plus_nesting(1000, seed=5)
    report_line(
        res.ok,
        "occupancy nesting",
        f"{res.cases} configs, {res.failures} nesting violations across levels 0/1/2",
    )
    assert res.failures == 0


def test_separation_floor_holds_everywhere(scenario_batch, corridor_run):
    floor = 0.1  # every batch world and the corridor use sep = range / 10
    corridor_min = min(r.metrics.min_pair_distance for r in corridor_run["reports"])
    worst = min(scenario_batch["min_pair"], corridor_min)
    ok = worst >= floor - 1e-9
    report_line(
        ok,
        "separation floor",
        f"worst pair distance {worst:.12f} >= {floor} - 1e-9 "
        f"across {scenario_batch['rounds']} batch rounds plus the corridor run",
    )
    assert worst >= floor - 1e-9


def test_leader_stretches_swarm_past_three_ranges():
    world = load_scenario(SCENARIO_DIR / "leader_line.yaml")
    wps = world.behavior.waypoints
    path_len = sum(
        math.sqrt((bx - ax) ** 2 + (by - ay) ** 2) for (ax, ay), (bx, by) in zip(wps, wps[1:])
    )
    assert path_len >= 15.0 - 1e-9  # the route is long enough to need a chain
    t0 = perf_counter()
    reports = run(world)
    elapsed = perf_counter() - t0
    diameter = reports[-1].metrics.max_pair_distance
    connected = all(r.metrics.connected for r in reports)
    ok = diameter > 3.0 and connected and elapsed < 30
    report_line(
        ok,
        "leader stretch",
        f"{len(reports)} rounds, final diameter {diameter:.3f} > 3.0, "
        f"connected throughout: {connected}, {elapsed:.1f}s < 30s",
    )
    assert connected
    assert diameter > 3.0
    assert elapsed < 30


def test_swarm_threads_the_corridor(corridor_run):
    world = corridor_run["world"]
    reports = corridor_run["reports"]
    exit_x = max(x for poly in world.obstacles for x, _ in poly.vertices)
    final_x = corridor_run["final"].positions[:, 0]
    past = int((final_x > exit_x).sum())
    connected = all(r.metrics.connected for r in reports)
    ok = (
        past == world.n
        and len(reports) <= 5000
        and connected
        and corridor_run["elapsed"] < 120
    )
    report_line(
        ok,
        "corridor transit",
        f"{past}/{world.n} agents past x={exit_x} after {len(reports)} rounds, "
        f"connected throughout: {connected}, {corridor_run['elapsed']:.1f}s < 120s",
    )
    assert past == world.n
    assert len(reports) <= 5000
    assert connected
    assert corridor_run["elapsed"] < 120


def test_formation_equalises_edge_lengths():
    world = load_scenario(SCENARIO_DIR / "formation.yaml")
    holder = {}
    reports = run(world, observer=lambda s, r: holder.__setitem__("state", s))
    # the run goes quiescent before the round budget; the frozen configuration
    # is what any later round would still show
    assert len(reports) <= 2000
    xy = holder["state"].positions
    g = visibility_graph(xy, world.vis_range)
    eff = effective_graph(g, xy, world.rng_plus)
    lengths = np.array(
        [math.sqrt((xy[i, 0] - xy[j, 0]) ** 2 + (xy[i, 1] - xy[j, 1]) ** 2) for i, j in eff.edges]
    )
    cv = float(lengths.std() / lengths.mean())
    ok = cv <= 0.25
    report_line(
        ok,
        "formation regularity",
        f"{len(eff.edges)} effective edges after {len(reports)} rounds, "
        f"length variation {cv:.4f} <= 0.25",
    )
    assert cv <= 0.25


def test_clamp_matches_bisection_reference():
    res = check_clamp_oracle(1000, seed=10)
    report_line(
        res.ok,
        "clamp reference",
        f"{res.cases} instances within 1e-7 of bisection, results feasible within 1e-9; "
        f"{res.failures} failures",
    )
    assert res.failures == 0


def test_equal_seeds_give_byte_identical_metrics(tmp_path, capsys):
    mismatches = []
    for name in ("adhoc_network.yaml", "leader_line.yaml"):
        scn = SCENARIO_DIR / name
        out1 = tmp_path / f"{scn.stem}_1"
        out2 = tmp_path / f"{scn.stem}_2"
        assert cli_main(["run", "--scenario", str(scn), "--out", str(out1)]) == 0
        assert cli_main(["run", "--scenario", str(scn), "--out", str(out2)]) == 0
        if (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes():
            mismatches.append(name)
    capsys.readouterr()  # drop the per-run chatter; one summary line below
    ok = not mismatches
    report_line(
        ok,
        "seeded reproducibility",
        "metrics files byte-identical across reruns (box-sampled and explicit starts)"
        if ok
        else f"mismatch in {mismatches}",
    )
    assert mismatches == []
