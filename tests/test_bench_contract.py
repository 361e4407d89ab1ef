"""The benchmark still finds every layer it times.

`perfbench/tracer.py` wraps package functions by the module-global names the
round calls them through, and `perfbench/sweep.py` reaches the layers through
public `rngswarm` names. A round that stops calling a wrapped name, or a
public name that disappears, drops that layer from the benchmark's result
without failing it. These checks run a few traced batch rounds the way
`perfbench/run.py` does, and call every name the layer sweep uses. The last
line `perfbench/run.py` prints is its result; the benchmark reads nothing
else, so a short run at each trace level must end on that line.
"""

import ast
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rngswarm as rs

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import tracer
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

ROUNDS = 4


def test_every_wrapped_layer_is_present_and_called_once_per_round():
    # world 1 of the batch: formation, rng_plus 1, separation 0.1 and a wall
    world = replace(workloads.batch_world(1, seed=11), max_rounds=ROUNDS)
    assert world.obstacles and world.min_separation > 0.0
    t = tracer.Tracer()
    with t.installed():
        t.in_rounds = True
        reports = rs.run(world)
    assert len(reports) == ROUNDS
    assert t.missing == set()
    metrics = {metric for _, _, metric in tracer.WRAPPED}
    assert sorted(m for m in metrics if t.calls[m] == 0) == []
    # the planner and its stages run once per round, over every agent at once
    for metric in ("motion.plan", "motion.target", "motion.sepcap", "geom.clamp"):
        assert t.calls[metric] == ROUNDS, metric


def test_every_public_name_of_the_layer_sweep_exists():
    tree = ast.parse((PERFBENCH / "sweep.py").read_text())
    used = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "rs"
    }
    quoted = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    # the sweep names each layer's function in a string and skips it when it is gone
    assert {"apply_motion_law", "step", "graph_metrics"} <= quoted
    assert sorted(name for name in used | (quoted & set(rs.__all__)) if not hasattr(rs, name)) == []
    assert {"apply_motion_law", "step", "visibility_graph", "effective_graph", "graph_metrics"} <= used


def test_the_sweeps_per_agent_motion_call_runs():
    world = workloads.lattice_world(workloads.lattice_positions(25, seed=3), max_rounds=1)
    state = rs.initial_state(world)
    eff = rs.effective_graph(rs.visibility_graph(state.positions, world.vis_range), state.positions, 0)
    rows = rs.apply_motion_law(np.arange(world.n), state, eff, world.behavior, world)
    for i in range(world.n):
        q = rs.apply_motion_law(i, state, eff, world.behavior, world)
        assert q.tobytes() == rows[i].tobytes()


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_the_last_line_is_the_result(trace, declared):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "scenarios", "--seed", "11",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[declared]]
    assert sorted(result["metrics"]) == sorted(names)
