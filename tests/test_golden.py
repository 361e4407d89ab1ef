"""Golden digests that pin the simulator's output bit for bit.

Each case hashes the metrics CSV lines of a run and its final positions as
little-endian float64, the same recipe as the benchmark's output digest. A
change that is meant to keep behaviour keeps these; one that changes it on
purpose re-baselines them and says why.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rngswarm.engine import run
from rngswarm.reporting import metrics_lines
from rngswarm.scenario import load_scenario

from test_acceptance import _batch_worlds

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# the bundled scenarios at their file seeds
SCENARIO_DIGESTS = {
    "adhoc_network": "4be7d545dc91e7434988d774da1242e2a92bc2eddb5c8ad306a75dba0f53acb0",
    "formation": "6c0d20d91fda2053ce9926eaa465164bd79530b12f690654295c54ebe77ee1a9",
    "leader_line": "d6cc637c6df2631935472ae0ae9e42cc6b944af29d7263db997fb3b2b9a1cbc1",
    "narrow_passage": "f228c831bbfafd5f4dc7ad70de54c3f79d1cf82440a2905922494fc4bd2d4fdc",
}

# the first acceptance-batch worlds, cut to BATCH_ROUNDS rounds: all three
# behaviours, both trim levels, with and without a wall (the walled worlds,
# 1, 3 and 5, were re-baselined when walls joined the graphs and the planner)
BATCH_ROUNDS = 100
BATCH_DIGESTS = (
    "df9f0d2034d027703b52d21d7b0a71d9a084d8754ccee4611d281cdbdf74b572",
    "5b474e6d44e16487ee65fd13ed2d5480d2154ed9e75c716bcf314e2a3d098b0c",
    "eed0e30885c730f736e4e48452eb6ce950d22b87d4f9de62f2ea55aa5ffb44c0",
    "fa73bb55dc1ae43e8cf8f12c3d5011fbb8e6674e16c970f5b5152594f6fb07a8",
    "9d4c934bf59c960c5f6b731cc43b9ed787c9f5f51e0b57715e0dc39c9f60e30b",
    "35df3b9b99129fa214ba730712e25c9f29db30112840a364720769df737929d9",
)


def run_digest(world) -> str:
    states = []
    reports = run(world, observer=lambda state, report: states.append(state))
    sha = hashlib.sha256()
    sha.update(("\n".join(metrics_lines(reports)) + "\n").encode())
    sha.update(np.ascontiguousarray(states[-1].positions, dtype="<f8").tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_bundled_scenario_digest(name):
    world = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    assert run_digest(world) == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("index", range(len(BATCH_DIGESTS)))
def test_batch_world_digest(index):
    world = replace(_batch_worlds()[index], max_rounds=BATCH_ROUNDS)
    assert run_digest(world) == BATCH_DIGESTS[index]
