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
# behaviours, both trim levels, with and without a wall
BATCH_ROUNDS = 100
BATCH_DIGESTS = (
    "df9f0d2034d027703b52d21d7b0a71d9a084d8754ccee4611d281cdbdf74b572",
    "c4d3e0a4b2665289d65445b1c36d341d56de33be52607773954e3259bb4398c2",
    "eed0e30885c730f736e4e48452eb6ce950d22b87d4f9de62f2ea55aa5ffb44c0",
    "acabcfd7d52f19fd05b9d9181d84be2267eb7875a12ac8a295ba1334497cce64",
    "9d4c934bf59c960c5f6b731cc43b9ed787c9f5f51e0b57715e0dc39c9f60e30b",
    "3b47a6be027b34c4192d69a08f412761910672d95f0dfc7607728295e165fe10",
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
