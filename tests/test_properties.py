"""The property suites' draws: a (cases, seed) pair is reproducible, so the
first draws of each trim suite at one seed are pinned."""

import pytest

from rngswarm import properties


@pytest.fixture
def trims(monkeypatch):
    """Every trim a suite makes, as (n, occupancy limit, effective edges)."""
    seen = []
    trim = properties.effective_graph

    def recording(g, xy, m, *args, **kwargs):
        eff = trim(g, xy, m, *args, **kwargs)
        seen.append((g.n, m, len(eff.edges)))
        return eff

    monkeypatch.setattr(properties, "effective_graph", recording)
    return seen


@pytest.mark.parametrize(
    "suite, draws",
    [
        ("check_connectivity_preservation", [(50, 0, 56), (7, 0, 6), (44, 0, 46), (9, 0, 9)]),
        ("check_edge_bound", [(50, 0, 56), (7, 0, 6), (44, 0, 46), (9, 0, 9)]),
        (
            "check_plus_nesting",
            [(33, 0, 36), (33, 1, 56), (33, 2, 74), (6, 0, 5), (6, 1, 7), (6, 2, 7)]
            + [(26, 0, 29), (26, 1, 52), (26, 2, 68), (35, 0, 39), (35, 1, 63), (35, 2, 78)],
        ),
    ],
)
def test_the_first_draws_are_pinned(trims, suite, draws):
    result = getattr(properties, suite)(4, 3)
    assert result.failures == 0
    assert trims == draws
