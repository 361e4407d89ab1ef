"""Connectivity-preserving 2D swarm simulation.

A swarm with a finite visibility range stays connected when every agent
moves only inside the intersection of discs it shares with its "effective"
neighbours: the edges of the visibility graph whose lens (intersection of
the two endpoint-centred discs of the edge length) holds at most a fixed
number of other agents. With limit zero that trimmed graph is the relative
neighbourhood graph of the visible pairs, which is sparse yet preserves
connectivity, so the swarm keeps a light communication structure while
individual agents stay free to drop crowded links.
"""

from .engine import (
    ConnectivityError,
    InitSpec,
    RoundReport,
    SwarmState,
    WorldConfig,
    initial_state,
    run,
    step,
)
from .geom import FEASIBILITY_TOL, Polygon
from .graphs import (
    Graph,
    GraphMetrics,
    effective_graph,
    graph_metrics,
    is_connected,
    visibility_graph,
)
from .motion import (
    BehaviorSpec,
    apply_motion_law,
    desired_target,
    separation_cap,
)
from .reporting import write_metrics, write_svg_frame
from .scenario import ScenarioError, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "BehaviorSpec",
    "ConnectivityError",
    "FEASIBILITY_TOL",
    "Graph",
    "GraphMetrics",
    "InitSpec",
    "Polygon",
    "RoundReport",
    "ScenarioError",
    "SwarmState",
    "WorldConfig",
    "apply_motion_law",
    "desired_target",
    "effective_graph",
    "graph_metrics",
    "initial_state",
    "is_connected",
    "load_scenario",
    "run",
    "save_scenario",
    "separation_cap",
    "step",
    "visibility_graph",
    "write_metrics",
    "write_svg_frame",
]
