"""Round metrics as CSV and swarm snapshots as SVG frames."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Sequence

from .engine import RoundReport, SwarmState, WorldConfig
from .graphs import Graph, GraphMetrics, visibility_graph

METRICS_COLUMNS = ("round", *(f.name for f in fields(GraphMetrics)), "reverted_agents")

# one row template from the GraphMetrics field types: an int as is, a bool as
# 0/1, a float to nine significant digits, which round-trip reasonably and
# keep files compact
_CELL = {"int": "%d", "bool": "%d", "float": "%.9g"}
_ROW = ",".join(("%d", *(_CELL[f.type] for f in fields(GraphMetrics)), "%d"))


def metrics_lines(reports: Sequence[RoundReport]) -> list[str]:
    """CSV lines (header first), one row per committed round."""
    return [",".join(METRICS_COLUMNS)] + [
        _ROW % (rep.round, *vars(rep.metrics).values(), rep.reverted_agents) for rep in reports
    ]


def write_metrics(reports: Sequence[RoundReport], path) -> None:
    """Write the metrics table; identical runs produce identical bytes."""
    Path(path).write_text("\n".join(metrics_lines(reports)) + "\n")


# ---------------------------------------------------------------------------
# SVG frames
# ---------------------------------------------------------------------------


def write_svg_frame(
    state: SwarmState, world: WorldConfig, effective: Graph, path, graph: Graph | None = None
) -> None:
    """One frame: agents as circles, effective edges solid, trimmed edges
    dashed, obstacles as filled polygons, the leader accented. `graph` is
    the state's visibility graph, built when not given."""
    xy = state.positions
    vis = world.vis_range
    g = visibility_graph(xy, vis, world.obstacles) if graph is None else graph
    xs = [float(v) for v in xy[:, 0]]
    ys = [float(v) for v in xy[:, 1]]
    for poly in world.obstacles:
        xs.extend(x for x, _ in poly.vertices)
        ys.extend(y for _, y in poly.vertices)
    for wx, wy in world.behavior.waypoints:
        xs.append(wx)
        ys.append(wy)
    pad = 0.6 * vis
    xmin, xmax = min(xs) - pad, max(xs) + pad
    ymin, ymax = min(ys) - pad, max(ys) + pad
    width = 760.0
    scale = width / (xmax - xmin)
    height = (ymax - ymin) * scale

    def sx(x: float) -> float:
        return (x - xmin) * scale

    def sy(y: float) -> float:
        return (ymax - y) * scale  # flip so world y points up

    thin = max(0.8, 0.008 * vis * scale)
    thick = max(1.2, 0.014 * vis * scale)
    r_agent = max(2.5, 0.03 * vis * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect x="0" y="0" width="{width:.2f}" height="{height:.2f}" fill="#fdfdf8"/>',
    ]
    for poly in world.obstacles:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in poly.vertices)
        parts.append(f'<polygon points="{pts}" fill="#9aa0a6" stroke="#5f6368" stroke-width="{thin:.2f}"/>')
    for wx, wy in world.behavior.waypoints:
        c = max(2.0, 0.04 * vis * scale)
        x, y = sx(wx), sy(wy)
        parts.append(
            f'<path d="M {x - c:.2f} {y:.2f} H {x + c:.2f} M {x:.2f} {y - c:.2f} V {y + c:.2f}" '
            f'stroke="#b8860b" stroke-width="{thin:.2f}" fill="none"/>'
        )
    for i, j in g.edges[~effective.has_edges(g.edges)].tolist():  # the trimmed edges
        parts.append(
            f'<line x1="{sx(xy[i, 0]):.2f}" y1="{sy(xy[i, 1]):.2f}" '
            f'x2="{sx(xy[j, 0]):.2f}" y2="{sy(xy[j, 1]):.2f}" '
            f'stroke="#c5c9ce" stroke-width="{thin:.2f}" stroke-dasharray="{3 * thin:.2f} {3 * thin:.2f}"/>'
        )
    for i, j in effective.edges.tolist():
        parts.append(
            f'<line x1="{sx(xy[i, 0]):.2f}" y1="{sy(xy[i, 1]):.2f}" '
            f'x2="{sx(xy[j, 0]):.2f}" y2="{sy(xy[j, 1]):.2f}" '
            f'stroke="#1f4e8c" stroke-width="{thick:.2f}"/>'
        )
    leader = world.behavior.leader_index if world.behavior.kind == "leader_follow" else None
    for i in range(len(xy)):
        if i == leader:
            parts.append(
                f'<circle cx="{sx(xy[i, 0]):.2f}" cy="{sy(xy[i, 1]):.2f}" r="{1.5 * r_agent:.2f}" '
                f'fill="#c0392b" stroke="#7d2418" stroke-width="{thin:.2f}"/>'
            )
        else:
            parts.append(
                f'<circle cx="{sx(xy[i, 0]):.2f}" cy="{sy(xy[i, 1]):.2f}" r="{r_agent:.2f}" '
                f'fill="#e8913a" stroke="#8c5419" stroke-width="{thin:.2f}"/>'
            )
    parts.append(
        f'<text x="{0.02 * width:.2f}" y="{0.05 * height:.2f}" font-family="monospace" '
        f'font-size="{max(10.0, 0.025 * width):.1f}" fill="#444">round {state.round}</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
