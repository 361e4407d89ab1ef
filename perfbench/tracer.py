"""Spans around the calls into each layer of the package.

The traced run replaces functions where their callers look them up:
`rngswarm.engine` for the graph layer and the motion law, `rngswarm.motion`
for its helpers and the disc clamp, and the `Polygon` class for the obstacle
predicates. Every replacement is undone when tracing stops. A name that no
longer exists is not wrapped, and its metric is left out of the report.

Spans of the program's functions count only inside committed rounds (from
the first observer call of a world until `run` returns); set-up has its own
metric. Spans the benchmark opens around its own calls (`span`) always count.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

import rngswarm.engine
import rngswarm.geom
import rngswarm.motion

# (owner, attribute, metric); two attributes may share a metric, and a call
# nested inside another call of the same metric is not counted again
WRAPPED = (
    (rngswarm.engine, "visibility_graph", "graphs.visibility"),
    (rngswarm.engine, "effective_graph", "graphs.trim"),
    (rngswarm.engine, "graph_metrics", "graphs.metrics"),
    (rngswarm.engine, "apply_motion_law", "motion.plan"),
    (rngswarm.motion, "desired_target", "motion.target"),
    (rngswarm.motion, "separation_cap", "motion.sepcap"),
    (rngswarm.motion, "clamp_point_xy", "geom.clamp"),
    (rngswarm.geom.Polygon, "contains_xy", "geom.polygon"),
    (rngswarm.geom.Polygon, "blocks_segment_xy", "geom.polygon"),
)


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    in_rounds = False

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.in_rounds = False
        self.seconds: dict[str, float] = defaultdict(float)  # inclusive time per metric
        self.calls: dict[str, int] = defaultdict(int)
        # per metric, the time of its calls not nested in another wrapped call;
        # these are disjoint, so with the round's self time they add up to the round
        self.top_seconds: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._depth = 0
        self._open: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - t0
            self.calls[name] += 1

    def _wrap(self, fn, metric: str):
        def traced(*args, **kwargs):
            if not self.in_rounds:
                return fn(*args, **kwargs)
            outer = self._open[metric] == 0
            top = self._depth == 0
            self._open[metric] += 1
            self._depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                self._open[metric] -= 1
                if outer:
                    self.seconds[metric] += dt
                    self.calls[metric] += 1
                if top:
                    self.top_seconds[metric] += dt

        return traced

    @contextmanager
    def installed(self):
        """Wrap every WRAPPED name that still exists; restore them on exit."""
        saved = []
        try:
            for owner, attr, metric in WRAPPED:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.add(metric)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, metric))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def has(self, metric: str) -> bool:
        return metric not in self.missing
