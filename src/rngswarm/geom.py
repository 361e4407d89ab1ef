"""Planar geometry for the swarm simulator.

Scalar primitives work on small frozen types; the segment clamp is array
based because the motion law evaluates it once per agent per round. All
feasibility checks share an absolute length tolerance of 1e-9, and the
intersection tests are deliberately conservative: exact touching counts
as contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9

# collinearity / orientation cutoff for the conservative intersection tests
_EPS = 1e-12


@dataclass(frozen=True)
class Point2:
    """Planar position in abstract world units."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


def distance(a: Point2, b: Point2) -> float:
    """Euclidean distance between two points.

    Computed as sqrt(dx*dx + dy*dy) rather than hypot: multiplication,
    addition, and sqrt are correctly rounded on every IEEE platform, so every
    module comparing distances (the lune test, the visibility cut-off, the
    engine's edge checks) sees bit-identical values for identical inputs.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    return math.sqrt(dx * dx + dy * dy)


def in_lune(k: Point2, i: Point2, j: Point2) -> bool:
    """Whether k lies strictly inside the lens of the pair (i, j).

    The lens is the intersection of the two open discs of radius d(i, j)
    centred at i and at j. Both comparisons are strict, so points exactly
    on the boundary do not count. A coincident pair has no lens and raises.
    """
    d = distance(i, j)
    if d == 0.0:
        raise ValueError("lune is undefined for a coincident pair")
    return distance(i, k) < d and distance(j, k) < d


# ---------------------------------------------------------------------------
# segment clamping against disc constraints
# ---------------------------------------------------------------------------


def clamp_fraction(cur_xy, tgt_xy, centers, radii, tol: float = FEASIBILITY_TOL) -> float:
    """Largest s in [0, 1] keeping cur + s * (tgt - cur) inside every disc.

    Solves the ray-circle quadratic per disc and takes the smallest positive
    root bound; the feasible set along the segment is an interval starting at
    the current point, so the minimum over discs is exact. The current point
    must already satisfy every disc within tol, otherwise ValueError.
    """
    ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
    if ctr.shape[0] == 0:
        return 1.0
    cur = np.asarray(cur_xy, dtype=float)
    tgt = np.asarray(tgt_xy, dtype=float)
    r = np.broadcast_to(np.asarray(radii, dtype=float), (ctr.shape[0],))
    w = cur - ctr
    dist0 = np.sqrt((w * w).sum(axis=1))
    violation = float((dist0 - r).max())
    if violation > tol:
        raise ValueError(f"current point violates a constraint disc by {violation:.3g}")
    d = tgt - cur
    a = float(d @ d)
    if a == 0.0:
        return 1.0
    wt = tgt - ctr
    if np.all((wt * wt).sum(axis=1) <= r * r):
        return 1.0
    b = 2.0 * (w @ d)
    c = (w * w).sum(axis=1) - r * r
    disc = b * b - 4.0 * a * c
    # a non-positive discriminant can only happen when the current point sits
    # marginally outside a disc (within tol); no forward motion then
    s = np.where(disc > 0.0, (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), 0.0)
    return float(min(1.0, max(0.0, float(s.min()))))


def clamp_point_xy(cur_xy, tgt_xy, centers, radii, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """Move from cur toward tgt as far as every disc allows.

    Returns cur + s * (tgt - cur) with the largest feasible s in [0, 1]; if
    the target satisfies all discs it is returned as is. The current point
    must lie inside every disc within the feasibility tolerance (it is the
    mover's own allowable region), else ValueError.
    """
    cur = np.asarray(cur_xy, dtype=float)
    tgt = np.asarray(tgt_xy, dtype=float)
    ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
    if ctr.shape[0] == 0:
        return tgt.copy()
    s = clamp_fraction(cur, tgt, ctr, radii, tol)
    if s >= 1.0:
        return tgt.copy()
    r = np.broadcast_to(np.asarray(radii, dtype=float), (ctr.shape[0],))
    q = cur + s * (tgt - cur)
    # nudge down against float overshoot so the result is inside every disc
    # not just within tolerance (keeps clamped pairs inside visibility range)
    for _ in range(4):
        w = q - ctr
        if np.all(np.sqrt((w * w).sum(axis=1)) <= r):
            break
        s = max(0.0, s - 1e-12)
        q = cur + s * (tgt - cur)
    return q


# ---------------------------------------------------------------------------
# polygons and conservative intersection tests
# ---------------------------------------------------------------------------


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    # z component of (a - o) x (b - o)
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _within_bbox(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    return (min(x1, x2) - _EPS <= x <= max(x1, x2) + _EPS) and (
        min(y1, y2) - _EPS <= y <= max(y1, y2) + _EPS
    )


def segments_intersect_xy(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, dx: float, dy: float,
) -> bool:
    """Closed-segment intersection; touching or collinear overlap counts."""
    d1 = _cross(cx, cy, dx, dy, ax, ay)
    d2 = _cross(cx, cy, dx, dy, bx, by)
    d3 = _cross(ax, ay, bx, by, cx, cy)
    d4 = _cross(ax, ay, bx, by, dx, dy)
    if ((d1 > _EPS and d2 < -_EPS) or (d1 < -_EPS and d2 > _EPS)) and (
        (d3 > _EPS and d4 < -_EPS) or (d3 < -_EPS and d4 > _EPS)
    ):
        return True
    if abs(d1) <= _EPS and _within_bbox(ax, ay, cx, cy, dx, dy):
        return True
    if abs(d2) <= _EPS and _within_bbox(bx, by, cx, cy, dx, dy):
        return True
    if abs(d3) <= _EPS and _within_bbox(cx, cy, ax, ay, bx, by):
        return True
    if abs(d4) <= _EPS and _within_bbox(dx, dy, ax, ay, bx, by):
        return True
    return False


def _signed_area(xy: Sequence[tuple[float, float]]) -> float:
    s = 0.0
    n = len(xy)
    for k in range(n):
        x1, y1 = xy[k]
        x2, y2 = xy[(k + 1) % n]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


@dataclass(frozen=True)
class Polygon:
    """Simple polygon used as an obstacle; stored counterclockwise."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        verts = tuple(
            p if isinstance(p, Point2) else Point2(float(p[0]), float(p[1]))
            for p in self.vertices
        )
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        xy = [(p.x, p.y) for p in verts]
        n = len(xy)
        for k in range(n):
            if xy[k] == xy[(k + 1) % n]:
                raise ValueError(f"polygon has coincident consecutive vertices at index {k}")
        area = _signed_area(xy)
        if area == 0.0:
            raise ValueError("polygon is degenerate (zero area)")
        if area < 0.0:
            verts = tuple(reversed(verts))
            xy = list(reversed(xy))
        # simplicity: no two non-adjacent edges may meet
        for k in range(n):
            a1, a2 = xy[k], xy[(k + 1) % n]
            for l in range(k + 1, n):
                if l == k or (l + 1) % n == k or (k + 1) % n == l:
                    continue
                b1, b2 = xy[l], xy[(l + 1) % n]
                if segments_intersect_xy(*a1, *a2, *b1, *b2):
                    raise ValueError(f"polygon edges {k} and {l} intersect (not simple)")
        xs = [p[0] for p in xy]
        ys = [p[1] for p in xy]
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_xy", tuple(xy))
        object.__setattr__(self, "_bbox", (min(xs), min(ys), max(xs), max(ys)))

    # float-level predicates (hot path: no Point2 boxing)

    def contains_xy(self, x: float, y: float) -> bool:
        """Inside or on the boundary; boundary contact counts as contained."""
        bx0, by0, bx1, by1 = self._bbox
        if x < bx0 - _EPS or x > bx1 + _EPS or y < by0 - _EPS or y > by1 + _EPS:
            return False
        pts = self._xy
        n = len(pts)
        inside = False
        for k in range(n):
            x1, y1 = pts[k]
            x2, y2 = pts[(k + 1) % n]
            if abs(_cross(x1, y1, x2, y2, x, y)) <= _EPS and _within_bbox(x, y, x1, y1, x2, y2):
                return True
            if (y1 > y) != (y2 > y):
                xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xc:
                    inside = not inside
        return inside

    def contains(self, p: Point2) -> bool:
        return self.contains_xy(p.x, p.y)

    def blocks_segment_xy(self, x1: float, y1: float, x2: float, y2: float) -> bool:
        """Whether the segment touches, crosses, or sits inside this polygon."""
        bx0, by0, bx1, by1 = self._bbox
        if (
            max(x1, x2) < bx0 - _EPS
            or min(x1, x2) > bx1 + _EPS
            or max(y1, y2) < by0 - _EPS
            or min(y1, y2) > by1 + _EPS
        ):
            return False
        pts = self._xy
        n = len(pts)
        for k in range(n):
            ex1, ey1 = pts[k]
            ex2, ey2 = pts[(k + 1) % n]
            if segments_intersect_xy(x1, y1, x2, y2, ex1, ey1, ex2, ey2):
                return True
        # no edge contact: the segment is either fully inside or fully outside
        return self.contains_xy(x1, y1)
