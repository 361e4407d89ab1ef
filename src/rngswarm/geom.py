"""Planar geometry for the swarm simulator.

Polygon predicates work on plain floats; the segment clamp is array based
because the motion law evaluates it for every agent at once. All
feasibility checks share an absolute length tolerance of 1e-9, and the
intersection tests are deliberately conservative: exact touching counts
as contact.

Portable arithmetic: nothing that decides a position may go through BLAS
(`@`, `np.dot`, `np.matmul`, `np.einsum`) or `pow` (`**`). Their results
depend on the kernel a CPU selects, where a fused multiply-add or a libm
`pow` rounds differently from `x * x`. Dot products and squared norms are
spelled out as `a[0]*b[0] + a[1]*b[1]`, and lengths as sqrt(dx*dx + dy*dy),
never hypot. Sums over neighbours run in CSR row order, one neighbour at a
time, which is the order `ndarray.sum(axis=0)` adds rows in. Every result
is then correctly rounded the same way on every IEEE platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9

# collinearity / orientation cutoff for the conservative intersection tests
_EPS = 1e-12


# ---------------------------------------------------------------------------
# segment clamping against disc constraints
# ---------------------------------------------------------------------------


def _disc_rows(cur_xy, tgt_xy, centers, radii, indptr=None):
    """Normalise the clamp arguments to rows: (cur, tgt, ctr, r, owner).

    Without `indptr` one point owns every disc; with it, row k owns
    centers[indptr[k]:indptr[k + 1]]. `owner` names each disc's row."""
    ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
    cur = np.asarray(cur_xy, dtype=float).reshape(-1, 2)
    tgt = np.asarray(tgt_xy, dtype=float).reshape(-1, 2)
    deg = [len(ctr)] if indptr is None else np.diff(indptr)
    owner = np.repeat(np.arange(len(cur)), deg)
    r = np.broadcast_to(np.asarray(radii, dtype=float), (len(ctr),))
    return cur, tgt, ctr, r, owner


def _fractions(cur, tgt, ctr, r, owner) -> np.ndarray:
    """Largest feasible fraction per row: one ray-circle root per disc, then
    the smallest per row, a minimum that does not depend on the disc order."""
    k = len(cur)
    w = cur[owner] - ctr
    ww = w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]
    if len(ww):
        violation = float((np.sqrt(ww) - r).max())
        if violation > FEASIBILITY_TOL:
            raise ValueError(f"current point violates a constraint disc by {violation:.3g}")
    d = tgt - cur
    a = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    wt = tgt[owner] - ctr
    rr = r * r
    # rows whose target already satisfies every disc, or that do not move, take s = 1
    outside = np.bincount(owner[wt[:, 0] * wt[:, 0] + wt[:, 1] * wt[:, 1] > rr], minlength=k)
    clamped = (outside > 0) & (a != 0.0)
    s = np.ones(k)
    if not clamped.any():
        return s
    de = d[owner]
    ae = a[owner]
    b = 2.0 * (w[:, 0] * de[:, 0] + w[:, 1] * de[:, 1])
    disc = b * b - 4.0 * ae * (ww - rr)
    # a non-positive discriminant can only happen when the current point sits
    # marginally outside a disc (within the tolerance); no forward motion then
    root = np.where(
        disc > 0.0, (-b + np.sqrt(np.maximum(disc, 0.0))) / np.where(ae > 0.0, 2.0 * ae, 1.0), 0.0
    )
    starts = np.flatnonzero(np.diff(owner, prepend=-1))  # rows with discs, in order
    smin = np.minimum.reduceat(root, starts)[clamped[owner[starts]]]
    # min(1, max(0, smin)), ties resolved as Python's min and max resolve them
    smin = np.where(smin > 0.0, smin, 0.0)
    s[clamped] = np.where(smin < 1.0, smin, 1.0)
    return s


def clamp_fraction(cur_xy, tgt_xy, centers, radii) -> float:
    """Largest s in [0, 1] keeping cur + s * (tgt - cur) inside every disc.

    Solves the ray-circle quadratic per disc and takes the smallest positive
    root bound; the feasible set along the segment is an interval starting at
    the current point, so the minimum over discs is exact. The current point
    must already satisfy every disc within the feasibility tolerance,
    otherwise ValueError. This is the one-row case of the clamp that
    `clamp_point_xy` runs per row.
    """
    return float(_fractions(*_disc_rows(cur_xy, tgt_xy, centers, radii))[0])


def clamp_point_xy(cur_xy, tgt_xy, centers, radii, indptr=None) -> np.ndarray:
    """Move from cur toward tgt as far as every disc allows.

    Returns cur + s * (tgt - cur) with the largest feasible s in [0, 1]; if
    the target satisfies all discs it is returned as is. The current point
    must lie inside every disc within the feasibility tolerance (it is the
    mover's own allowable region), else ValueError.

    With `indptr`, cur and tgt are (k, 2) rows, row k is clamped to the discs
    centers[indptr[k]:indptr[k + 1]], and the result has k rows. A single
    point is the one-row case and gives one (2,) point.
    """
    cur, tgt, ctr, r, owner = _disc_rows(cur_xy, tgt_xy, centers, radii, indptr)
    s = _fractions(cur, tgt, ctr, r, owner)
    q = tgt.copy()
    rows = s < 1.0
    q[rows] = cur[rows] + s[rows, None] * (tgt[rows] - cur[rows])
    # nudge down against float overshoot so the result is inside every disc
    # not just within tolerance (keeps clamped pairs inside visibility range)
    for _ in range(4):
        w = q[owner] - ctr
        out = np.bincount(owner[np.sqrt(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]) > r], minlength=len(q))
        rows &= out > 0
        if not rows.any():
            break
        nudged = s[rows] - 1e-12
        s[rows] = np.where(nudged > 0.0, nudged, 0.0)
        q[rows] = cur[rows] + s[rows, None] * (tgt[rows] - cur[rows])
    return q[0] if indptr is None else q


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

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        xy = [(float(x), float(y)) for x, y in self.vertices]
        n = len(xy)
        if n < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {n}")
        for k, (x, y) in enumerate(xy):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"polygon vertices must be finite, got ({x!r}, {y!r}) at index {k}")
        for k in range(n):
            if xy[k] == xy[(k + 1) % n]:
                raise ValueError(f"polygon has coincident consecutive vertices at index {k}")
        area = _signed_area(xy)
        if area == 0.0:
            raise ValueError("polygon is degenerate (zero area)")
        if area < 0.0:
            xy.reverse()
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
        object.__setattr__(self, "vertices", tuple(xy))
        object.__setattr__(self, "_bbox", (min(xs), min(ys), max(xs), max(ys)))

    def contains_xy(self, x: float, y: float) -> bool:
        """Inside or on the boundary; boundary contact counts as contained."""
        bx0, by0, bx1, by1 = self._bbox
        if x < bx0 - _EPS or x > bx1 + _EPS or y < by0 - _EPS or y > by1 + _EPS:
            return False
        pts = self.vertices
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
        pts = self.vertices
        n = len(pts)
        for k in range(n):
            ex1, ey1 = pts[k]
            ex2, ey2 = pts[(k + 1) % n]
            if segments_intersect_xy(x1, y1, x2, y2, ex1, ey1, ex2, ey2):
                return True
        # no edge contact: the segment is either fully inside or fully outside
        return self.contains_xy(x1, y1)
