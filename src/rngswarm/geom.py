"""Planar geometry for the swarm simulator.

Polygon predicates and the segment clamps, into discs and into the
half-planes past obstacle edges, are array based: the round evaluates them
for every agent, and every segment, at once. All feasibility checks share
an absolute length tolerance of 1e-9, and the intersection tests are
deliberately conservative: exact touching counts as contact.

Portable arithmetic: nothing that decides a position may go through BLAS
(`@`, `np.dot`, `np.matmul`, `np.einsum`) or `pow` (`**`). Their results
depend on the kernel a CPU selects, where a fused multiply-add or a libm
`pow` rounds differently from `x * x`. Dot products and squared norms are
spelled out as `a[0]*b[0] + a[1]*b[1]`, and lengths as sqrt(dx*dx + dy*dy),
never hypot. Sums over neighbours are `np.bincount` with weights, which
adds them one at a time in input (CSR row) order from +0.0: the order
`ndarray.sum(axis=0)` adds rows in. A flat `add` reduction (`reduce`,
`reduceat`, `accumulate`) may not replace it, as numpy may add pairwise,
which rounds differently. Every result is then correctly rounded the same
way on every IEEE platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9

# collinearity / orientation cutoff for the conservative intersection tests
_EPS = 1e-12

# Clearance each step keeps from every obstacle edge. It must dominate _EPS:
# a normal taken from a gap of about 1e-9 is off by about 1e-7 rad, which
# the far end of an edge levers up.
SIGHT_MARGIN = 1e-6


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
    deg = [len(ctr)] if indptr is None else indptr[1:] - indptr[:-1]
    owner = np.repeat(np.arange(len(cur)), deg)
    # one radius per disc, or one for all: either broadcasts in the arithmetic
    return cur, tgt, ctr, np.asarray(radii, dtype=float), owner


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
    for _ in range(4 if rows.any() else 0):
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
# polygons and conservative intersection tests, elementwise over arrays
# ---------------------------------------------------------------------------


def _cross(ox, oy, ax, ay, bx, by):
    # z component of (a - o) x (b - o)
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _within_bbox(x, y, x1, y1, x2, y2):
    return (
        (np.minimum(x1, x2) - _EPS <= x)
        & (x <= np.maximum(x1, x2) + _EPS)
        & (np.minimum(y1, y2) - _EPS <= y)
        & (y <= np.maximum(y1, y2) + _EPS)
    )


def _straddles(d1, d2):
    return ((d1 > _EPS) & (d2 < -_EPS)) | ((d1 < -_EPS) & (d2 > _EPS))


def segments_intersect_xy(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """Closed-segment intersection of a-b and c-d, elementwise over arrays
    that broadcast together; touching or collinear overlap counts."""
    ax, ay, bx, by, cx, cy, dx, dy = (np.asarray(v, dtype=float) for v in (ax, ay, bx, by, cx, cy, dx, dy))
    d1 = _cross(cx, cy, dx, dy, ax, ay)
    d2 = _cross(cx, cy, dx, dy, bx, by)
    d3 = _cross(ax, ay, bx, by, cx, cy)
    d4 = _cross(ax, ay, bx, by, dx, dy)
    hit = _straddles(d1, d2) & _straddles(d3, d4)
    # an end on the other segment's line: the box test decides, where it is needed
    for d, (x, y, x1, y1, x2, y2) in (
        (d1, (ax, ay, cx, cy, dx, dy)),
        (d2, (bx, by, cx, cy, dx, dy)),
        (d3, (cx, cy, ax, ay, bx, by)),
        (d4, (dx, dy, ax, ay, bx, by)),
    ):
        near = np.abs(d) <= _EPS
        if near.any():
            hit = hit | (near & _within_bbox(x, y, x1, y1, x2, y2))
    return hit


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
    """Simple polygon used as an obstacle; stored counterclockwise.

    `contains_xy` and `blocks_segment_xy` are elementwise over arrays of
    coordinates; plain floats are the 0-d case."""

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
        v = np.array(xy)
        w = np.roll(v, -1, axis=0)
        # simplicity: no two non-adjacent edges may meet; pairs k < l in order
        k, l = np.triu_indices(n, 2)
        k, l = k[(l + 1) % n != k], l[(l + 1) % n != k]
        crossing = segments_intersect_xy(*v[k].T, *w[k].T, *v[l].T, *w[l].T)
        if crossing.any():
            first = int(np.argmax(crossing))
            raise ValueError(f"polygon edges {k[first]} and {l[first]} intersect (not simple)")
        edges = np.column_stack((v, w))
        edges.setflags(write=False)
        object.__setattr__(self, "vertices", tuple(xy))
        object.__setattr__(self, "_bbox", (*v.min(axis=0).tolist(), *v.max(axis=0).tolist()))
        # one row per edge, (x1, y1, x2, y2), in vertex order
        object.__setattr__(self, "_edges", edges)
        # the edges' start and end coordinates as (2, 1, k) blocks, for clamp_to_sight
        object.__setattr__(self, "_ends", (edges[:, 0::2].T[:, None], edges[:, 1::2].T[:, None]))

    def contains_xy(self, x, y) -> np.ndarray:
        """Inside or on the boundary; boundary contact counts as contained."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        bx0, by0, bx1, by1 = self._bbox
        out = np.zeros(x.shape, dtype=bool)
        near = (x >= bx0 - _EPS) & (x <= bx1 + _EPS) & (y >= by0 - _EPS) & (y <= by1 + _EPS)
        if not near.any():
            return out
        px, py = x[near][:, None], y[near][:, None]
        x1, y1, x2, y2 = self._edges.T
        on_edge = (np.abs(_cross(x1, y1, x2, y2, px, py)) <= _EPS) & _within_bbox(px, py, x1, y1, x2, y2)
        spans = (y1 > py) != (y2 > py)
        xc = x1 + (py - y1) * (x2 - x1) / np.where(spans, y2 - y1, 1.0)
        crossings = np.count_nonzero(spans & (px < xc), axis=1)
        out[near] = on_edge.any(axis=1) | (crossings % 2 == 1)
        return out

    def blocks_segment_xy(self, x1, y1, x2, y2) -> np.ndarray:
        """Whether each segment touches, crosses, or sits inside this polygon."""
        x1, y1, x2, y2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x1, y1, x2, y2)))
        bx0, by0, bx1, by1 = self._bbox
        out = np.zeros(x1.shape, dtype=bool)
        near = ~(
            (np.maximum(x1, x2) < bx0 - _EPS)
            | (np.minimum(x1, x2) > bx1 + _EPS)
            | (np.maximum(y1, y2) < by0 - _EPS)
            | (np.minimum(y1, y2) > by1 + _EPS)
        )
        if not near.any():
            return out
        ax, ay, bx, by = (v[near][:, None] for v in (x1, y1, x2, y2))
        hit = segments_intersect_xy(ax, ay, bx, by, *self._edges.T).any(axis=1)
        # no edge contact: the segment is either fully inside or fully outside
        hit[~hit] = self.contains_xy(ax[~hit, 0], ay[~hit, 0])
        out[near] = hit
        return out


def segments_blocked(p, q, obstacles) -> np.ndarray:
    """Whether some obstacle blocks each segment p[k] -> q[k] of the (m, 2)
    arrays p and q; a zero-length segment is blocked where its point touches
    an obstacle."""
    blocked = np.zeros(len(p), dtype=bool)
    for poly in obstacles:
        blocked |= poly.blocks_segment_xy(p[:, 0], p[:, 1], q[:, 0], q[:, 1])
    return blocked


# ---------------------------------------------------------------------------
# separating half-planes: line of sight as part of the allowable region
# ---------------------------------------------------------------------------


def _project(px, py, ux, uy, vx, vy):
    """Closest point to p on the segment u-v; u itself when u = v."""
    wx, wy = vx - ux, vy - uy
    ww = wx * wx + wy * wy
    t = ((px - ux) * wx + (py - uy) * wy) / np.where(ww > 0.0, ww, 1.0)
    t = np.where(t > 0.0, np.where(t < 1.0, t, 1.0), 0.0)
    return ux + t * wx, uy + t * wy


def clamp_to_sight(p, q, owner, seg_a, seg_b, obstacles) -> np.ndarray:
    """Shorten each step p -> q as far as needed to keep it on the far side
    of every obstacle edge from each segment seg_a[r]-seg_b[r] it owns, and
    from its own point p.

    Each (segment, obstacle edge) row takes the line normal to their
    closest-point gap; its offset is the obstacle edge's support along that
    normal plus the margin, so the line clears the edge even when the normal
    is imprecise. The ray bound is s <= slack / (-n . d), and a negative
    slack (a segment within the margin) holds the agent. A row whose
    obstacle lies beyond the mover's step plus the margin cannot bind and is
    skipped.
    """
    owner = np.concatenate((owner, np.arange(len(p))))
    # the segments' two ends as one (2, m, 2) block: seg_a, then seg_b
    ends = np.array((np.concatenate((seg_a, p)), np.concatenate((seg_b, p))))
    d = q - p
    s = np.ones(len(p))
    reach = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])[owner] + SIGHT_MARGIN
    lo, hi = np.minimum(*ends) - reach[:, None], np.maximum(*ends) + reach[:, None]
    for poly in obstacles:
        bx0, by0, bx1, by1 = poly._bbox
        rows = np.flatnonzero((lo[:, 0] <= bx1) & (hi[:, 0] >= bx0) & (lo[:, 1] <= by1) & (hi[:, 1] >= by0))
        if not len(rows):
            continue
        sx, sy = ends[:, rows, 0, None], ends[:, rows, 1, None]
        (ax, bx), (ay, by) = sx, sy
        cx, cy, ex, ey = poly._edges.T
        tx, ty = poly._ends
        # the gap between two segments that do not cross is the shortest of
        # the four endpoint projections: a and b onto c-e, then c and e onto
        # a-b; argmin keeps the first of equals, picked by flat index
        px, py = _project(sx, sy, cx, cy, ex, ey)
        qx, qy = _project(tx, ty, ax, ay, bx, by)
        hx, hy = np.concatenate((sx - px, qx - tx)), np.concatenate((sy - py, qy - ty))
        hh = hx * hx + hy * hy
        cells = hh[0].size
        pick = np.argmin(hh, axis=0) * cells + np.arange(cells).reshape(hh.shape[1:])
        gx, gy, gg = hx.take(pick), hy.take(pick), hh.take(pick)
        length = np.sqrt(gg)
        length[length == 0.0] = 1.0  # a zero gap leaves a zero normal, and so a negative slack
        nx, ny = gx / length, gy / length
        c = np.maximum(nx * cx + ny * cy, nx * ex + ny * ey) + SIGHT_MARGIN
        mover = owner[rows]
        slack = (nx * p[mover, 0, None] + ny * p[mover, 1, None]) - c
        nd = nx * d[mover, 0, None] + ny * d[mover, 1, None]
        bound = np.where(slack < 0.0, 0.0, np.where(nd < 0.0, slack / np.where(nd < 0.0, -nd, 1.0), 1.0))
        np.minimum.at(s, mover, bound.min(axis=1))
    rows = s < 1.0
    q[rows] = p[rows] + s[rows, None] * d[rows]
    return q
