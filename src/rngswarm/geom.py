"""Planar geometry for the swarm simulator.

Polygon predicates and the segment clamps, into discs and into the
half-planes past obstacle edges, are array based: the round evaluates them
for every agent, and every segment, at once. All feasibility checks share
one absolute length tolerance, `FEASIBILITY_TOL` (1e-9; the engine's
below-the-floor count and the property suites read it too), and the
intersection tests are deliberately conservative: exact touching counts as
contact. One closed-segment test, `_contacts`, serves the polygon
simplicity check and the wall kernels, one builder, `_pairs`, lists the
candidate (obstacle edge, segment) pairs of both wall kernels, and both
clamps take their per-row minimum with `np.minimum.at`. A `Polygon` holds
only its vertices: `_walls` alone builds the wall tables, the edges and the
boxes, from them. The wall mask has one entry point, `segments_blocked`;
the `Polygon` predicates call it with their polygon alone. The value rules the
config classes share, a number in its range (`_number`), an integer of at
least a bound (`_integer`) and a list of finite [x, y] pairs (`_points`),
live here too, beside `Polygon`; the public graph and motion functions
check their numbers with the same rules.

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

Layout: the long axis goes innermost. numpy runs one inner loop per element
of the outer axes, so an array whose innermost axis is short (x and y, or
one polygon's four edges) costs a loop start per element. The wall kernels
therefore list the (obstacle edge, segment) pairs that can interact and
hold each quantity as a row over those pairs, with the edges of every
obstacle in one table; the distance matrix is built from the x and y
columns. Rows are gathered by integer `take` (a copy, so no byte moves) and
written by index, cheaper a call than fancy or boolean indexing, with index
arrays each graph derives once: its CSR, edge keys and planner indices
(`Graph._plan`). Those indices name agents, not offsets into memory: only
this module gathers coordinates by their layout, as `clamp_to_sight` reads
its segment ends from agent indices. Such a rewrite keeps the bytes: every
element still goes through the same IEEE operations in the same order, only
the loop around them changes. A `np.where` is kept only where its mapping of
-0.0 or NaN matters; elsewhere `minimum`, `maximum` or a masked write is
cheaper.
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
# value rules of the config classes: one check per value, for Python and
# scenario files alike
# ---------------------------------------------------------------------------


def _number(value, name: str, rule: str, ok) -> float:
    """`value` as a float: an int or a float, never a bool, for which `ok`
    holds. Otherwise a ValueError: "`name` must be a number" for another
    type, "`name` `rule`" for a number that fails `ok`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the largest float fails every test
        number = math.nan
    if not ok(number):
        raise ValueError(f"{name} {rule}, got {value!r}")
    return number


def _integer(value, name: str, low: int) -> None:
    """A ValueError unless `value` is an int, never a bool, of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")


def _points(value, name: str, what: str) -> tuple[tuple[float, float], ...]:
    """`value`, a list or tuple of [x, y] pairs of finite numbers (never
    bools), as a tuple of float pairs; otherwise a ValueError that names the
    bad pair as name[k]."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of [x, y] pairs, got {value!r}")
    points = []
    for k, pair in enumerate(value):
        try:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError
            x, y = pair
            points.append((_number(x, "x", "", math.isfinite), _number(y, "y", "", math.isfinite)))
        except ValueError:
            raise ValueError(f"{what} must be finite [x, y] pairs, got {pair!r} at {name}[{k}]") from None
    return tuple(points)


# ---------------------------------------------------------------------------
# segment clamping against disc constraints
# ---------------------------------------------------------------------------


def _clip01(t):
    """min(1, max(0, t)) as `t > 0 ? min(t, 1) : 0`: -0.0 and NaN go to 0."""
    return np.where(t > 0.0, np.minimum(t, 1.0), 0.0)


def clamp_fraction(cur, tgt, centers, radii, owner) -> np.ndarray:
    """Largest s in [0, 1] per row keeping cur + s * (tgt - cur) in its discs.

    The clamp takes rows: cur and tgt are (k, 2), and disc d (centre
    centers[d], radius radii[d] or one radius for all) belongs to row
    owner[d], `owner` ascending as in a CSR row order. Per disc, one
    ray-circle root; per row, the smallest, which is exact since the
    feasible part of the segment is an interval from cur. A row with no
    discs takes s = 1. Each cur must lie in its discs within the
    feasibility tolerance, else ValueError.
    """
    k = len(cur)
    w = cur.take(owner, axis=0) - centers
    ww = w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]
    violation = float((np.sqrt(ww) - radii).max(initial=-np.inf))
    if violation > FEASIBILITY_TOL:
        raise ValueError(f"current point violates a constraint disc by {violation:.3g}")
    d = tgt - cur
    a = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    wt = tgt.take(owner, axis=0) - centers
    rr = radii * radii
    # rows whose target already satisfies every disc, or that do not move, take s = 1
    outside = np.bincount(owner[wt[:, 0] * wt[:, 0] + wt[:, 1] * wt[:, 1] > rr], minlength=k)
    clamped = (outside > 0) & (a != 0.0)
    s = np.ones(k)
    if not clamped.any():
        return s
    de = d.take(owner, axis=0)
    ae = a.take(owner)
    b = 2.0 * (w[:, 0] * de[:, 0] + w[:, 1] * de[:, 1])
    disc = b * b - 4.0 * ae * (ww - rr)
    # a non-positive discriminant can only happen when the current point sits
    # marginally outside a disc (within the tolerance); no forward motion then
    root = np.where(
        disc > 0.0, (-b + np.sqrt(np.maximum(disc, 0.0))) / np.where(ae > 0.0, 2.0 * ae, 1.0), 0.0
    )
    keep = clamped.take(owner)  # the discs of clamped rows
    np.minimum.at(s, owner[keep], root[keep])
    # ties resolved as Python's min(1, max(0, smin)) resolves them
    return _clip01(s)


def clamp_point_xy(cur, tgt, centers, radii, owner) -> np.ndarray:
    """cur + s * (tgt - cur) per row, with `clamp_fraction`'s s nudged down
    until the point lies inside every disc of its row. Rows as there: row
    owner[d] is clamped to disc d, `owner` ascending; a row whose target
    satisfies its discs gets the target as is."""
    s = clamp_fraction(cur, tgt, centers, radii, owner)
    q = tgt.copy()
    rows = s < 1.0
    # one clamp, then up to four nudges down against float overshoot so the
    # result is inside every disc, not just within tolerance (keeps clamped
    # pairs inside visibility range)
    for _ in range(5):
        if not rows.any():
            break
        q[rows] = cur[rows] + s[rows, None] * (tgt[rows] - cur[rows])
        w = q.take(owner, axis=0) - centers
        out = np.bincount(owner[np.sqrt(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]) > radii], minlength=len(q))
        rows &= out > 0
        nudged = s[rows] - 1e-12
        s[rows] = np.where(nudged > 0.0, nudged, 0.0)
    return q


# ---------------------------------------------------------------------------
# polygons and conservative intersection tests, elementwise over arrays
# ---------------------------------------------------------------------------


# The ends of segments a-b and c-d are held as one (2, 4, ...) array
# [x | y][a | b | c | d]. Each end is tested against the other segment,
# c-d for a and b and a-b for c and d; these pick that segment's start and end.
_START, _END = np.array((2, 2, 0, 0)), np.array((3, 3, 1, 1))


def _contacts(pts) -> np.ndarray:
    """The closed-segment intersection test of a-b against c-d, from their
    ends `pts` [x | y][a | b | c | d]: whether the segments meet, touching or
    collinear overlap included. An end touches the other segment when it
    lies within _EPS of its line and in its box widened by _EPS."""
    u, v = pts.take(_START, axis=1), pts.take(_END, axis=1)
    w = v - u
    # the cross products d1, d2 place a and b against c-d, d3, d4 c and d against a-b
    d = w[0] * (pts[1] - u[1]) - w[1] * (pts[0] - u[0])
    pos, neg = d > _EPS, d < -_EPS
    straddle = (pos[0::2] & neg[1::2]) | (neg[0::2] & pos[1::2])
    hit = straddle[0] & straddle[1]
    touch = np.abs(d) <= _EPS
    if np.count_nonzero(touch):
        within = (np.minimum(u, v) - _EPS <= pts) & (pts <= np.maximum(u, v) + _EPS)
        touch &= within[0] & within[1]
        hit = hit | touch.any(axis=0)
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
        xy = list(_points(self.vertices, "vertices", "polygon vertices"))
        n = len(xy)
        if n < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {n}")
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
        crossing = _contacts(np.stack((v[k].T, w[k].T, v[l].T, w[l].T), axis=1))
        if crossing.any():
            first = np.argmax(crossing)
            raise ValueError(f"polygon edges {k[first]} and {l[first]} intersect (not simple)")
        object.__setattr__(self, "vertices", tuple(xy))

    def contains_xy(self, x, y) -> np.ndarray:
        """Whether this polygon holds each point, boundary included: the
        zero-length segment at the point is blocked, as `segments_blocked`
        tests a start."""
        return self.blocks_segment_xy(x, y, x, y)

    def blocks_segment_xy(self, x1, y1, x2, y2) -> np.ndarray:
        """Whether each segment touches, crosses, or sits inside this
        polygon; a non-finite coordinate is a ValueError."""
        coords = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x1, y1, x2, y2)))
        pq = np.stack([v.ravel() for v in coords], axis=1)
        if not np.isfinite(pq).all():
            raise ValueError("segment coordinates must be finite")
        return segments_blocked(pq[:, :2], pq[:, 2:], (self,)).reshape(coords[0].shape)


_last_walls: tuple = (None, None)


def _walls(obstacles: tuple[Polygon, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The edges of all obstacles side by side, (2, 2, edges) [x | y][start |
    end], the obstacle of each edge, and the obstacles' boxes, plain and
    widened by _EPS, each (2, 2, obstacles, 1) [lower | upper][x | y], all
    built from the obstacles' vertices.

    A run passes its world's tuple every round, so the tables of the last
    tuple are kept, read-only, with the tuple itself (which keeps its id
    from being reused). They are keyed by identity, not equality: polygons
    equal up to the sign of a zero coordinate would give other bytes."""
    global _last_walls
    last = _last_walls
    if last[0] is not obstacles:
        vertices = [np.array(poly.vertices) for poly in obstacles]
        edges = np.concatenate([np.stack((a.T, np.roll(a, -1, axis=0).T), axis=1) for a in vertices], axis=2)
        polygon = np.repeat(np.arange(len(obstacles)), [len(a) for a in vertices])
        box = np.array([(a.min(axis=0), a.max(axis=0)) for a in vertices]).transpose(1, 2, 0)[..., None]
        widened = np.array((box[0] - _EPS, box[1] + _EPS))
        for a in (edges, polygon, box, widened):
            a.setflags(write=False)
        last = _last_walls = (obstacles, (edges, polygon, box, widened))
    return last[1]


def _pairs(ends, edges, polygon, box, reach=None):
    """The (obstacle edge, segment) pairs that can interact, segment by
    segment: those where segment r's box, widened by reach[r] when given,
    meets the `box` [lower | upper][x | y] of the edge's polygon. Returns the
    edge and the segment of each pair and their ends as one (2, 4, k) array
    for `_contacts`, from the segments' ends [x | y][a | b], segment and the
    tables of `_walls`, or None for the ends when there is no pair (most
    calls of a sparse world). The visibility mask gives no reach: widening by
    a zero would cost it two array operations, about 3 % of a call."""
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    if reach is not None:
        lo, hi = lo - reach, hi + reach
    far = (hi[:, None] < box[0]) | (lo[:, None] > box[1])
    edge, row = (~(far[0] | far[1])).take(polygon, axis=0).nonzero()
    if not len(row):
        return edge, row, None
    return edge, row, np.concatenate((ends.take(row, axis=2), edges.take(edge, axis=2)), axis=1)


def segments_blocked(p, q, obstacles) -> np.ndarray:
    """Whether some obstacle touches, crosses or holds each segment p[k] ->
    q[k] of the (m, 2) arrays p and q; a zero-length segment is blocked
    where its point touches an obstacle. The coordinates must be finite, as
    a SwarmState's are: the mask does not check them, and answers a NaN or
    an infinity arbitrarily.

    One pass over the (edge, segment) pairs of every obstacle, with the
    pairs on the inner axis. A pair is tested only where the segment's box
    meets the edge's polygon's box widened by _EPS. A segment that meets no
    edge is blocked only when a polygon holds it whole, which is when an odd
    count of that polygon's edges cross the ray from p[k] toward +x (p[k] on
    an edge already meets that edge); the ray cast runs only where p[k] lies
    in the polygon's widened box."""
    ends = np.concatenate((p, q)).T.reshape(2, 2, -1)  # [x | y][a | b], segment
    m = ends.shape[2]
    blocked = np.zeros(m, dtype=bool)
    if not obstacles:
        return blocked
    edges, polygon, _, widened = _walls(tuple(obstacles))
    edge, row, pts = _pairs(ends, edges, polygon, widened)
    if not len(row):
        return blocked
    blocked[row[_contacts(pts)]] = True
    lo, hi = widened
    near = (lo <= ends[:, None, 0]) & (ends[:, None, 0] <= hi)
    near = near[0] & near[1]
    if np.count_nonzero(near):
        poly = polygon.take(edge)
        in_box = near[poly, row]
        # the abscissa where each edge that spans a's y crosses that line
        (ax, _, x1, x2), (ay, _, y1, y2) = pts
        spans = (y1 > ay) != (y2 > ay)
        crosses = spans & (ax < x1 + (ay - y1) * (x2 - x1) / np.where(spans, y2 - y1, 1.0))
        # per (polygon, segment) cell: an odd count of crossings
        blocked[(np.bincount((poly * m + row)[in_box & crosses]) % 2).nonzero()[0] % m] = True
    return blocked


# ---------------------------------------------------------------------------
# separating half-planes: line of sight as part of the allowable region
# ---------------------------------------------------------------------------


def clamp_to_sight(p, q, owner, ends, obstacles) -> np.ndarray:
    """Shorten each step p -> q as far as needed to keep it on the far side
    of every obstacle edge from each segment it owns: segment r belongs to
    the step of owner[r], and runs between the agents ends[0, r] and
    ends[1, r] of the (n, 2) array p; the planner lists each agent's own
    point as the segment (i, i). q is shortened in place and returned.

    Each (segment, obstacle edge) pair takes the line normal to their
    closest-point gap; its offset is the obstacle edge's support along that
    normal plus the margin, so the line clears the edge even when the normal
    is imprecise. The ray bound is s <= slack / (-n . d), and a negative
    slack (a segment within the margin) holds the agent. A pair whose
    obstacle lies beyond the mover's step plus the margin cannot bind and is
    skipped. One pass covers the pairs of every obstacle, with the pairs on
    the inner axis. p and q must be finite, as a SwarmState's positions and
    the planner's steps are; they are not checked here.
    """
    if not obstacles:
        return q
    ends = p.T.take(ends, axis=1)
    d = q - p
    reach = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).take(owner) + SIGHT_MARGIN
    edges, polygon, box, _ = _walls(tuple(obstacles))
    _, row, pts = _pairs(ends, edges, polygon, box, reach)
    if not len(row):
        return q
    u = pts.take(_START, axis=1)
    w = pts.take(_END, axis=1) - u
    (x, y), (ux, uy), (wx, wy) = pts, u, w
    ww = wx * wx + wy * wy
    ww = np.where(ww > 0.0, ww, 1.0)
    # the gap between two segments that do not cross is the shortest of the
    # four endpoint projections; `gap` holds their x, y and squared length
    closest = u + _clip01(((x - ux) * wx + (y - uy) * wy) / ww) * w
    gap = np.empty((3, 4, len(row)))
    np.subtract(pts[:, :2], closest[:, :2], out=gap[:2, :2])
    np.subtract(closest[:, 2:], pts[:, 2:], out=gap[:2, 2:])
    sq = gap[:2] * gap[:2]
    np.add(sq[0], sq[1], out=gap[2])
    # the shortest gap, the first of equal ones
    g = gap[:, gap[2].argmin(axis=0), np.arange(len(row))]
    length = np.sqrt(g[2])
    length[length == 0.0] = 1.0  # a zero gap leaves a zero normal, and so a negative slack
    n = g[:2] / length
    support = n[0] * x[2:] + n[1] * y[2:]
    c = np.maximum(support[0], support[1]) + SIGHT_MARGIN
    # n . p and n . (p - q) = -(n . d), for the mover of each pair
    mover = owner.take(row)
    along = np.concatenate((p.T, (p - q).T)).take(mover, axis=1).reshape(2, 2, -1) * n
    slack, back = along[0, 0] + along[0, 1] - c, along[1, 0] + along[1, 1]
    bound = np.divide(slack, back, out=np.ones_like(slack), where=back > 0.0)
    bound[slack < 0.0] = 0.0
    s = np.ones(len(p))
    np.minimum.at(s, mover, bound)
    np.copyto(q, p + s[:, None] * d, where=(s < 1.0)[:, None])
    return q
