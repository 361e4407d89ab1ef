"""Slow, loop-based reference implementations of the graph layer, the wall
predicates, the motion law and the commit's revert rule.

The graph references and the wall predicates are written with plain Python
floats and loops so that they share no code path (and no vectorization
subtleties) with the library. The motion law and the revert rule are kept
here in their per-agent and per-edge forms, in the library's portable
arithmetic, as the oracles the array kernels must match byte for byte.
Tests compare the fast implementations against these.
"""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from rngswarm.engine import InitSpec, SwarmState, WorldConfig
from rngswarm.geom import Polygon, segments_blocked
from rngswarm.graphs import effective_graph, visibility_graph
from rngswarm.motion import BEHAVIOR_KINDS, BehaviorSpec


def dist(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def naive_visibility_edges(points, vis_range):
    edges = set()
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if dist(points[i], points[j]) <= vis_range:
                edges.add((i, j))
    return edges


def naive_lune_occupants(points, i, j):
    d = dist(points[i], points[j])
    if d == 0.0:
        raise ValueError("coincident pair")
    count = 0
    for k in range(len(points)):
        if k in (i, j):
            continue
        if dist(points[k], points[i]) < d and dist(points[k], points[j]) < d:
            count += 1
    return count


def naive_effective_edges(points, vis_range, max_lune_occupants=0):
    kept = set()
    for i, j in naive_visibility_edges(points, vis_range):
        if dist(points[i], points[j]) == 0.0:
            kept.add((i, j))  # no lune to test; the edge costs nothing
            continue
        if naive_lune_occupants(points, i, j) <= max_lune_occupants:
            kept.add((i, j))
    return kept


def naive_connected(n, edges):
    if n <= 1:
        return True
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def naive_hop_diameter(n, edges):
    """Longest shortest path in hops, by a breadth-first search from every
    vertex; 0 for n <= 1 and -1 when the graph is disconnected."""
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    longest = 0
    for s in range(n):
        hops = {s: 0}
        level = [s]
        while level:
            nxt = []
            for cur in level:
                for nb in adj[cur]:
                    if nb not in hops:
                        hops[nb] = hops[cur] + 1
                        nxt.append(nb)
            level = nxt
        if len(hops) < n:
            return -1
        longest = max(longest, max(hops.values()))
    return longest


# ---------------------------------------------------------------------------
# the scalar wall predicates, one float at a time
# ---------------------------------------------------------------------------

_EPS = 1e-12


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _within_bbox(x, y, x1, y1, x2, y2):
    return (min(x1, x2) - _EPS <= x <= max(x1, x2) + _EPS) and (
        min(y1, y2) - _EPS <= y <= max(y1, y2) + _EPS
    )


def scalar_segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
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


def _bbox(poly):
    xs = [x for x, _ in poly.vertices]
    ys = [y for _, y in poly.vertices]
    return min(xs), min(ys), max(xs), max(ys)


def scalar_contains(poly, x, y):
    """Inside or on the boundary of `poly`, by an even-odd ray cast."""
    bx0, by0, bx1, by1 = _bbox(poly)
    if x < bx0 - _EPS or x > bx1 + _EPS or y < by0 - _EPS or y > by1 + _EPS:
        return False
    pts = poly.vertices
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


def scalar_blocks(poly, x1, y1, x2, y2):
    """Whether the segment touches, crosses, or sits inside `poly`."""
    bx0, by0, bx1, by1 = _bbox(poly)
    if (
        max(x1, x2) < bx0 - _EPS
        or min(x1, x2) > bx1 + _EPS
        or max(y1, y2) < by0 - _EPS
        or min(y1, y2) > by1 + _EPS
    ):
        return False
    pts = poly.vertices
    n = len(pts)
    for k in range(n):
        ex1, ey1 = pts[k]
        ex2, ey2 = pts[(k + 1) % n]
        if scalar_segments_intersect(x1, y1, x2, y2, ex1, ey1, ex2, ey2):
            return True
    return scalar_contains(poly, x1, y1)


def edge_set(graph):
    """A graph's edges as a set of (i, j) int tuples."""
    return {(i, j) for i, j in graph.edges.tolist()}


def naive_sighted_edges(points, vis_range, obstacles):
    """The pairs within vis_range that no obstacle blocks, by the scalar
    predicate: the visibility edges, walls included."""
    return {
        (i, j)
        for i, j in naive_visibility_edges(points, vis_range)
        if not any(scalar_blocks(poly, *points[i], *points[j]) for poly in obstacles)
    }


def naive_trimmed_edges(points, edges, max_lune_occupants=0):
    """The pairs of `edges` whose lens holds at most max_lune_occupants
    agents that are neighbours of both ends in `edges`; a zero-length edge
    has no lens and is kept. Without walls this is `naive_effective_edges`."""
    kept = set()
    for i, j in edges:
        d = dist(points[i], points[j])
        occupants = [
            k
            for k in range(len(points))
            if (min(i, k), max(i, k)) in edges
            and (min(j, k), max(j, k)) in edges
            and dist(points[k], points[i]) < d
            and dist(points[k], points[j]) < d
        ]
        if d == 0.0 or len(occupants) <= max_lune_occupants:
            kept.add((i, j))
    return kept


def reference_pairwise_distances(xy):
    """The distance matrix as an (n, n, 2) block of coordinate differences,
    squared and summed over its last axis: a sum of two terms, so the same
    bytes as sqrt(dx*dx + dy*dy)."""
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


# ---------------------------------------------------------------------------
# the per-agent motion law and the per-edge revert rule
# ---------------------------------------------------------------------------

FEASIBILITY_TOL = 1e-9
SIGHT_MARGIN = 1e-6


def reference_row_sums(rows, indptr, deg):
    """Sum of each CSR row of `rows` (row lengths `deg`), one level at a
    time: the k-th neighbour of every row with more than k is added in one
    pass, so each row adds its neighbours in order from +0.0."""
    acc = np.zeros((len(deg), 2))
    for level in range(int(deg.max(initial=0))):
        has = deg > level
        acc[has] += rows[indptr[:-1][has] + level]
    return acc


def reference_clamp_point(cur, tgt, centers, radius):
    """Single-point disc clamp: the smallest positive ray-circle root over the
    discs, then a nudge down until the point is inside every disc."""
    w = cur - centers
    dist0 = np.sqrt((w * w).sum(axis=1))
    if float((dist0 - radius).max()) > FEASIBILITY_TOL:
        raise ValueError("current point violates a constraint disc")
    d = tgt - cur
    a = d[0] * d[0] + d[1] * d[1]
    wt = tgt - centers
    if a == 0.0 or np.all((wt * wt).sum(axis=1) <= radius * radius):
        return tgt.copy()
    b = 2.0 * (w[:, 0] * d[0] + w[:, 1] * d[1])
    c = (w * w).sum(axis=1) - radius * radius
    disc = b * b - 4.0 * a * c
    roots = np.where(disc > 0.0, (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), 0.0)
    s = min(1.0, max(0.0, float(roots.min())))
    if s >= 1.0:
        return tgt.copy()
    q = cur + s * (tgt - cur)
    for _ in range(4):
        w = q - centers
        if np.all(np.sqrt((w * w).sum(axis=1)) <= radius):
            break
        s = max(0.0, s - 1e-12)
        q = cur + s * (tgt - cur)
    return q


def reference_target(i, state, effective, spec):
    xy = state.positions
    p = xy[i]
    nbrs = effective.neighbors(i)
    if spec.kind == "idle":
        raw = p
    elif spec.kind == "leader_follow" and i == spec.leader_index:
        k = state.waypoint_index
        raw = np.asarray(spec.waypoints[k], dtype=float) if k < len(spec.waypoints) else p
    elif spec.kind == "formation":
        raw = p
        if len(nbrs):
            rel = xy[nbrs] - p
            dist = np.sqrt((rel * rel).sum(axis=1))
            ok = dist > 0.0
            if ok.any():
                scale = spec.spring_gain * (dist[ok] - spec.desired_spacing) / dist[ok]
                raw = p + (scale[:, None] * rel[ok]).sum(axis=0)
    else:
        raw = xy[nbrs].mean(axis=0) if len(nbrs) else p
    off = raw - p
    ox, oy = float(off[0]), float(off[1])
    norm = math.sqrt(ox * ox + oy * oy)
    if norm > spec.max_step:
        raw = p + off * (spec.max_step / norm)
    return np.array(raw, dtype=float)


def naive_nearest_distances(dist):
    """Each row's least entry off the diagonal, by a loop over j != i; inf
    for a lone agent."""
    n = len(dist)
    out = np.full(n, math.inf)
    for i in range(n):
        for j in range(n):
            if j != i and dist[i, j] < out[i]:
                out[i] = dist[i, j]
    return out


def reference_separation_cap(i, xy, vis_range, min_separation):
    rel = xy - xy[i]
    d = np.sqrt((rel * rel).sum(axis=1))
    d[i] = math.inf
    visible = d <= vis_range
    if not visible.any():
        return math.inf
    return max(0.0, 0.5 * (float(d[visible].min()) - min_separation))


def _project_point(px, py, ux, uy, vx, vy):
    wx, wy = vx - ux, vy - uy
    ww = wx * wx + wy * wy
    t = ((px - ux) * wx + (py - uy) * wy) / (ww if ww > 0.0 else 1.0)
    t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
    return ux + t * wx, uy + t * wy


def reference_sight_step(i, p, q, nbrs, xy, obstacles):
    """Agent i's step p -> q, shortened into the half-plane of every
    (segment, obstacle edge) pair, one pair at a time and none skipped. The
    segments are i's effective edges, each from its index-ordered pair, and
    i's own point. A pair's line is normal to their closest-point gap and
    offset past the obstacle edge by SIGHT_MARGIN."""
    px, py = float(p[0]), float(p[1])
    dx, dy = (float(v) for v in q - p)
    segments = [(xy[min(i, j)].tolist(), xy[max(i, j)].tolist()) for j in nbrs] + [((px, py), (px, py))]
    s = 1.0
    for (ax, ay), (bx, by) in segments:
        for poly in obstacles:
            m = len(poly.vertices)
            for k in range(m):
                (cx, cy), (ex, ey) = poly.vertices[k], poly.vertices[(k + 1) % m]
                best = None
                for (sx, sy), (tx, ty) in (
                    ((ax, ay), _project_point(ax, ay, cx, cy, ex, ey)),
                    ((bx, by), _project_point(bx, by, cx, cy, ex, ey)),
                    (_project_point(cx, cy, ax, ay, bx, by), (cx, cy)),
                    (_project_point(ex, ey, ax, ay, bx, by), (ex, ey)),
                ):
                    hx, hy = sx - tx, sy - ty
                    hh = hx * hx + hy * hy
                    if best is None or hh < best[2]:
                        best = (hx, hy, hh)
                gx, gy, gg = best
                length = math.sqrt(gg)
                nx, ny = gx / (length if length > 0.0 else 1.0), gy / (length if length > 0.0 else 1.0)
                c = max(nx * cx + ny * cy, nx * ex + ny * ey) + SIGHT_MARGIN
                slack = (nx * px + ny * py) - c
                nd = nx * dx + ny * dy
                bound = 0.0 if slack < 0.0 else (slack / -nd if nd < 0.0 else 1.0)
                s = min(s, bound)
    return p + s * (q - p) if s < 1.0 else q


def reference_motion_law(i, state, effective, spec, world):
    """Agent i's proposal, planned on its own: target, separation cap, disc
    clamp, wall half-planes. Returns a (2,) array."""
    xy = state.positions
    p = xy[i]
    nbrs = effective.neighbors(i)
    nbr_xy = xy[nbrs]
    if len(nbrs):
        rel = nbr_xy - p
        if float(np.sqrt((rel * rel).sum(axis=1)).max()) > world.vis_range + FEASIBILITY_TOL:
            raise RuntimeError(f"agent {i} is outside its allowable region")
    t = reference_target(i, state, effective, spec)
    if world.min_separation > 0.0:
        cap = reference_separation_cap(i, xy, world.vis_range, world.min_separation)
        off = t - p
        ox, oy = float(off[0]), float(off[1])
        norm = math.sqrt(ox * ox + oy * oy)
        if norm > cap:
            t = p + off * (cap / norm) if cap > 0.0 else p.copy()
    q = reference_clamp_point(p, t, 0.5 * (nbr_xy + p), 0.5 * world.vis_range) if len(nbrs) else t.copy()
    if world.obstacles:
        q = reference_sight_step(i, p, q, nbrs, xy, world.obstacles)
    return q


def reference_edge_safe(pi, pj, world):
    xi, yi, xj, yj = float(pi[0]), float(pi[1]), float(pj[0]), float(pj[1])
    dx, dy = xi - xj, yi - yj
    if math.sqrt(dx * dx + dy * dy) > world.vis_range:
        return False
    return not any(scalar_blocks(poly, xi, yi, xj, yj) for poly in world.obstacles)


def reference_verify(old, proposals, effective, world):
    """The commit's revert rule, one edge at a time: each pass collects every
    effective edge that is not safe and still has an endpoint not reverted,
    then reverts both endpoints of all of them at once, until a pass collects
    none. Mutates `proposals` and returns the set of reverted agents."""
    reverted = set()
    edges = effective.edges.tolist()
    while True:
        broken = [
            (i, j)
            for i, j in edges
            if not {i, j} <= reverted and not reference_edge_safe(proposals[i], proposals[j], world)
        ]
        if not broken:
            return reverted
        for i, j in broken:
            for a in (i, j):
                proposals[a] = old[a]
                reverted.add(a)


# grid values give coincident agents, exact zeros and pairs at exactly the
# range; free floats give everything in between
_COORD = st.one_of(
    st.integers(-8, 8).map(lambda k: k * 0.125),
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
)
_WALL = Polygon(((0.1, 0.1), (0.35, 0.1), (0.35, 0.3), (0.1, 0.3)))


@st.composite
def snapshots(draw):
    """(state, effective graph, world) for an arbitrary snapshot: every
    behaviour kind, rng_plus 0 or 1, separation 0 or 0.1, with or without a
    wall. The world's box is never sampled; the snapshot is the state."""
    n = draw(st.integers(1, 12))
    xy = np.array(draw(st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n)), dtype=float)
    kind = draw(st.sampled_from(BEHAVIOR_KINDS))
    spec = BehaviorSpec.for_range(
        kind, 1.0, waypoints=((0.5, 0.5), (-0.5, 0.25)), leader_index=draw(st.integers(0, n - 1))
    )
    world = WorldConfig(
        n=n,
        vis_range=1.0,
        behavior=spec,
        init=InitSpec(box=(0.0, 0.0, 1.0, 1.0)),
        rng_plus=draw(st.integers(0, 1)),
        min_separation=draw(st.sampled_from((0.0, 0.1))),
        obstacles=(_WALL,) if draw(st.booleans()) else (),
    )
    state = SwarmState(round=0, positions=xy, waypoint_index=draw(st.integers(0, 2)))
    eff = effective_graph(visibility_graph(xy, world.vis_range, world.obstacles), xy, world.rng_plus)
    return state, eff, world


@st.composite
def star_walls(draw):
    """A wall of 4 to 6 vertices around a centre, vertex k at a random angle
    inside the k-th of equal sectors and a random radius. Consecutive angles
    are less than pi apart, so the polygon is star-shaped about the centre
    and simple by construction."""
    k = draw(st.integers(4, 6))
    cx, cy = draw(_COORD), draw(_COORD)
    vertices = []
    for sector in range(k):
        angle = (sector + draw(st.floats(0.1, 0.9))) * 2.0 * math.pi / k
        radius = draw(st.floats(0.02, 0.4))
        vertices.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return Polygon(tuple(vertices))


def _walled_snapshot(draw, walls, xy):
    """(state, effective graph, world) for the agents xy among `walls`, with
    the agents that touch a wall left out; the graphs see the walls."""
    xy = xy[~segments_blocked(xy, xy, walls)]
    assume(len(xy))
    n = len(xy)
    kind = draw(st.sampled_from(BEHAVIOR_KINDS))
    spec = BehaviorSpec.for_range(
        kind, 1.0, waypoints=((0.5, 0.5), (-0.5, 0.25)), leader_index=draw(st.integers(0, n - 1))
    )
    world = WorldConfig(
        n=n,
        vis_range=1.0,
        behavior=spec,
        init=InitSpec(box=(0.0, 0.0, 1.0, 1.0)),
        rng_plus=draw(st.integers(0, 1)),
        min_separation=draw(st.sampled_from((0.0, 0.1))),
        obstacles=tuple(walls),
    )
    state = SwarmState(round=0, positions=xy, waypoint_index=draw(st.integers(0, 2)))
    eff = effective_graph(visibility_graph(xy, world.vis_range, world.obstacles), xy, world.rng_plus)
    return state, eff, world


@st.composite
def walled_snapshots(draw):
    """(state, effective graph, world) among one to three random walls, with
    the agents that touch a wall left out; the graphs see the walls. A wall
    is a triangle, thin slivers included, or a star-shaped polygon of 4 to 6
    vertices, so the wall predicates and half-planes see more than 3 edges."""
    walls = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            walls.append(draw(star_walls()))
            continue
        try:
            walls.append(Polygon(tuple(draw(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=3)))))
        except ValueError:  # a degenerate triangle
            pass
    assume(walls)
    xy = np.array(draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=12)), dtype=float)
    return _walled_snapshot(draw, walls, xy)


# pillar side lengths: a full lattice cell, so neighbours share an edge;
# half a cell; and one that fits no grid
_PILLAR_SIDES = (0.25, 0.125, 0.0975)


@st.composite
def pillar_fields(draw):
    """9 to 16 small square pillars in distinct cells of a lattice of pitch
    0.25 over [-1, 1]^2, each in its cell's lower-left corner. So pillars in
    one row share their bottom edge's line, those in one column their left
    edge's line, and full-cell neighbours touch."""
    cells = draw(st.lists(st.tuples(st.integers(-4, 3), st.integers(-4, 3)), min_size=9, max_size=16, unique=True))
    pillars = []
    for gx, gy in cells:
        side = draw(st.sampled_from(_PILLAR_SIDES))
        x0, y0 = gx * 0.25, gy * 0.25
        pillars.append(Polygon(((x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side))))
    return tuple(pillars)


@st.composite
def margin_points(draw, pillars):
    """Points SIGHT_MARGIN outside a pillar edge, at its middle or its ends:
    an agent there has a slack of (nearly) zero against that edge."""
    pillar = draw(st.sampled_from(pillars))
    (x0, y0), _, (x1, y1), _ = pillar.vertices
    along = draw(st.sampled_from((0.0, 0.5, 1.0)))
    side = draw(st.integers(0, 3))
    if side < 2:  # below or above
        return (x0 + along * (x1 - x0), (y0 - SIGHT_MARGIN, y1 + SIGHT_MARGIN)[side])
    return ((x0 - SIGHT_MARGIN, x1 + SIGHT_MARGIN)[side - 2], y0 + along * (y1 - y0))


@st.composite
def pillar_snapshots(draw):
    """(state, effective graph, world) in a field of 9 to 16 square pillars
    (`pillar_fields`): free agents, and agents at exactly SIGHT_MARGIN from
    a pillar edge, with those that touch a pillar left out."""
    pillars = draw(pillar_fields())
    free = draw(st.lists(st.tuples(_COORD, _COORD), min_size=0, max_size=10))
    at_margin = draw(st.lists(margin_points(pillars), min_size=1, max_size=4))
    xy = np.array(free + at_margin, dtype=float)
    return _walled_snapshot(draw, pillars, xy)
