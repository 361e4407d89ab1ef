"""Slow, loop-based reference implementations of the graph layer.

Everything here is deliberately written with plain Python floats and O(n^3)
loops so that it shares no code path (and no vectorization subtleties) with
the library. Tests compare the fast implementations against these.
"""

import math


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


def edge_set(graph):
    """A graph's edges as a set of (i, j) int tuples."""
    return {(i, j) for i, j in graph.edges.tolist()}
