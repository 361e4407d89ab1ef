"""Visibility graphs and lune-based edge trimming over agent positions.

The trimmed ("effective") graph keeps an edge only while its lens holds at
most a configured number of other agents; with limit 0 this is the classical
relative neighbourhood graph restricted to visibility edges. Everything here
is a pure function of a position snapshot.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import InitVar, dataclass, field

import numpy as np

from .geom import Point2


def coords(positions) -> np.ndarray:
    """(n, 2) float64 array from an ndarray, Point2 sequence, or pair sequence."""
    if isinstance(positions, np.ndarray):
        a = np.asarray(positions, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"positions array must have shape (n, 2), got {a.shape}")
        return a
    seq = list(positions)
    if not seq:
        return np.zeros((0, 2), dtype=float)
    if isinstance(seq[0], Point2):
        return np.array([(p.x, p.y) for p in seq], dtype=float)
    return np.asarray(seq, dtype=float).reshape(len(seq), 2)


@dataclass
class Graph:
    """Undirected graph on agent indices 0..n-1; edges stored as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]
    validate: InitVar[bool] = True
    _adj: list[np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self, validate: bool) -> None:
        if validate:
            norm = frozenset((i, j) if i < j else (j, i) for i, j in self.edges)
            for i, j in norm:
                if i == j:
                    raise ValueError(f"self-loop on vertex {i}")
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            self.edges = norm
        elif not isinstance(self.edges, frozenset):
            self.edges = frozenset(self.edges)

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour indices of i (cached adjacency)."""
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = [np.array(sorted(v), dtype=np.intp) for v in adj]
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges


@dataclass(frozen=True)
class GraphMetrics:
    """Per-round summary of the visibility graph and its trimmed subgraph."""

    edge_count: int
    effective_edge_count: int
    connected: bool
    diameter_hops: int  # 0 when n <= 1; -1 flags a disconnected graph
    min_pair_distance: float  # inf when there is no pair
    max_pair_distance: float  # 0 when there is no pair
    max_effective_degree: int


def pairwise_distances(xy: np.ndarray) -> np.ndarray:
    """Full n x n Euclidean distance matrix."""
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def pair_distance_range(xy: np.ndarray) -> tuple[float, float]:
    """Smallest and largest distance between two agents, in pairwise_distances
    arithmetic; (inf, 0) with fewer than two agents."""
    if len(xy) < 2:
        return math.inf, 0.0
    iu, ju = np.triu_indices(len(xy), k=1)
    vals = pairwise_distances(xy)[iu, ju]
    return float(vals.min()), float(vals.max())


def visibility_graph(positions, vis_range: float) -> Graph:
    """Edge between every pair of agents at distance <= vis_range (inclusive)."""
    if not (math.isfinite(vis_range) and vis_range > 0.0):
        raise ValueError(f"vis_range must be a positive finite number, got {vis_range!r}")
    xy = coords(positions)
    n = len(xy)
    if n < 2:
        return Graph(n, frozenset(), validate=False)
    dist = pairwise_distances(xy)
    iu, ju = np.triu_indices(n, k=1)
    keep = dist[iu, ju] <= vis_range
    edges = frozenset(zip(iu[keep].tolist(), ju[keep].tolist()))
    return Graph(n, edges, validate=False)


def lune_count(i: int, j: int, positions) -> int:
    """Number of agents strictly inside the lens of the pair (i, j).

    Candidates are all other agents; anything inside the lens is closer than
    d(i, j) to both endpoints and therefore automatically visible to both.
    """
    xy = coords(positions)
    n = len(xy)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"agent index out of range: ({i}, {j}) with n={n}")
    if i == j:
        raise ValueError("lune requires two distinct agents")
    rel_i = xy - xy[i]
    rel_j = xy - xy[j]
    di = np.sqrt((rel_i * rel_i).sum(axis=1))
    dj = np.sqrt((rel_j * rel_j).sum(axis=1))
    # dij taken from the same row arithmetic, so d(i, j) is not strictly
    # below itself and both endpoints exclude themselves exactly
    dij = float(di[j])
    if dij == 0.0:
        raise ValueError("lune is undefined for a coincident pair")
    return int(np.count_nonzero((di < dij) & (dj < dij)))


def effective_graph(graph: Graph, positions, max_lune_occupants: int = 0) -> Graph:
    """Trim every edge whose lens holds more than max_lune_occupants agents.

    Limit 0 keeps an edge only when its lens is empty (the relative
    neighbourhood graph of the visibility graph); raising the limit keeps
    more redundancy. Strict distance comparisons make the decision identical
    from both endpoints, and a zero-length edge (coincident pair, empty lens)
    is always kept.
    """
    if max_lune_occupants < 0:
        raise ValueError(f"max_lune_occupants must be >= 0, got {max_lune_occupants}")
    xy = coords(positions)
    n = graph.n
    if n != len(xy):
        raise ValueError(f"graph has {graph.n} vertices but {len(xy)} positions given")
    if not graph.edges or n <= 2:
        return Graph(n, graph.edges, validate=False)
    dist = pairwise_distances(xy)
    pairs = np.array(sorted(graph.edges), dtype=np.intp)
    rows_i, rows_j = pairs[:, 0], pairs[:, 1]
    d = dist[rows_i, rows_j][:, None]
    occupied = np.count_nonzero((dist[rows_i] < d) & (dist[rows_j] < d), axis=1)
    keep = occupied <= max_lune_occupants
    kept = frozenset(zip(rows_i[keep].tolist(), rows_j[keep].tolist()))
    return Graph(n, kept, validate=False)


def is_connected(graph: Graph) -> bool:
    """Breadth-first reachability from vertex 0; vacuously true for n <= 1."""
    if graph.n <= 1:
        return True
    seen = np.zeros(graph.n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(int(w))
    return count == graph.n


def _hop_diameter(graph: Graph) -> int:
    """Longest shortest path in hops via boolean matrix BFS; -1 if disconnected."""
    n = graph.n
    if n <= 1:
        return 0
    adj = np.zeros((n, n), dtype=np.uint8)
    if graph.edges:
        idx = np.array(sorted(graph.edges), dtype=np.intp)
        adj[idx[:, 0], idx[:, 1]] = 1
        adj[idx[:, 1], idx[:, 0]] = 1
    reach = np.eye(n, dtype=bool)
    frontier = reach
    hops = 0
    while True:
        nxt = ((frontier.astype(np.uint8) @ adj) > 0) & ~reach
        if not nxt.any():
            break
        hops += 1
        reach |= nxt
        frontier = nxt
    if not reach.all():
        return -1
    return hops


def graph_metrics(graph: Graph, effective: Graph, positions) -> GraphMetrics:
    """Summarise one snapshot; `effective` must be a subgraph of `graph`."""
    if effective.n != graph.n or not effective.edges <= graph.edges:
        raise ValueError("effective graph must be a subgraph of the visibility graph")
    xy = coords(positions)
    n = graph.n
    if n != len(xy):
        raise ValueError(f"graph has {graph.n} vertices but {len(xy)} positions given")
    dmin, dmax = pair_distance_range(xy)
    diameter = _hop_diameter(graph)
    max_degree = max((effective.degree(i) for i in range(n)), default=0)
    return GraphMetrics(
        edge_count=len(graph.edges),
        effective_edge_count=len(effective.edges),
        connected=diameter >= 0,
        diameter_hops=diameter,
        min_pair_distance=dmin,
        max_pair_distance=dmax,
        max_effective_degree=max_degree,
    )
