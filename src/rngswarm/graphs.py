"""Visibility graphs and lune-based edge trimming over agent positions.

The visibility graph joins the pairs in range that no wall blocks. The
trimmed ("effective") graph keeps an edge only while its lens holds at
most a configured number of other agents; with limit 0 this is the classical
relative neighbourhood graph restricted to visibility edges. Everything here
is a pure function of a position snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import segments_blocked


def coords(positions) -> np.ndarray:
    """(n, 2) float64 array from an ndarray or a sequence of (x, y) pairs."""
    if isinstance(positions, np.ndarray):
        a = np.asarray(positions, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"positions array must have shape (n, 2), got {a.shape}")
        return a
    seq = list(positions)
    if not seq:
        return np.zeros((0, 2), dtype=float)
    return np.asarray(seq, dtype=float).reshape(len(seq), 2)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on agent indices 0..n-1.

    `edges` is a read-only (E, 2) intp array of pairs i < j in lexicographic
    order; any iterable of pairs is normalised to it. `neighbors` and
    `degree` read a CSR adjacency built on first use.
    """

    n: int
    edges: np.ndarray = ()

    def __post_init__(self) -> None:
        e = np.array(self.edges if isinstance(self.edges, np.ndarray) else list(self.edges), dtype=np.intp)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got an array of shape {e.shape}")
        # rows that already have i < j need no reordering copy
        if not (e[:, 0] < e[:, 1]).all():
            e = np.column_stack((e.min(axis=1), e.max(axis=1)))
        bad = (e[:, 0] == e[:, 1]) | (e[:, 0] < 0) | (e[:, 1] >= self.n)
        if bad.any():
            i, j = e[bad][0]
            msg = f"self-loop on vertex {i}" if i == j else f"edge ({i}, {j}) out of range for n={self.n}"
            raise ValueError(msg)
        key = e[:, 0] * self.n + e[:, 1]
        # canonical input skips the sort
        if (key[1:] <= key[:-1]).any():
            order = np.argsort(key, kind="stable")
            e = e[order][np.concatenate(([True], np.diff(key[order]) != 0))]
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @classmethod
    def _built(cls, n: int, edges: np.ndarray) -> "Graph":
        """A graph on edges that are canonical by construction: an (E, 2)
        intp array of pairs i < j in lexicographic order, with no repeats.
        It skips the checks, copy and key pass that outside input gets."""
        g = object.__new__(cls)
        edges.setflags(write=False)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, owner): row i lists the neighbours of i as
        indices[indptr[i]:indptr[i + 1]], and owner[k] is the row of entry k."""
        src = np.concatenate((self.edges[:, 0], self.edges[:, 1]))
        dst = np.concatenate((self.edges[:, 1], self.edges[:, 0]))
        # a stable sort pages in far less code than numpy's default one: about
        # 0.1 against 0.5 MB of peak RSS on first use
        order = np.argsort(src * self.n + dst, kind="stable")
        indices, owner = dst[order], src[order]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        indices.setflags(write=False)
        owner.setflags(write=False)
        return indptr, indices, owner

    @cached_property
    def _keys(self) -> np.ndarray:
        """Edge keys i * n + j in ascending order, closed by the sentinel n * n,
        which lies above every valid key, so each lookup lands in range."""
        return np.concatenate((self.edges[:, 0] * self.n + self.edges[:, 1], [self.n * self.n]))

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour indices of i."""
        indptr, indices, _ = self._csr
        return indices[indptr[i] : indptr[i + 1]]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def has_edges(self, pairs) -> np.ndarray:
        """Boolean mask: is each (i, j) pair, in either order, an edge?"""
        p = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.intp).reshape(-1, 2)
        lo, hi = p.min(axis=1), p.max(axis=1)
        key = np.where((lo >= 0) & (lo < hi) & (hi < self.n), lo * self.n + hi, -1)
        return self._keys[np.searchsorted(self._keys, key)] == key

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.has_edges([(i, j)])[0])

    def _holds(self, other: "Graph") -> np.ndarray:
        """`has_edges(other.edges)` for a graph `other` on the same n: its
        keys are already canonical and sorted, so no pair needs normalising."""
        key = other._keys[:-1]
        return self._keys[np.searchsorted(self._keys, key)] == key


@dataclass(frozen=True)
class GraphMetrics:
    """Per-round summary of the visibility graph and its trimmed subgraph."""

    edge_count: int
    effective_edge_count: int
    connected: bool
    diameter_hops: int  # 0 when n <= 1; -1 flags a disconnected graph
    min_pair_distance: float  # inf when there is no pair
    max_pair_distance: float  # 0 when there is no pair


def pairwise_distances(xy: np.ndarray, rows=None) -> np.ndarray:
    """Euclidean distance matrix: the full n x n one, or only the rows of the
    agents `rows`, in the same arithmetic. It is exactly symmetric, since
    (-x)^2 = x^2."""
    src = xy if rows is None else xy[rows]
    diff = src[:, None, :] - xy[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def pair_distance_range(xy: np.ndarray, dist: np.ndarray | None = None) -> tuple[float, float]:
    """Smallest and largest distance between two agents, read from `dist`
    (default `pairwise_distances(xy)`); (inf, 0) with fewer than two agents."""
    n = len(xy)
    if n < 2:
        return math.inf, 0.0
    if dist is None:
        dist = pairwise_distances(xy)
    # every pair sits twice off the diagonal and the n diagonal zeros sort
    # first, so the n-th smallest entry is the closest pair: exact selections
    ranked = np.partition(dist, (n, n * n - 1), axis=None)
    return float(ranked[n]), float(ranked[-1])


def visibility_graph(positions, vis_range: float, obstacles=(), dist: np.ndarray | None = None) -> Graph:
    """Edge between every pair of agents at distance <= vis_range (inclusive)
    whose segment no obstacle blocks; `dist` is `pairwise_distances` of the
    positions, computed when not given."""
    if not (math.isfinite(vis_range) and vis_range > 0.0):
        raise ValueError(f"vis_range must be a positive finite number, got {vis_range!r}")
    xy = coords(positions)
    if dist is None:
        dist = pairwise_distances(xy)
    # argwhere lists the pairs row by row; those with i < j, in that order,
    # are canonical, and the wall mask keeps a subsequence of them
    e = np.argwhere(dist <= vis_range)
    e = e[e[:, 0] < e[:, 1]]
    if obstacles:
        e = e[~segments_blocked(xy[e[:, 0]], xy[e[:, 1]], obstacles)]
    return Graph._built(len(xy), e)


def effective_graph(
    graph: Graph, positions, max_lune_occupants: int = 0, dist: np.ndarray | None = None
) -> Graph:
    """Trim every edge whose lens holds more than max_lune_occupants agents.

    Limit 0 keeps an edge only when its lens is empty (the relative
    neighbourhood graph of the visibility graph); raising the limit keeps
    more redundancy. An occupant counts only when it is a neighbour of both
    endpoints in `graph`. Without walls that is every agent in the lens, as
    it is closer than d <= V to both; with walls, the occupant's two shorter
    edges are in sight, so trimming still cannot disconnect the graph.
    Strict distance comparisons make the decision identical from both
    endpoints, and a zero-length edge (coincident pair, empty lens) is
    always kept. `dist` is `pairwise_distances` of the positions, computed
    when not given.
    """
    if max_lune_occupants < 0:
        raise ValueError(f"max_lune_occupants must be >= 0, got {max_lune_occupants}")
    xy = coords(positions)
    n = graph.n
    if n != len(xy):
        raise ValueError(f"graph has {graph.n} vertices but {len(xy)} positions given")
    if dist is None:
        dist = pairwise_distances(xy)
    rows_i, rows_j = graph.edges[:, 0], graph.edges[:, 1]
    d = dist[rows_i, rows_j]
    # distances along the graph's edges only: a non-neighbour is never closer
    along = np.full((n, n), math.inf)
    along[rows_i, rows_j] = along[rows_j, rows_i] = d
    d = d[:, None]
    occupied = np.count_nonzero((along[rows_i] < d) & (along[rows_j] < d), axis=1)
    # a subsequence of canonical edges is canonical
    return Graph._built(n, graph.edges[occupied <= max_lune_occupants])


def _hops(graph: Graph, sources) -> int:
    """Largest hop count from any of `sources` to any vertex; -1 when some
    vertex is unreached from some source.

    One level-synchronous search expands every source at once: each level
    multiplies the float32 reached set by adjacency plus identity, which numpy
    hands to BLAS. Its entries are sums of at most n ones, exact in float32.
    """
    n = graph.n
    step = np.eye(n, dtype=np.float32)  # the diagonal keeps reached vertices reached
    i, j = graph.edges.T
    step[i, j] = step[j, i] = 1.0
    src = np.asarray(sources, dtype=np.intp)
    reach = np.zeros((len(src), n), dtype=np.float32)
    reach[np.arange(len(src)), src] = 1.0
    hops, seen = 0, len(src)
    while True:
        reach = np.minimum(reach @ step, 1.0)
        count = np.count_nonzero(reach)
        if count == seen:
            return hops if count == reach.size else -1
        hops, seen = hops + 1, count


def is_connected(graph: Graph) -> bool:
    """Every vertex reachable from vertex 0; vacuously true for n <= 1."""
    return graph.n <= 1 or _hops(graph, [0]) >= 0


def graph_metrics(graph: Graph, effective: Graph, positions, dist: np.ndarray | None = None) -> GraphMetrics:
    """Summarise one snapshot; `effective` must be a subgraph of `graph`, and
    `dist` is `pairwise_distances` of the positions, computed when not given."""
    if effective.n != graph.n or not graph._holds(effective).all():
        raise ValueError("effective graph must be a subgraph of the visibility graph")
    xy = coords(positions)
    n = graph.n
    if n != len(xy):
        raise ValueError(f"graph has {graph.n} vertices but {len(xy)} positions given")
    dmin, dmax = pair_distance_range(xy, dist)
    diameter = _hops(graph, np.arange(n))
    return GraphMetrics(
        edge_count=len(graph.edges),
        effective_edge_count=len(effective.edges),
        connected=diameter >= 0,
        diameter_hops=diameter,
        min_pair_distance=dmin,
        max_pair_distance=dmax,
    )
