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
from functools import cached_property, lru_cache

import numpy as np

from .geom import _integer, _number, segments_blocked


def _pairs(value, name: str, dtype) -> np.ndarray:
    """(k, 2) `dtype` array from an ndarray (not copied when it already has
    that dtype) or an iterable of pairs; a ValueError naming `name` for any
    other shape. The one reader of positions, edges and pair lists."""
    # an empty sequence is no pairs
    a = np.asarray(value if isinstance(value, np.ndarray) else list(value) or np.zeros((0, 2)), dtype=dtype)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"{name} must be an array of shape (k, 2) or a list of pairs, got shape {a.shape}")
    return a


def coords(positions) -> np.ndarray:
    """(n, 2) float64 array from an ndarray or a sequence of (x, y) pairs."""
    return _pairs(positions, "positions", float)


def _vertex_coords(graph: Graph, positions) -> np.ndarray:
    """`coords(positions)`, which must give one row per vertex of `graph`."""
    xy = coords(positions)
    if len(xy) != graph.n:
        raise ValueError(f"graph has {graph.n} vertices but {len(xy)} positions given")
    return xy


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on agent indices 0..n-1.

    `edges` is a read-only (E, 2) intp array of pairs i < j in lexicographic
    order; any iterable of pairs is normalised to it. `neighbors`, the
    planner and the hop search read a CSR adjacency built on first use.
    """

    n: int
    edges: np.ndarray = ()

    def __post_init__(self) -> None:
        _integer(self.n, "n", 0)
        e = _pairs(self.edges, "edges", np.intp)
        e = np.column_stack((e.min(axis=1), e.max(axis=1)))
        bad = (e[:, 0] == e[:, 1]) | (e[:, 0] < 0) | (e[:, 1] >= self.n)
        if bad.any():
            i, j = e[bad][0]
            msg = f"self-loop on vertex {i}" if i == j else f"edge ({i}, {j}) out of range for n={self.n}"
            raise ValueError(msg)
        key = e[:, 0] * self.n + e[:, 1]
        order = np.argsort(key, kind="stable")
        # keys are >= 0, so the -1 in front keeps the first row of a non-empty list
        e = e[order][np.diff(key[order], prepend=-1) != 0]
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
        # each row's smaller neighbours, then its larger ones: canonical edges
        # list both ascending, so a stable sort on the row alone keeps them
        # sorted (and it pages in far less code than numpy's default sort:
        # about 0.1 against 0.5 MB of peak RSS on first use)
        src = np.concatenate((self.edges[:, 1], self.edges[:, 0]))
        dst = np.concatenate((self.edges[:, 0], self.edges[:, 1]))
        order = np.argsort(src, kind="stable")
        indices, owner = dst.take(order), src.take(order)
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

    @cached_property
    def _plan(self) -> tuple[np.ndarray, ...]:
        """The planner's indices: the agents with neighbours and their (k, 1)
        degrees, the key owner * n + nbr of each CSR entry, and the sight
        clamp's segment owners (the CSR owners, then every agent for its own
        point) with the segments' ends as (2, k) agent indices [a | b], a the
        smaller agent and an own point (i, i)."""
        indptr, nbr, owner = self._csr
        deg = indptr[1:] - indptr[:-1]
        has, own = deg.nonzero()[0], np.arange(self.n)
        ends = np.concatenate(((np.minimum(owner, nbr), np.maximum(owner, nbr)), (own, own)), axis=1)
        plan = (has, deg[has, None], owner * self.n + nbr, np.concatenate((owner, own)), ends)
        for arr in plan:
            arr.setflags(write=False)
        return plan

    @cached_property
    def _diameter(self) -> int:
        """Hop diameter: `_hops` from every vertex, -1 when disconnected."""
        return _hops(self, np.arange(self.n))

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour indices of i."""
        indptr, indices, _ = self._csr
        return indices[indptr[i] : indptr[i + 1]]

    def has_edges(self, pairs) -> np.ndarray:
        """Boolean mask: is each (i, j) pair, in either order, an edge?"""
        p = _pairs(pairs, "pairs", np.intp)
        lo, hi = p.min(axis=1), p.max(axis=1)
        key = np.where((lo >= 0) & (lo < hi) & (hi < self.n), lo * self.n + hi, -1)
        return self._keys.take(np.searchsorted(self._keys, key)) == key

    def _holds(self, other: "Graph") -> np.ndarray:
        """`has_edges(other.edges)` for a graph `other` on the same n: its
        keys are already canonical and sorted, so no pair needs normalising."""
        key = other._keys[:-1]
        return self._keys.take(np.searchsorted(self._keys, key)) == key


@dataclass(frozen=True)
class GraphMetrics:
    """Per-round summary of the visibility graph and its trimmed subgraph;
    the pair distances are exact entries of the distance matrix."""

    edge_count: int
    effective_edge_count: int
    connected: bool
    diameter_hops: int  # 0 when n <= 1; -1 flags a disconnected graph
    min_pair_distance: float  # least `nearest_distances`; inf when there is no pair
    max_pair_distance: float  # largest entry; 0 when there is no pair


def pairwise_distances(xy: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, sqrt(dx*dx + dy*dy). It is exactly
    symmetric, since (-x)^2 = x^2. The differences come from the x and y
    columns, so every array op runs along the agents, and the squares and
    their sum are taken in place, in dx."""
    dx = xy[:, 0, None] - xy[:, 0]
    dy = xy[:, 1, None] - xy[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def nearest_distances(dist: np.ndarray) -> np.ndarray:
    """(n,) distance from each agent to its closest other agent, read from
    their `pairwise_distances`; inf for a lone agent."""
    d = dist.copy()
    d.flat[:: len(d) + 1] = math.inf  # the diagonal, as np.fill_diagonal sets it, without its checks
    return d.min(axis=1, initial=math.inf)


def visibility_graph(positions, vis_range: float, obstacles=(), dist: np.ndarray | None = None) -> Graph:
    """Edge between every pair of agents at distance <= vis_range (inclusive)
    whose segment no obstacle blocks; `dist` is `pairwise_distances` of the
    positions, computed when not given."""
    vis_range = _number(vis_range, "vis_range", "must be positive and finite", lambda x: 0.0 < x < math.inf)
    xy = coords(positions)
    if dist is None:
        dist = pairwise_distances(xy)
    # the pairs i < j row by row are canonical, and the wall mask keeps a subsequence of them
    key, pairs = _upper_pairs(len(xy))
    e = pairs.take((dist.take(key) <= vis_range).nonzero()[0], axis=0)
    if obstacles:
        clear = ~segments_blocked(xy.take(e[:, 0], axis=0), xy.take(e[:, 1], axis=0), obstacles)
        e = e.take(clear.nonzero()[0], axis=0)
    return Graph._built(len(xy), e)


@lru_cache(maxsize=1)  # a run asks for one n every round; only `take` reads the tables
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys i * n + j into a flat n x n matrix of the pairs i < j, row by row, and the pairs."""
    i, j = np.triu_indices(n, 1)
    return i * n + j, np.column_stack((i, j))


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
    _integer(max_lune_occupants, "max_lune_occupants", 0)
    xy = _vertex_coords(graph, positions)
    n = graph.n
    if dist is None:
        dist = pairwise_distances(xy)
    rows_i, rows_j = graph.edges[:, 0], graph.edges[:, 1]
    key = graph._keys[:-1]
    d = dist.take(key)
    # distances along the graph's edges only: a non-neighbour is never closer
    along = np.full((n, n), math.inf)
    along.put(key, d)
    along.put(rows_j * n + rows_i, d)
    d = d[:, None]
    occupied = np.count_nonzero((along.take(rows_i, axis=0) < d) & (along.take(rows_j, axis=0) < d), axis=1)
    # a subsequence of canonical edges is canonical
    return Graph._built(n, graph.edges.take((occupied <= max_lune_occupants).nonzero()[0], axis=0))


def _hops(graph: Graph, sources) -> int:
    """Largest hop count from any of `sources` to any vertex; -1 when some
    vertex is unreached from some source.

    One level-synchronous bit-parallel search over the CSR expands every
    source at once (Akiba, Iwata & Yoshida, SIGMOD 2013): row v of `reach`
    packs, as uint64 words, the sources that have reached v, and each level
    ORs in the words of v's neighbours. OR and popcount are integer
    operations, so the count is exact whatever their order or the CPU.
    """
    n = graph.n
    if n < 2:
        return 0
    indptr, nbr, _ = graph._csr
    if (indptr[1:] == indptr[:-1]).any():
        return -1  # an isolated vertex; from here on no CSR row is empty, as reduceat needs
    src = np.asarray(sources, dtype=np.intp)
    k = np.arange(len(src))
    reach = np.zeros((n, -(-len(src) // 64)), dtype=np.uint64)
    reach[src, k >> 6] = np.uint64(1) << (k & 63).astype(np.uint64)
    hops = 0
    while True:
        # take() gathers rows faster than reach[nbr]; a bytes compare is cheaper than array_equal
        grown = reach | np.bitwise_or.reduceat(reach.take(nbr, axis=0), indptr[:-1])
        if grown.tobytes() == reach.tobytes():
            return hops if np.bitwise_count(reach).sum() == n * len(src) else -1
        reach, hops = grown, hops + 1


def is_connected(graph: Graph) -> bool:
    """Every vertex reachable from vertex 0; vacuously true for n <= 1."""
    return graph.n <= 1 or _hops(graph, [0]) >= 0


def graph_metrics(graph: Graph, effective: Graph, positions, distances: tuple | None = None) -> GraphMetrics:
    """Summarise one snapshot; `effective` must be a subgraph of `graph`, and
    `distances` is (dist, nearest), the positions' `pairwise_distances` and
    their `nearest_distances`, derived when not given. The closest pair is
    the least of nearest, the farthest the largest entry of dist."""
    if effective.n != graph.n or not graph._holds(effective).all():
        raise ValueError("effective graph must be a subgraph of the visibility graph")
    xy = _vertex_coords(graph, positions)
    dist = pairwise_distances(xy) if distances is None else distances[0]
    nearest = nearest_distances(dist) if distances is None else distances[1]
    diameter = graph._diameter
    return GraphMetrics(
        edge_count=len(graph.edges),
        effective_edge_count=len(effective.edges),
        connected=diameter >= 0,
        diameter_hops=diameter,
        min_pair_distance=float(nearest.min(initial=math.inf)),
        max_pair_distance=float(dist.max(initial=0.0)),
    )
