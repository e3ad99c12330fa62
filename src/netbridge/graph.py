"""Directed graphs with edge lengths: loading, path enumeration, distances.

Nodes are numbered 1..n in documents and in paths; index arrays are
0-based internally.  Per-step quantities (prior weights, transition
probabilities, supports) are (N, E) arrays over an EdgeIndex, one column
per edge, and a path family is a (P, N+1) intp array, one path per row.
Edge lookups go through EdgeIndex.find and out_edges, and distances come
one Dijkstra row at a time, so nothing here builds an n x n array.  An
absent edge has infinite length, which is computed on demand and never
stored.
"""

from __future__ import annotations

import heapq
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, GraphFormatError, InfeasibleError

PATH_CAP = 1_000_000

Path = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class EdgeIndex:
    """Directed edges src[e] -> dst[e] over nodes 0..n-1, in a fixed order.

    Edge e is column e of every (N, E) per-step array built on this index.
    Pairs are looked up by the sorted key src * n + dst; the same sort lists
    each node's out-edges by ascending target.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    order: np.ndarray = field(init=False, repr=False)   # edge ids by (src, dst)
    keys: np.ndarray = field(init=False, repr=False)    # src * n + dst, sorted
    starts: np.ndarray = field(init=False, repr=False)  # v's out-edges start at order[starts[v]]

    def __post_init__(self):
        src = np.asarray(self.src, dtype=np.intp)
        dst = np.asarray(self.dst, dtype=np.intp)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError(f"src and dst must be equal-length vectors, got "
                             f"{src.shape} and {dst.shape}")
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= self.n):
            raise ValueError(f"edge endpoints must lie in 0..{self.n - 1}")
        key = src * self.n + dst
        order = np.argsort(key, kind="stable")
        keys = key[order]
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            # a stable sort puts a pair's first occurrence first; messages
            # name the edge by position and its nodes 1-based, as documents do
            e = int(order[dup + 1].min())
            raise ValueError(f"edges[{e}]: duplicate edge ({src[e] + 1}, {dst[e] + 1})")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "starts", np.searchsorted(src[order], np.arange(self.n + 1)))

    @property
    def E(self) -> int:
        return self.src.size

    def find(self, u, v) -> np.ndarray:
        """Edge ids of the 0-based pairs (u[k], v[k]); -1 where there is no edge."""
        key = np.asarray(u, dtype=np.intp) * self.n + np.asarray(v, dtype=np.intp)
        if self.E == 0:
            return np.full(key.shape, -1)
        pos = np.minimum(np.searchsorted(self.keys, key), self.E - 1)
        return np.where(self.keys[pos] == key, self.order[pos], -1)

    def out_edges(self, v: int) -> np.ndarray:
        """Ids of the edges leaving node v (0-based), by ascending target."""
        return self.order[self.starts[v]:self.starts[v + 1]]

    def reduce(self, ufunc, vals: np.ndarray, empty) -> np.ndarray:
        """ufunc reduced over each node's out-edges: one entry per edge along
        vals' first axis in, one per node out, `empty` for a node with none."""
        heads = self.starts[:-1]
        has = heads < self.starts[1:]
        out = np.full((self.n,) + vals.shape[1:], empty, dtype=vals.dtype)
        if has.any():
            # out-edges are contiguous in `order`, so skipping the nodes
            # without any leaves each head's group running up to the next head
            out[has] = ufunc.reduceat(vals[self.order], heads[has], axis=0)
        return out

    def logsumexp(self, vals: np.ndarray, incoming: bool = False) -> np.ndarray:
        """log sum exp of vals over each node's out-edges (in-edges if
        `incoming`); -inf for a node with none or with all of them -inf."""
        # scattered by node, which for one vector beats two reduceat passes
        key = self.dst if incoming else self.src
        top = np.full(self.n, -np.inf)
        np.maximum.at(top, key, vals)
        shift = np.where(top > -np.inf, top, 0.0)
        with np.errstate(divide="ignore"):
            return shift + np.log(np.bincount(key, np.exp(vals - shift[key]), minlength=self.n))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph with nonnegative edge lengths.

    Self-loops are allowed, duplicate edges are not.  `edges` holds
    (from_node, to_node, length) triples with 1-based node ids;
    `edge_index` and `lengths` hold the same edges as arrays, in that order.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    edge_index: EdgeIndex = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise GraphFormatError(f"n must be a positive integer, got {self.n!r}")
        norm = []
        for k, edge in enumerate(self.edges):
            try:
                u, v, length = edge
            except (TypeError, ValueError):
                raise GraphFormatError(f"edges[{k}]: expected (from, to, length), got {edge!r}")
            if not _is_int(u) or not _is_int(v):
                raise GraphFormatError(f"edges[{k}]: node ids must be integers, got {edge!r}")
            # checked here, not on an array: a node id need not fit in one
            if not (1 <= u <= self.n) or not (1 <= v <= self.n):
                raise GraphFormatError(f"edges[{k}]: node out of range 1..{self.n}: ({u}, {v})")
            if isinstance(length, bool) or not isinstance(length, (int, float)):
                raise GraphFormatError(f"edges[{k}]: length must be a number, got {length!r}")
            # false for NaN, and for an int too large for a double
            if not 0 <= length <= sys.float_info.max:
                raise GraphFormatError(f"edges[{k}]: length must be finite and >= 0, "
                                       f"got {length!r}")
            norm.append((u, v, float(length)))
        lengths = np.array([w for _, _, w in norm], dtype=float)
        try:
            index = EdgeIndex(self.n, np.array([u - 1 for u, _, _ in norm], dtype=np.intp),
                              np.array([v - 1 for _, v, _ in norm], dtype=np.intp))
        except ValueError as exc:  # a duplicate pair
            raise GraphFormatError(str(exc)) from None
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "edge_index", index)
        object.__setattr__(self, "lengths", lengths)

    def lengths_on(self, edges: EdgeIndex) -> np.ndarray:
        """Length of each edge of `edges` in this graph; +inf where it has no such edge."""
        if edges.n != self.n:
            raise ValueError(f"edge index is over {edges.n} nodes, graph has {self.n}")
        ids = self.edge_index.find(edges.src, edges.dst)
        return np.where(ids >= 0, self.lengths[ids], np.inf)


def load_graph(text: str) -> DirectedGraph:
    """Parse a graph document.

    The document is a JSON object {"n": int, "edges": [{"from": i, "to": j,
    "length": x}, ...]} with 1-based node ids.  Malformed input raises
    GraphFormatError naming the offending location.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"top level must be an object, got {type(doc).__name__}")
    if "n" not in doc:
        raise GraphFormatError("missing required key 'n'")
    if "edges" not in doc:
        raise GraphFormatError("missing required key 'edges' "
                               "(use [] for an edgeless graph)")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    for k, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise GraphFormatError(f"edges[{k}]: must be an object, got {type(item).__name__}")
        for key in ("from", "to", "length"):
            if key not in item:
                raise GraphFormatError(f"edges[{k}]: missing key '{key}'")
        edges.append((item["from"], item["to"], item["length"]))
    # DirectedGraph checks the values: ids, lengths and n
    return DirectedGraph(n=doc["n"], edges=tuple(edges))


def dump_graph(g: DirectedGraph) -> str:
    """Serialize a graph back to document form (inverse of load_graph)."""
    doc = {
        "n": g.n,
        "edges": [{"from": u, "to": v, "length": w} for u, v, w in g.edges],
    }
    return json.dumps(doc, indent=2)


def path_length(g: DirectedGraph, p: Sequence[int]) -> float:
    """Total length of a path given as node ids; +inf if any step is not an edge.

    A single-node path has length 0.
    """
    p = tuple(p)
    if len(p) == 0:
        raise ValueError("path must contain at least one node")
    for x in p:
        if not (1 <= x <= g.n):
            raise ValueError(f"node {x} out of range 1..{g.n}")
    return float(path_lengths(g, np.array([p], dtype=np.intp))[0])


def path_lengths(g: DirectedGraph, paths: np.ndarray) -> np.ndarray:
    """Length of each row of a (P, N+1) array of node ids in 1..n, summed
    from 0.0 in step order; +inf for a row with a step that is not an edge."""
    ids = g.edge_index.find(paths[:, :-1] - 1, paths[:, 1:] - 1)
    lengths = np.append(g.lengths, np.inf)  # id -1, no edge, reads inf
    total = np.zeros(len(paths))
    for col in ids.T:  # in step order: np.sum (pairwise) would change the last bit
        total += lengths[col]
    return total


def step_reach(edges: EdgeIndex, supports, ends: np.ndarray) -> np.ndarray:
    """Which nodes reach the end set along per-step edge supports.

    `supports[t]` is the boolean support of step t over the E edges of
    `edges` (an (N, E) array or a sequence of E-vectors); `ends` is a
    boolean vector over nodes, or an n x k matrix holding k end sets as
    columns.  Returns an array shaped like `ends`, true at row v-1 when some
    walk from v along steps 0..N-1 ends in the end set (of that column),
    from a backward pass that keeps two levels at a time.  Only support is
    used, never weights, so no magnitude can underflow.
    """
    ends = np.asarray(ends, dtype=bool)
    ok = ends if ends.ndim == 2 else ends[:, None]
    for S in reversed(supports):
        ok = edges.reduce(np.logical_or, np.asarray(S, dtype=bool)[:, None] & ok[edges.dst], False)
    return ok.reshape(ends.shape)


def path_sum_range(edges: EdgeIndex, supports, values: np.ndarray,
                   target: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(lo, hi): lo[t][v-1] and hi[t][v-1] are the min and max of
    sum_{s>=t} values[s, e_s] over the paths e_t..e_{N-1} from node v into
    `target` whose step s runs along an edge in supports[s]; (+inf, -inf) at
    a node with no such path.  Each is a list of N+1 node vectors, and
    lo[N], hi[N] are 0 at `target`.

    One min-plus and one max-plus pass backward from `target` (1-based),
    each taken only over edges whose head still reaches it (lo < inf or
    hi > -inf there, for values whose sums form no NaN), so values off
    those edges (-inf, say) never meet an infinite tail.
    """
    n = edges.n
    if not (1 <= target <= n):
        raise ValueError(f"target node {target} out of range 1..{n}")
    ends = np.arange(1, n + 1) == target
    lo, hi = [np.where(ends, 0.0, np.inf)], [np.where(ends, 0.0, -np.inf)]
    for t in range(len(supports) - 1, -1, -1):
        reach = (lo[-1] < np.inf) | (hi[-1] > -np.inf)
        live = np.asarray(supports[t], dtype=bool) & reach[edges.dst]
        step = np.where(live, values[t], 0.0)
        for out, ufunc, none in ((lo, np.minimum, np.inf), (hi, np.maximum, -np.inf)):
            out.append(edges.reduce(ufunc, np.where(live, step + out[-1][edges.dst], none), none))
    return lo[::-1], hi[::-1]


def require_routes(block: np.ndarray, supp0: np.ndarray, suppN: np.ndarray,
                   N: int) -> None:
    """Raise InfeasibleError naming the first supported endpoint pair with no route.

    block[a, b] tells whether the a-th node of `supp0` is joined to the b-th
    node of `suppN` by an N-step route with positive weight at every step.
    """
    if block.all():
        return
    a, b = np.argwhere(~block)[0]
    i = int(np.flatnonzero(supp0)[a]) + 1
    j = int(np.flatnonzero(suppN)[b]) + 1
    raise InfeasibleError(
        f"no {N}-step route with positive prior mass from node {i} to node {j}"
    )


def step_paths(edges: EdgeIndex, supports, source: int | None = None,
               target: int | None = None, cap: int = PATH_CAP) -> np.ndarray:
    """All paths x_0..x_N whose step t runs along an edge in supports[t], as
    a (P, N+1) intp array of 1-based node ids, one path per row.

    N is len(supports); `supports` is as for step_reach.  Paths are
    optionally pinned at one or both endpoints and come back in
    lexicographic node order.  A float64 backward count of the paths from
    each node (exact below 2**53, large or inf past it, never wrapped)
    refuses a family of more than `cap` paths with EnumerationCapError
    before any path is built; a negative cap raises ValueError.  The
    family is then built one level at a time: each row is repeated once
    per live out-edge of its last node (one whose head still has a
    positive count), taken in EdgeIndex.order, so no row dies.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = edges.n
    for name, x in (("source", source), ("target", target)):
        if x is not None and not (1 <= x <= n):
            raise ValueError(f"{name} node {x} out of range 1..{n}")
    counts = [np.ones(n) if target is None else (np.arange(1, n + 1) == target) * 1.0]
    starts = np.arange(n) if source is None else np.array([source - 1])
    with np.errstate(over="ignore"):
        for S in reversed(supports):
            step = np.where(np.asarray(S, dtype=bool), counts[-1][edges.dst], 0.0)
            counts.append(np.bincount(edges.src, step, minlength=n))
        if float(counts[-1][starts].sum()) > cap:  # exact for any int cap
            raise EnumerationCapError(f"more than {cap} feasible paths; refusing to enumerate")
    counts.reverse()
    paths = starts[counts[0][starts] > 0.0][:, None]
    src, dst = edges.src[edges.order], edges.dst[edges.order]
    for t, S in enumerate(supports):
        live = np.flatnonzero(np.asarray(S, dtype=bool)[edges.order] & (counts[t + 1][dst] > 0.0))
        deg = np.bincount(src[live], minlength=n)
        first = np.cumsum(deg) - deg  # v's live out-edges start at live[first[v]]
        last = paths[:, -1]
        reps = deg[last]
        # row r's copies take live[first[last[r]]:][:reps[r]] in turn
        at = np.repeat(first[last] - np.cumsum(reps) + reps, reps)
        paths = np.column_stack((np.repeat(paths, reps, axis=0),
                                 dst[live[at + np.arange(at.size)]]))
    return paths + 1


def enumerate_feasible_paths(
    g: DirectedGraph,
    N: int,
    source: int | None = None,
    target: int | None = None,
    cap: int = PATH_CAP,
) -> list[Path]:
    """All N-step paths along edges, optionally pinned at one or both endpoints,
    as tuples in lexicographic node order (step_paths' rows).

    Exceeding `cap` paths raises EnumerationCapError rather than truncating.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return list(map(tuple, step_paths(g.edge_index, np.ones((N, len(g.edges)), dtype=bool),
                                      source, target, cap).tolist()))


def path_counts(g: DirectedGraph, N: int, ends=None) -> np.ndarray:
    """Number of N-step paths from every node into the boolean node set
    `ends` (an n-vector; every node if None).

    Counted by one backward recursion over the edge list in Python ints (an
    object array), so counts stay exact past 2**64.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    ends = np.ones(g.n, dtype=bool) if ends is None else np.asarray(ends, dtype=bool)
    if ends.shape != (g.n,):
        raise ValueError(f"ends must have shape ({g.n},), got {ends.shape}")
    counts = ends.astype(int).astype(object)
    edges = g.edge_index
    for _ in range(N):
        counts = edges.reduce(np.add, counts[edges.dst], empty=0)
    return counts


def count_feasible_paths(g: DirectedGraph, N: int, source: int | None = None,
                         target: int | None = None) -> int:
    """Number of N-step feasible paths, computed by counting DP (no enumeration;
    no command calls it, and perfbench/trace_child.py traces it by this name)."""
    for name, x in (("source", source), ("target", target)):
        if x is not None and not (1 <= x <= g.n):
            raise ValueError(f"{name} node {x} out of range 1..{g.n}")
    counts = path_counts(g, N, None if target is None else np.arange(1, g.n + 1) == target)
    return int(counts[source - 1] if source is not None else counts.sum())


def distance_rows(g: DirectedGraph):
    """Yield, for s = 1..n in turn, the directed distances from s to every
    node by Dijkstra on the edge list: 0 at s, +inf where unreachable."""
    n, edges = g.n, g.edge_index
    dst, lengths = edges.dst.tolist(), g.lengths.tolist()
    # (target, length) per node, by ascending target
    succ = [[(dst[e], lengths[e]) for e in edges.out_edges(u).tolist()] for u in range(n)]
    for s in range(n):
        dist = [float("inf")] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in succ[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        yield np.array(dist)


def g9_network(l79: float = 1.0) -> DirectedGraph:
    """The bundled 9-node benchmark network.

    All edges have length 1 except the terminal self-loop 9 -> 9 (length 0)
    and optionally the 7 -> 9 edge, whose length `l79` the long-edge variant
    sets to 2.  Node 9 is absorbing: its only outgoing edge is the self-loop.
    """
    edges = [
        (1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0),
        (2, 3, 1.0), (2, 5, 1.0), (2, 7, 1.0),
        (3, 4, 1.0), (3, 8, 1.0),
        (4, 8, 1.0),
        (5, 6, 1.0), (5, 7, 1.0),
        (6, 9, 1.0), (7, 9, float(l79)), (8, 9, 1.0),
        (9, 9, 0.0),
    ]
    return DirectedGraph(n=9, edges=tuple(edges))
