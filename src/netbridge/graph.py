"""Directed graphs with edge lengths: loading, path enumeration, distances.

Nodes are numbered 1..n in documents and in path tuples; matrix
representations are 0-indexed internally.  An absent edge has infinite
length, which is always computed on demand and never stored.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, GraphFormatError, InfeasibleError

PATH_CAP = 1_000_000

Path = tuple[int, ...]


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph with nonnegative edge lengths.

    Self-loops are allowed, duplicate edges are not.  `edges` holds
    (from_node, to_node, length) triples with 1-based node ids.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise GraphFormatError(f"n must be a positive integer, got {self.n!r}")
        seen = set()
        norm = []
        for k, edge in enumerate(self.edges):
            try:
                u, v, length = edge
            except (TypeError, ValueError):
                raise GraphFormatError(f"edges[{k}]: expected (from, to, length), got {edge!r}")
            if not isinstance(u, int) or not isinstance(v, int):
                raise GraphFormatError(f"edges[{k}]: node ids must be integers, got {edge!r}")
            if not (1 <= u <= self.n) or not (1 <= v <= self.n):
                raise GraphFormatError(f"edges[{k}]: node out of range 1..{self.n}: ({u}, {v})")
            length = float(length)
            if not np.isfinite(length) or length < 0.0:
                raise GraphFormatError(f"edges[{k}]: length must be finite and >= 0, got {length!r}")
            if (u, v) in seen:
                raise GraphFormatError(f"edges[{k}]: duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v, length))
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def length_matrix(self) -> np.ndarray:
        """n x n matrix of edge lengths, +inf where there is no edge."""
        L = np.full((self.n, self.n), np.inf)
        for u, v, w in self.edges:
            L[u - 1, v - 1] = w
        return L

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Boolean n x n edge-presence matrix."""
        return np.isfinite(self.length_matrix)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """successors[u-1] is the sorted tuple of targets of edges out of u."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            out[u - 1].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    def has_edge(self, u: int, v: int) -> bool:
        return np.isfinite(self.length_matrix[u - 1, v - 1])

    def edge_length(self, u: int, v: int) -> float:
        """Length of edge u -> v; +inf when the edge is absent."""
        return float(self.length_matrix[u - 1, v - 1])


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
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphFormatError(f"'n' must be a positive integer, got {n!r}")
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
        u, v, length = item["from"], item["to"], item["length"]
        if not isinstance(u, int) or isinstance(u, bool):
            raise GraphFormatError(f"edges[{k}]: 'from' must be an integer, got {u!r}")
        if not isinstance(v, int) or isinstance(v, bool):
            raise GraphFormatError(f"edges[{k}]: 'to' must be an integer, got {v!r}")
        if isinstance(length, bool) or not isinstance(length, (int, float)):
            raise GraphFormatError(f"edges[{k}]: 'length' must be a number, got {length!r}")
        edges.append((u, v, float(length)))
    return DirectedGraph(n=n, edges=tuple(edges))


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
    total = 0.0
    for a, b in zip(p[:-1], p[1:]):
        w = g.length_matrix[a - 1, b - 1]
        if not np.isfinite(w):
            return float("inf")
        total += w
    return total


def step_reach(supports: Sequence[np.ndarray], ends: np.ndarray) -> list[np.ndarray]:
    """Which nodes reach the end set along per-step supports.

    `supports[t]` is the boolean n x n support of step t; `ends` is a
    boolean vector over nodes, or an n x k matrix holding k end sets as
    columns.  Returns ok with ok[t][v-1] true when some walk from v along
    steps t..N-1 ends in the end set; ok[N] is `ends` itself.  Only
    support is used, never weights, so no magnitude can underflow.
    """
    ok = [np.asarray(ends, dtype=bool)]
    for S in reversed(supports):
        # 0/1 products count walks, at most n per entry: exact in float64
        ok.append(S.astype(float) @ ok[-1].astype(float) > 0.0)
    ok.reverse()
    return ok


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


def step_paths(n: int, supports: Sequence[np.ndarray], source: int | None = None,
               target: int | None = None, cap: int = PATH_CAP) -> list[Path]:
    """All paths x_0..x_N with supports[t][x_t - 1, x_(t+1) - 1] true at every step.

    N is len(supports).  Paths are optionally pinned at one or both
    endpoints and come back in lexicographic node order.  The depth-first
    walk enters only successors that step_reach says can still finish, so
    no branch dies.  Exceeding `cap` paths raises EnumerationCapError
    rather than truncating.
    """
    for name, x in (("source", source), ("target", target)):
        if x is not None and not (1 <= x <= n):
            raise ValueError(f"{name} node {x} out of range 1..{n}")
    N = len(supports)
    ends = np.ones(n, dtype=bool) if target is None else np.arange(1, n + 1) == target
    ok = step_reach(supports, ends)
    live: dict[tuple[int, int], list[int]] = {}  # (t, v) -> successors that finish
    out: list[Path] = []
    stack: list[int] = []

    def visit(v: int, t: int):
        stack.append(v)
        if t == N:
            if len(out) >= cap:
                raise EnumerationCapError(
                    f"more than {cap} feasible paths; refusing to enumerate"
                )
            out.append(tuple(stack))
        else:
            nexts = live.get((t, v))
            if nexts is None:
                nexts = (np.flatnonzero(supports[t][v - 1] & ok[t + 1]) + 1).tolist()
                live[(t, v)] = nexts
            for w in nexts:
                visit(w, t + 1)
        stack.pop()

    for s in range(1, n + 1) if source is None else [source]:
        if ok[0][s - 1]:
            visit(s, 0)
    return out


def enumerate_feasible_paths(
    g: DirectedGraph,
    N: int,
    source: int | None = None,
    target: int | None = None,
    cap: int = PATH_CAP,
) -> list[Path]:
    """All N-step paths along edges, optionally pinned at one or both endpoints.

    Paths are returned in lexicographic node order (see step_paths).
    Exceeding `cap` paths raises EnumerationCapError rather than truncating.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return step_paths(g.n, (g.adjacency,) * N, source, target, cap)


def count_feasible_paths(g: DirectedGraph, N: int, source: int | None = None,
                         target: int | None = None) -> int:
    """Number of N-step feasible paths, computed by counting DP (no enumeration)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    A = g.adjacency.astype(object)  # exact integer counts, no overflow
    vec = np.ones(g.n, dtype=object)
    if target is not None:
        vec = np.zeros(g.n, dtype=object)
        vec[target - 1] = 1
    for _ in range(N):
        vec = A @ vec
    if source is not None:
        return int(vec[source - 1])
    return int(vec.sum())


def shortest_path_matrix(g: DirectedGraph) -> np.ndarray:
    """All-pairs directed distances d[i-1, j-1]; d_ii = 0, +inf when unreachable."""
    n = g.n
    L = g.length_matrix
    succ = g.successors
    D = np.full((n, n), np.inf)
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v1 in succ[u]:
                v = v1 - 1
                nd = d + L[u, v]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        D[s] = dist
        D[s, s] = 0.0
    return D


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
