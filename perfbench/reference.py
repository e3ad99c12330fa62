"""Independent reference for delta-pinned Boltzmann bridges.

For a source s, a target t, a horizon N and a temperature T, the bridge
over the prior exp(-length/T) pinned by point masses at s and t is the
Boltzmann measure on the N-step s->t paths, p(path) = exp(-l/T) / Z_st.
Everything the benchmark checks follows from a few dynamic programmes over
the edge list:

    L   = E[l]                     S = log Z_st + L / T
    Var = E[l^2] - L^2             F = L - T S = -T log Z_st
    mass(path) = exp(-l_path / T - log Z_st)

The forward recursions run in log space with a logsumexp over in-edges, so
no temperature underflows.  Path counts are exact Python integers.  Only
numpy and the standard library are used; nothing here imports netbridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EdgeList:
    """A directed graph as parallel edge arrays; nodes are 1..n."""

    n: int
    src: np.ndarray  # 0-based tails
    dst: np.ndarray  # 0-based heads
    length: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "EdgeList":
        edges = list(edges)
        src = np.array([u - 1 for u, _, _ in edges], dtype=np.int64)
        dst = np.array([v - 1 for _, v, _ in edges], dtype=np.int64)
        length = np.array([float(w) for _, _, w in edges])
        return cls(n, src, dst, length)


@dataclass(frozen=True)
class BridgeMoments:
    """Reference quantities of the s->t bridge at temperature T."""

    temperature: float
    log_z: float
    mean: float
    variance: float

    @property
    def entropy(self) -> float:
        return self.log_z + self.mean / self.temperature

    @property
    def free_energy(self) -> float:
        return -self.temperature * self.log_z

    def log_mass(self, path_length: float) -> float:
        return -path_length / self.temperature - self.log_z


def _segment_logsumexp(n: int, dst: np.ndarray, vals: np.ndarray) -> np.ndarray:
    top = np.full(n, -np.inf)
    np.maximum.at(top, dst, vals)
    shift = np.where(np.isfinite(top), top, 0.0)
    total = np.bincount(dst, np.exp(vals - shift[dst]), minlength=n)
    with np.errstate(divide="ignore"):
        return np.where(total > 0.0, shift + np.log(total), -np.inf)


def bridge_moments(g: EdgeList, s: int, t: int, N: int, T: float) -> BridgeMoments:
    """log Z_st, mean and variance of the path length under exp(-l/T)/Z_st.

    Each node carries the log mass of the paths reaching it and the mean
    and variance of their lengths; a step combines in-edges by the law of
    total variance, which avoids the cancellation of E[l^2] - E[l]^2.
    """
    log_m = np.full(g.n, -np.inf)
    log_m[s - 1] = 0.0
    mean = np.zeros(g.n)
    var = np.zeros(g.n)
    for _ in range(N):
        vals = log_m[g.src] - g.length / T
        new_log_m = _segment_logsumexp(g.n, g.dst, vals)
        head = new_log_m[g.dst]
        live = np.isfinite(vals) & np.isfinite(head)
        with np.errstate(invalid="ignore"):
            w = np.where(live, np.exp(np.where(live, vals - head, 0.0)), 0.0)
        through = mean[g.src] + g.length
        new_mean = np.bincount(g.dst, w * through, minlength=g.n)
        dev = through - new_mean[g.dst]
        var = np.bincount(g.dst, w * (var[g.src] + dev * dev), minlength=g.n)
        log_m, mean = new_log_m, new_mean
    if not np.isfinite(log_m[t - 1]):
        raise ValueError(f"no {N}-step path from node {s} to node {t}")
    return BridgeMoments(float(T), float(log_m[t - 1]), float(mean[t - 1]),
                         float(max(var[t - 1], 0.0)))


def path_counts_from(g: EdgeList, s: int, N: int) -> list[int]:
    """Exact number of N-step paths from s to every node (Python integers)."""
    count = [0] * g.n
    count[s - 1] = 1
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    for _ in range(N):
        nxt = [0] * g.n
        for u, v in edges:
            c = count[u]
            if c:
                nxt[v] += c
        count = nxt
    return count


def path_count(g: EdgeList, s: int, t: int, N: int) -> int:
    return path_counts_from(g, s, N)[t - 1]


def reachable_pairs(g: EdgeList, N: int) -> int:
    """Number of ordered pairs (i, j) joined by at least one N-step path."""
    reach = np.eye(g.n, dtype=bool)
    for _ in range(N):
        nxt = np.zeros((g.n, g.n), dtype=bool)
        np.logical_or.at(nxt.T, g.dst, reach.T[g.src])  # nxt[:, v] |= reach[:, u]
        reach = nxt
    return int(reach.sum())


def minimal_lengths_from(g: EdgeList, s: int, N: int) -> np.ndarray:
    """Minimal N-step length from s to every node; +inf where none exists."""
    dist = np.full(g.n, np.inf)
    dist[s - 1] = 0.0
    for _ in range(N):
        nxt = np.full(g.n, np.inf)
        np.minimum.at(nxt, g.dst, dist[g.src] + g.length)
        dist = nxt
    return dist


def minimal_path(g: EdgeList, s: int, t: int, N: int) -> tuple[float, tuple[int, ...]]:
    """Minimal N-step s->t length and the lexicographically least path attaining it."""
    to_t = [np.full(g.n, np.inf) for _ in range(N + 1)]
    to_t[N][t - 1] = 0.0
    for k in range(N - 1, -1, -1):
        np.minimum.at(to_t[k], g.src, to_t[k + 1][g.dst] + g.length)
    best = float(to_t[0][s - 1])
    if not math.isfinite(best):
        raise ValueError(f"no {N}-step path from node {s} to node {t}")
    # The minimizing edge reproduces to_t[k][u] bit for bit, so walking
    # forward along exact equalities, smallest head first, stays minimal.
    path = [s]
    for k in range(N):
        u = path[-1] - 1
        out = np.flatnonzero(g.src == u)
        out = out[np.argsort(g.dst[out])]
        hit = out[g.length[out] + to_t[k + 1][g.dst[out]] == to_t[k][u]]
        path.append(int(g.dst[hit[0]]) + 1)
    return best, tuple(path)


def family_mean_length(g: EdgeList, s: int, t: int, N: int) -> float:
    """Plain average length over all N-step s->t paths (the T -> infinity limit)."""
    count = np.zeros(g.n)
    total = np.zeros(g.n)
    count[s - 1] = 1.0
    for _ in range(N):
        c = count[g.src]
        total = np.bincount(g.dst, total[g.src] + g.length * c, minlength=g.n)
        count = np.bincount(g.dst, c, minlength=g.n)
    if count[t - 1] == 0.0:
        raise ValueError(f"no {N}-step path from node {s} to node {t}")
    return float(total[t - 1] / count[t - 1])


def path_length(g: EdgeList, path) -> float:
    lookup = {(int(u), int(v)): float(w) for u, v, w in zip(g.src, g.dst, g.length)}
    return sum(lookup[(a - 1, b - 1)] for a, b in zip(path[:-1], path[1:]))
