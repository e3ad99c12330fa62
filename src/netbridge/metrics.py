"""Functionals on path measures: length, entropy, graph efficiency.

Length/entropy accept either an explicit path measure or a solved bridge;
for a bridge they use the Markov chain-rule forms, which tests cross-check
against direct enumeration.  An explicit measure is two arrays, paths
(P, N+1) and masses (P,), read by array expressions.  Entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import BridgeSolution
from .graph import PATH_CAP, DirectedGraph, distance_rows, path_lengths, step_paths
from .prior import PriorChain, log_path_masses


@dataclass(frozen=True, eq=False)
class PathMeasure:
    """A nonnegative measure on N-step paths: row k of `paths`, a (P, N+1)
    array of node ids, carries mass masses[k].  P >= 1 and rows are distinct."""

    N: int
    paths: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        N, paths, m = self.N, np.asarray(self.paths), np.asarray(self.masses, dtype=float)
        if N < 0:
            raise ValueError(f"N must be >= 0, got {N}")
        if paths.ndim == 0 or len(paths) == 0:
            raise ValueError("a path measure needs at least one path")
        if (paths.shape[1:] != (N + 1,) or m.shape != paths.shape[:1]
                or paths.dtype.kind not in "iu" or paths.min() < 1):
            raise ValueError(f"need a (P, {N + 1}) array of node ids >= 1 and P masses, "
                             f"got {paths.dtype} paths {paths.shape}, masses {m.shape}")
        for k in np.flatnonzero(~(np.isfinite(m) & (m >= 0)))[:1]:
            raise ValueError(f"mass of {tuple(paths[k].tolist())} must be finite and >= 0, "
                             f"got {m[k]}")
        _, first, count = np.unique(paths, axis=0, return_index=True, return_counts=True)
        for k in first[count > 1][:1]:
            raise ValueError(f"duplicate path {tuple(paths[k].tolist())}")
        object.__setattr__(self, "paths", paths.astype(np.intp, copy=False))
        object.__setattr__(self, "masses", m)

    def total(self) -> float:
        return float(self.masses.sum())


def measure_from_chain(chain: PriorChain, cap: int = PATH_CAP) -> PathMeasure:
    """Expand a chain into its explicit (possibly unnormalized) path measure.

    Keeps every path with positive mass; a solved bridge is such a chain.
    Enumeration starts only where mu0 has mass, and more than `cap`
    candidate paths raise EnumerationCapError.
    """
    supports = chain.support  # a fresh array, narrowed in place
    if chain.N:
        supports[0] &= chain.mu0[chain.edges.src] > 0.0
    paths = step_paths(chain.edges, supports, cap=cap)
    masses = np.exp(log_path_masses(chain, paths))
    keep = masses > 0.0
    return PathMeasure(chain.N, paths[keep], masses[keep])


def _check_probability(P: PathMeasure) -> None:
    """Raise ValueError unless P's total mass is 1 within 1e-9 (entropy's
    precondition on an explicit measure)."""
    z = P.total()
    if abs(z - 1.0) > 1e-9:
        raise ValueError(f"expected a probability measure, total mass is {z!r}")


def average_path_length(measure, g: DirectedGraph) -> float:
    """Expected total path length; +inf if positive mass sits on an infeasible path.

    For a BridgeSolution this is the chain form
    sum_t sum_e marginal_t(src_e) * Pi_t(e) * l_e over the solution's edges.
    """
    if isinstance(measure, BridgeSolution):
        lengths = g.lengths_on(measure.edges)
        W = measure.marginals[:-1][:, measure.edges.src] * measure.transitions
        mask = W > 0.0
        if np.any(mask & ~np.isfinite(lengths)):
            return float("inf")
        return float((W[mask] * np.broadcast_to(lengths, W.shape)[mask]).sum())
    if isinstance(measure, PathMeasure):
        pos = measure.masses > 0.0
        paths = measure.paths[pos]
        for x in paths[paths > g.n][:1]:
            raise ValueError(f"node {x} out of range 1..{g.n}")
        lengths = path_lengths(g, paths)
        if np.isinf(lengths).any():
            return float("inf")
        # summed in path order, as a left fold from 0.0
        return float(np.cumsum(measure.masses[pos] * lengths)[-1]) if pos.any() else 0.0
    raise TypeError(f"unsupported measure type: {type(measure).__name__}")


def entropy(measure) -> float:
    """Path-space Shannon entropy in nats; requires a probability measure.

    For a BridgeSolution the chain rule applies: entropy of the initial
    marginal plus the marginal-weighted entropies of the transition rows.
    """
    if isinstance(measure, BridgeSolution):
        P = measure.transitions
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(P > 0.0, -P * np.log(P), 0.0)
        mu = measure.marginals[:-1][:, measure.edges.src]
        return _vector_entropy(measure.marginals[0]) + float((mu * h).sum())
    if isinstance(measure, PathMeasure):
        _check_probability(measure)
        return _vector_entropy(measure.masses)
    raise TypeError(f"unsupported measure type: {type(measure).__name__}")


def _vector_entropy(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


@dataclass(frozen=True)
class GraphEfficiencyStats:
    """Distance-based connectivity summary of a directed graph.

    All quantities run over ordered pairs i != j with directed distances;
    nothing is symmetrized.  characteristic_length is +inf as soon as one
    pair is unreachable; reachable_pair_average restricts the same mean to
    reachable pairs.  global_efficiency averages 1/d (zero for unreachable
    pairs) and is normalized by the ideal value 1 of the complete graph with
    unit lengths, so it already equals the relative efficiency.
    """

    n: int
    characteristic_length: float
    reachable_pair_average: float
    global_efficiency: float


def graph_efficiency_stats(g: DirectedGraph) -> GraphEfficiencyStats:
    if g.n < 2:
        raise ValueError("efficiency statistics need at least two nodes")
    # one Dijkstra row at a time; fsum keeps the sums over i != j exact
    count, sums, inverse = 0, [], []
    for s, row in enumerate(distance_rows(g)):
        d = np.delete(row, s)
        d = d[np.isfinite(d)]
        count += d.size
        sums.append(math.fsum(d.tolist()))
        with np.errstate(divide="ignore"):  # a zero-length route: 1/d = inf
            inverse.append(math.fsum((1.0 / d).tolist()))
    pairs, total = g.n * (g.n - 1), math.fsum(sums)
    return GraphEfficiencyStats(
        n=g.n, characteristic_length=total / pairs if count == pairs else float("inf"),
        reachable_pair_average=total / count if count else float("inf"),
        global_efficiency=math.fsum(inverse) / pairs)
