"""Functionals on path measures: length, entropy, free energy, graph efficiency.

Length/entropy accept either an explicit path measure or a solved bridge;
for a bridge they use the Markov chain-rule forms, which tests cross-check
against direct enumeration.  Entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import BridgeSolution
from .graph import PATH_CAP, DirectedGraph, Path, path_length, shortest_path_matrix, \
    step_paths
from .prior import PriorChain, check_temperature, log_path_masses


@dataclass(frozen=True)
class PathMeasure:
    """A nonnegative measure on N-step paths, stored as a path -> mass mapping."""

    N: int
    masses: dict[Path, float]

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")
        if not self.masses:
            raise ValueError("a path measure needs at least one path")
        clean: dict[Path, float] = {}
        for p, m in self.masses.items():
            p = tuple(int(x) for x in p)
            if len(p) != self.N + 1:
                raise ValueError(f"path {p} has {len(p) - 1} steps, expected {self.N}")
            m = float(m)
            if not np.isfinite(m) or m < 0:
                raise ValueError(f"mass of {p} must be finite and >= 0, got {m}")
            if p in clean:
                raise ValueError(f"duplicate path {p}")
            clean[p] = m
        object.__setattr__(self, "masses", clean)

    def total(self) -> float:
        return float(sum(self.masses.values()))

    def normalized(self) -> "PathMeasure":
        z = self.total()
        if z <= 0:
            raise ValueError("cannot normalize a zero measure")
        return PathMeasure(self.N, {p: m / z for p, m in self.masses.items()})


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
    masses = np.exp(log_path_masses(chain, paths)).tolist()
    return PathMeasure(chain.N, {p: m for p, m in zip(paths, masses) if m > 0.0})


def _check_probability(P: PathMeasure) -> None:
    z = P.total()
    if abs(z - 1.0) > 1e-9:
        raise ValueError(f"expected a probability measure, total mass is {z!r}")


@dataclass(frozen=True)
class EfficiencyReport:
    """Average length, path entropy and free energy of one policy at one T."""

    average_length: float
    entropy: float
    free_energy: float
    temperature: float

    def __post_init__(self):
        lhs = self.free_energy
        rhs = self.average_length - self.temperature * self.entropy
        if np.isfinite(lhs) and np.isfinite(rhs) and abs(lhs - rhs) > 1e-10:
            raise ValueError(f"free energy identity violated: {lhs} vs {rhs}")


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
        total = 0.0
        for p, m in measure.masses.items():
            if m == 0.0:
                continue
            l = path_length(g, p)
            if not np.isfinite(l):
                return float("inf")
            total += m * l
        return total
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
        m = np.array([x for x in measure.masses.values() if x > 0.0])
        return float(-(m * np.log(m)).sum()) if m.size else 0.0
    raise TypeError(f"unsupported measure type: {type(measure).__name__}")


def _vector_entropy(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


def relative_entropy(P: PathMeasure, Q) -> float:
    """D(P || Q) = sum P ln(P/Q); +inf if P has mass outside Q's support.

    Q may be a PathMeasure or a PriorChain and need not be normalized, in
    which case the value can be negative.  The sum runs over log masses,
    so a prior whose path masses underflow still gives a finite value.
    """
    _check_probability(P)
    if not isinstance(Q, (PriorChain, PathMeasure)):
        raise TypeError(f"unsupported reference measure type: {type(Q).__name__}")
    if Q.N != P.N:
        raise ValueError(f"horizon mismatch: P has N={P.N}, Q has N={Q.N}")
    paths = [p for p, m in P.masses.items() if m > 0.0]
    m = np.array([P.masses[p] for p in paths])
    if isinstance(Q, PriorChain):
        log_q = log_path_masses(Q, paths)
    else:
        with np.errstate(divide="ignore"):
            log_q = np.log([Q.masses.get(p, 0.0) for p in paths])
    if np.any(log_q == -np.inf):
        return float("inf")
    return float((m * (np.log(m) - log_q)).sum())


def free_energy(measure, T: float, g: DirectedGraph) -> EfficiencyReport:
    """Report L, S and F = L - T*S for a policy at temperature T."""
    T = check_temperature(T)
    L = average_path_length(measure, g)
    S = entropy(measure)
    return EfficiencyReport(
        average_length=L, entropy=S, free_energy=L - T * S, temperature=T,
    )


def total_variation(P: PathMeasure, Q: PathMeasure) -> float:
    """Total variation distance 0.5 * sum |P - Q| over the union of supports."""
    if P.N != Q.N:
        raise ValueError(f"horizon mismatch: {P.N} vs {Q.N}")
    keys = set(P.masses) | set(Q.masses)
    return 0.5 * float(sum(abs(P.masses.get(p, 0.0) - Q.masses.get(p, 0.0))
                           for p in keys))


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
    D = shortest_path_matrix(g)
    off = ~np.eye(g.n, dtype=bool)
    d = D[off]
    pairs = g.n * (g.n - 1)
    char = float(d.sum() / pairs) if np.all(np.isfinite(d)) else float("inf")
    finite = d[np.isfinite(d)]
    reach = float(finite.mean()) if finite.size else float("inf")
    if np.any(np.isfinite(d) & (d == 0.0)):
        eff = float("inf")  # zero-length route between distinct nodes
    else:
        inv = np.zeros_like(d)
        pos = np.isfinite(d)
        inv[pos] = 1.0 / d[pos]
        eff = float(inv.sum() / pairs)
    return GraphEfficiencyStats(
        n=g.n, characteristic_length=char,
        reachable_pair_average=reach, global_efficiency=eff,
    )
