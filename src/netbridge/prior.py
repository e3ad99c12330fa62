"""Reference path measures: Boltzmann chains and the Ruelle-Bowen chain.

A prior is a Markov chain on the graph's nodes given by an initial
distribution and one log weight per edge and step, stored as an (N, E)
array over an EdgeIndex; a time-homogeneous chain stores its one row once
and broadcasts it over the steps.  Log weights keep every magnitude
representable at any temperature (a Boltzmann weight is just -length/T),
and -inf marks exactly the edges outside a step's support.  The Perron
power iteration runs on linear edge weights with bincount products; no
dense n x n matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numeric import hilbert_distance
from .errors import ConvergenceError, InfeasibleError
from .graph import DirectedGraph, EdgeIndex

PERRON_TOL = 1e-12
PERRON_MAX_ITER = 100_000


@dataclass(frozen=True)
class PriorChain:
    """Markov reference measure on N-step paths, stored on an edge list.

    log_weights[t, e] is the log weight of a step along edge e of `edges`
    at step t, -inf where step t has no weight on that edge.  mu0 must be
    nonnegative with positive total mass.  (Strict positivity is the
    standard assumption but is deliberately not enforced: the invariant
    measure of the Ruelle-Bowen chain on a graph with an absorbing node is
    a point mass, and none of the bridge recursions divide by mu0.)
    """

    edges: EdgeIndex
    log_weights: np.ndarray
    mu0: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.log_weights, dtype=float)
        E = self.edges.E
        if W.ndim != 2 or W.shape[1] != E:
            raise ValueError(f"log_weights must be N x {E}, got shape {W.shape}")
        if not np.all(W < np.inf):
            raise ValueError("log_weights must be finite or -inf")
        n = self.edges.n
        mu0 = np.asarray(self.mu0, dtype=float)
        if mu0.shape != (n,):
            raise ValueError(f"mu0 must have length {n}, got shape {mu0.shape}")
        if np.any(mu0 < 0) or not np.all(np.isfinite(mu0)) or mu0.sum() <= 0:
            raise ValueError("mu0 must be nonnegative with positive total mass")
        object.__setattr__(self, "log_weights", W)
        object.__setattr__(self, "mu0", mu0)

    @property
    def N(self) -> int:
        return self.log_weights.shape[0]

    @property
    def n(self) -> int:
        return self.edges.n

    @property
    def support(self) -> np.ndarray:
        """(N, E) boolean: the edges with positive weight at each step."""
        return self.log_weights > -np.inf


@dataclass(frozen=True)
class PerronTriple:
    """Dominant eigenvalue with left/right eigenvectors, sum(u * v) = 1."""

    lam: float
    u: np.ndarray
    v: np.ndarray
    iterations: int = 0

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"dominant eigenvalue must be positive, got {self.lam}")


def check_temperature(T: float) -> float:
    T = float(T)
    if not np.isfinite(T) or T <= 0:
        raise ValueError(f"temperature must be a positive finite number, got {T}")
    return T


def _log_boltzmann_weights(g: DirectedGraph, T: float) -> np.ndarray:
    """Edge log weights -l_e / T in edge order.

    A T so small that some -l_e / T overflows is an input error: the edge
    would silently leave the support and a feasible instance would read as
    infeasible.
    """
    if not g.edges:
        raise InfeasibleError("graph has no edges")
    with np.errstate(over="ignore"):
        lw = -g.lengths / T
    for e in np.flatnonzero(~np.isfinite(lw))[:1]:
        u, v, length = g.edges[e]
        raise ValueError(f"temperature {T:g} is too low for edge {u} -> {v} "
                         f"(length {length:g}): -length/T overflows")
    return lw


def boltzmann_prior(g: DirectedGraph, T: float, N: int) -> PriorChain:
    """Time-homogeneous chain weighting each edge by exp(-length / T).

    Path mass is proportional to exp(-l(path) / T).  The initial distribution
    is uniform (1/n); the bridge is invariant under positive rescaling of
    mu0, so reported relative entropies against this prior differ from those
    against the probability-normalized Boltzmann measure by ln Z - ln(1/n)
    only.  The log weights are one row over the graph's edges, broadcast
    (not copied) over the N steps.
    """
    check_temperature(T)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    mu0 = np.full(g.n, 1.0 / g.n)
    if N == 0:
        return PriorChain(g.edge_index, np.zeros((0, len(g.edges))), mu0)
    lw = _log_boltzmann_weights(g, T)
    return PriorChain(g.edge_index, np.broadcast_to(lw, (N, lw.size)), mu0)


def log_path_masses(chain: PriorChain, paths: Sequence[Sequence[int]]) -> np.ndarray:
    """log mu0(x_0) + sum_t log w_t(x_t, x_{t+1}) for each path x of `paths`.

    -inf where mu0 has no mass at the start or some step has no weight.
    The edges of all paths are looked up at once and the log weights are
    added in step order.
    """
    N, n = chain.N, chain.n
    for p in paths[:1] if isinstance(paths, np.ndarray) else paths:  # rows share a width
        if len(p) != N + 1:
            raise ValueError(f"path has {len(p) - 1} steps, prior expects {N}")
    try:
        X = np.array(paths, dtype=np.intp).reshape(len(paths), N + 1)
    except OverflowError:  # a node id past any index is out of range too
        X = np.array(paths, dtype=object)
    bad = X[(X < 1) | (X > n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} out of range 1..{n}")
    ids = chain.edges.find(X[:, :-1] - 1, X[:, 1:] - 1)
    feasible = (ids >= 0).all(axis=1)
    with np.errstate(divide="ignore"):
        out = np.where(feasible, np.log(chain.mu0[X[:, 0] - 1]), -np.inf)
    for t in range(N):
        out[feasible] += chain.log_weights[t, ids[feasible, t]]
    return out


def chain_path_mass(chain: PriorChain, p: Sequence[int]) -> float:
    """Mass mu0(x0) * prod_t w_t(x_t, x_{t+1}) of one path; 0 if infeasible."""
    return float(np.exp(log_path_masses(chain, [p])[0]))


def _perron_vector(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """(v, iterations): power iteration for the right Perron vector of
    B[src[e], dst[e]] = w[e], normalized to max v = 1.

    Stops once the Hilbert projective distance between successive iterates
    is at most PERRON_TOL, ||Bv - lam v||_inf <= PERRON_TOL * lam, and that
    residual no longer shrinks: on a slowly contracting B a step of
    PERRON_TOL can still leave v 1e-11 from its limit.
    """
    v = np.ones(n)
    res = float("inf")
    for iterations in range(1, PERRON_MAX_ITER + 1):
        Bv = np.bincount(src, w * v[dst], minlength=n)
        lam = float(Bv.max())
        if lam <= 0.0:
            raise ConvergenceError("power iteration collapsed to zero; spectral radius is 0",
                                   iterations=iterations)
        v_new = Bv / lam
        prev, res = res, float(np.abs(v_new - v).max())  # ||Bv - lam v||_inf / lam
        if res <= PERRON_TOL and res >= prev and hilbert_distance(v_new, v) <= PERRON_TOL:
            return v, iterations
        v = v_new
    raise ConvergenceError(
        f"power iteration did not converge in {PERRON_MAX_ITER} iterations",
        residual=res, iterations=PERRON_MAX_ITER,
    )


def perron(edges: EdgeIndex, weights) -> PerronTriple:
    """Dominant eigenvalue and eigenvectors of B, where B[src[e], dst[e]] is
    the linear weight weights[e] of each edge of `edges` and 0 off them.

    Runs one power iteration (a bincount product over the edges, sup-norm
    normalization) on B for v and another on its transpose for u.  Each
    stops on its own once the Hilbert projective distance between
    successive iterates is at most PERRON_TOL and its eigen-residual is at
    most PERRON_TOL * lam * ||x||_inf and no longer shrinks.  Then
    lam = u.Bv / u.v, and the returned vectors satisfy sum(u * v) = 1 with
    ||v||_1 = 1.

    Reducible matrices are accepted as long as the iteration converges; the
    left eigenvector may then contain zeros (graphs with an absorbing
    component).  The iteration stays linear on purpose: on a node that
    reaches no class of top spectral radius the iterate underflows to 0,
    where log-domain entries would keep falling and never converge.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (edges.E,) or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be {edges.E} nonnegative finite edge weights")
    n, src, dst = edges.n, edges.src, edges.dst
    v, it_v = _perron_vector(n, src, dst, w)
    u, it_u = _perron_vector(n, dst, src, w)
    iterations = max(it_v, it_u)
    denom = float(u @ v)
    if denom <= 0.0:
        raise ConvergenceError("left and right iterates have disjoint supports; "
                               "dominant eigenspace is degenerate", iterations=iterations)
    lam = float(u @ np.bincount(src, w * v[dst], minlength=n)) / denom
    if lam <= 0.0:
        raise ConvergenceError("dominant eigenvalue is not positive", iterations=iterations)
    v = v / v.sum()
    u = u / float(u @ v)
    return PerronTriple(lam=lam, u=u, v=v, iterations=iterations)


def ruelle_bowen_chain(g: DirectedGraph, T: float, N: int) -> PriorChain:
    """Stationary chain assigning equal mass to equal-length paths.

    Conjugates the edge-weight matrix B = [exp(-l_ij/T)] by its right Perron
    vector: R_ij = B_ij v_j / (lam v_i) on each edge, started from the invariant
    measure mu(i) = u_i v_i.  Under this prior the mass of any path depends
    on its endpoints and total length only.

    A row that misses 1 by more than 1e-9 raises InfeasibleError where v
    vanishes at its node (the linear iterate can stall at a subnormal
    instead of reaching 0), ConvergenceError otherwise.
    """
    check_temperature(T)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    edges = g.edge_index
    for i in np.flatnonzero(np.diff(edges.starts) == 0)[:1]:
        raise InfeasibleError(f"node {i + 1} has no outgoing edges")
    lw = _log_boltzmann_weights(g, T)
    # the power iteration needs linear weights; a constant shift of the log
    # weights scales B, which the conjugation cancels
    shift = lw.max()
    trip = perron(edges, np.exp(lw - shift))
    # a zero v_i makes row i inf or nan, which the row check below refuses
    with np.errstate(all="ignore"):
        log_v = np.log(trip.v)
        log_R = lw - shift + log_v[edges.dst] - np.log(trip.lam) - log_v[edges.src]
        rows = np.exp(edges.logsumexp(log_R))
    for i in np.flatnonzero(~(np.abs(rows - 1.0) <= 1e-9))[:1]:
        if trip.v[i] < np.finfo(float).tiny:
            raise InfeasibleError(
                f"right Perron vector vanishes at node {i + 1}; no stationary chain exists"
            )
        raise ConvergenceError(f"row {i + 1} of the Ruelle-Bowen chain sums to {rows[i]:.17g}")
    mu = trip.u * trip.v
    mu = mu / mu.sum()
    return PriorChain(edges, np.broadcast_to(log_R, (N, log_R.size)), mu)
