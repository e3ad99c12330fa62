import numpy as np
import pytest
from hypothesis import settings

from netbridge import DirectedGraph, EdgeIndex, InfeasibleError, PathMeasure, PriorChain, \
    g9_network, log_path_masses
from netbridge._numeric import logsumexp
from netbridge.graph import distance_rows, path_lengths, step_paths
from netbridge.metrics import _check_probability
from netbridge.prior import _log_boltzmann_weights, check_temperature

# Property tests draw the same examples on every run, so the suite's verdict
# does not depend on the run.
settings.register_profile("netbridge", derandomize=True, deadline=None)
settings.load_profile("netbridge")


@pytest.fixture
def g9():
    return g9_network()


@pytest.fixture
def g9_long79():
    return g9_network(l79=2.0)


@pytest.fixture
def ring4():
    """Strongly connected 4-cycle with a chord, unit lengths."""
    return DirectedGraph(4, (
        (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0), (1, 3, 1.0),
    ))


def random_graph(rng, n, p_edge=0.4, max_len=3.0):
    """Random directed graph; every node keeps at least one outgoing edge."""
    edges = []
    for i in range(1, n + 1):
        out = [j for j in range(1, n + 1) if rng.random() < p_edge]
        if not out:
            out = [int(rng.integers(1, n + 1))]
        for j in out:
            edges.append((i, j, float(np.round(rng.uniform(0.1, max_len), 3))))
    return DirectedGraph(n, tuple(edges))


def edge_weights(B):
    """(EdgeIndex, weights) holding the nonzero entries of a dense matrix."""
    B = np.asarray(B, dtype=float)
    src, dst = np.nonzero(B)
    return EdgeIndex(B.shape[0], src, dst), B[src, dst]


def dense_steps(edges, rows):
    """Dense n x n matrices of per-edge step rows over an EdgeIndex."""
    out = np.zeros((len(rows), edges.n, edges.n))
    for P, row in zip(out, rows):
        P[edges.src, edges.dst] = row
    return out


# Closed-form references the tests compare the library against; no command
# calls them.

def conditioned_boltzmann(g: DirectedGraph, T: float, N: int,
                          source: int | None = None,
                          target: int | None = None) -> PathMeasure:
    """Boltzmann measure exp(-l/T)/Z over the feasible N-step paths, optionally
    restricted to those leaving `source` and/or entering `target`.

    Pinned at both ends this is the closed-form answer for a delta-pinned
    bridge over the Boltzmann prior; normalization happens in log space.
    """
    check_temperature(T)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    paths = step_paths(g.edge_index, np.ones((N, len(g.edges)), dtype=bool), source, target)
    if not paths.size:
        raise InfeasibleError(f"no feasible {N}-step path"
                              + (f" from node {source}" if source is not None else "")
                              + (f" to node {target}" if target is not None else ""))
    logw = -path_lengths(g, paths) / T
    return PathMeasure(N, paths, np.exp(logw - logsumexp(logw)))


def partition_function(g: DirectedGraph, T: float, N: int) -> float:
    """Sum of exp(-l(x)/T) over all feasible N-step paths from every start node.

    Computed by a backward log-space recursion over the edge list, so tests
    can check it against direct path enumeration.
    """
    check_temperature(T)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    lw = _log_boltzmann_weights(g, T)
    edges = g.edge_index
    x = np.zeros(g.n)
    for _ in range(N):
        x = edges.logsumexp(lw + x[edges.dst])
    log_z = logsumexp(x)
    if log_z == -np.inf:
        raise InfeasibleError(f"no feasible {N}-step paths")
    return float(np.exp(log_z))


def _masses_on(Q: PathMeasure, paths: np.ndarray) -> np.ndarray:
    """Q's mass on each row of `paths`, 0 where Q has no such path."""
    _, inv = np.unique(np.concatenate((Q.paths, paths)), axis=0, return_inverse=True)
    inv, k = inv.reshape(-1), len(Q.paths)
    return np.bincount(inv[:k], Q.masses, minlength=inv.size)[inv[k:]]  # Q's rows are distinct


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
    keep = P.masses > 0.0
    paths, m = P.paths[keep], P.masses[keep]
    if isinstance(Q, PriorChain):
        log_q = log_path_masses(Q, paths)
    else:
        with np.errstate(divide="ignore"):
            log_q = np.log(_masses_on(Q, paths))
    if np.any(log_q == -np.inf):
        return float("inf")
    return float((m * (np.log(m) - log_q)).sum())


def total_variation(P: PathMeasure, Q: PathMeasure) -> float:
    """Total variation 0.5 * sum |P - Q|: over P's paths, plus Q's mass off them."""
    if P.N != Q.N:
        raise ValueError(f"horizon mismatch: {P.N} vs {Q.N}")
    q = _masses_on(Q, P.paths)
    return 0.5 * float(np.abs(P.masses - q).sum() + max(Q.total() - q.sum(), 0.0))


def shortest_path_matrix(g: DirectedGraph) -> np.ndarray:
    """All-pairs directed distances d[i-1, j-1]: distance_rows stacked."""
    return np.array(list(distance_rows(g)))
