import numpy as np
import pytest
from hypothesis import settings

from netbridge import DirectedGraph, EdgeIndex, g9_network

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
