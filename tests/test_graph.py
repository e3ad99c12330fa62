"""Graph container, document round trips, and path enumeration."""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netbridge import (
    DirectedGraph,
    EnumerationCapError,
    GraphFormatError,
    count_feasible_paths,
    dump_graph,
    enumerate_feasible_paths,
    g9_network,
    load_graph,
    path_length,
)
from netbridge.graph import EdgeIndex, path_sum_range, step_paths, step_reach
from conftest import random_graph, shortest_path_matrix


def floyd_warshall(g):
    """Independent all-pairs distances for cross-checking Dijkstra."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in g.edges:
        d[i - 1, j - 1] = min(d[i - 1, j - 1], w)
    for k in range(g.n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


class TestConstruction:
    def test_basic_fields(self, g9):
        assert g9.n == 9
        assert len(g9.edges) == 15
        assert path_length(g9, (1, 2)) == 1.0
        assert math.isinf(path_length(g9, (2, 1)))
        assert path_length(g9, (7, 9)) == 1.0
        assert path_length(g9, (9, 9)) == 0.0

    def test_modified_edge(self, g9_long79):
        assert path_length(g9_long79, (7, 9)) == 2.0
        assert path_length(g9_long79, (8, 9)) == 1.0

    def test_successors_sorted(self, g9):
        e = g9.edge_index
        def targets(u):
            return tuple((e.dst[e.out_edges(u - 1)] + 1).tolist())
        assert targets(1) == (2, 3, 4)
        assert targets(2) == (3, 5, 7)
        assert targets(9) == (9,)

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError, match="edges\\[0\\]"):
            DirectedGraph(3, ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="edges\\[0\\]"):
            DirectedGraph(3, ((1, 4, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(3, ((1, 2, 1.0), (1, 2, 2.0)))
        # the later copy is named, however the sort places the pairs
        with pytest.raises(GraphFormatError,
                           match=r"^edges\[3\]: duplicate edge \(2, 1\)$"):
            DirectedGraph(3, ((2, 1, 1.0), (1, 2, 1.0), (3, 3, 0.5), (2, 1, 2.0),
                              (1, 2, 2.0)))

    def test_rejects_node_ids_no_array_holds(self):
        with pytest.raises(GraphFormatError, match="edges\\[1\\]: node out of range"):
            DirectedGraph(3, ((1, 2, 1.0), (1, 10 ** 30, 1.0)))

    def test_rejects_non_finite_length(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(GraphFormatError, match="edges\\[2\\]: length must be finite"):
                DirectedGraph(3, ((1, 2, 1.0), (2, 3, 1.0), (3, 1, bad)))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="edges\\[1\\]"):
            DirectedGraph(3, ((1, 2, 1.0), (2, 3, -0.5)))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DirectedGraph(0, ())
        with pytest.raises(GraphFormatError, match="n must be a positive integer"):
            DirectedGraph(True, ())

    @pytest.mark.parametrize("edge, reason", [
        ((True, 2, 1.0), "node ids must be integers"),
        ((2, 3, "1.5"), "length must be a number"),
        ((2, 3, False), "length must be a number"),
        ((2, 3, 10 ** 400), "length must be finite"),
    ])
    def test_graph_and_document_reject_the_same_edges(self, edge, reason):
        with pytest.raises(GraphFormatError, match=rf"^edges\[1\]: {reason}"):
            DirectedGraph(3, ((1, 2, 1.0), edge))
        doc = {"n": 3, "edges": [{"from": u, "to": v, "length": w}
                                 for u, v, w in ((1, 2, 1.0), edge)]}
        with pytest.raises(GraphFormatError, match=rf"^edges\[1\]: {reason}"):
            load_graph(json.dumps(doc))


class TestDocuments:
    def test_round_trip(self, g9):
        assert load_graph(dump_graph(g9)) == g9

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 8)))
            assert load_graph(dump_graph(g)) == g

    def test_bad_json(self):
        with pytest.raises(GraphFormatError):
            load_graph("{not json")

    def test_missing_keys(self):
        with pytest.raises(GraphFormatError, match="n"):
            load_graph(json.dumps({"edges": []}))
        with pytest.raises(GraphFormatError, match="edges"):
            load_graph(json.dumps({"n": 3}))

    def test_bad_edge_entry(self):
        doc = {"n": 3, "edges": [{"from": 1, "to": 2}]}
        with pytest.raises(GraphFormatError, match="edges\\[0\\]"):
            load_graph(json.dumps(doc))

    def test_invalid_edge_reported_with_location(self):
        doc = {"n": 3, "edges": [{"from": 1, "to": 2, "length": 1.0},
                                 {"from": 2, "to": 9, "length": 1.0}]}
        with pytest.raises(GraphFormatError, match="edges\\[1\\]"):
            load_graph(json.dumps(doc))


class TestPathLength:
    def test_known_paths(self, g9):
        assert path_length(g9, (1, 2, 7, 9)) == 3.0
        assert path_length(g9, (1, 2, 7, 9, 9)) == 3.0
        assert path_length(g9, (1, 2, 5, 6, 9)) == 4.0

    def test_modified_edge_changes_length(self, g9_long79):
        assert path_length(g9_long79, (1, 2, 7, 9)) == 4.0
        assert path_length(g9_long79, (1, 3, 8, 9)) == 3.0

    def test_single_node_path(self, g9):
        assert path_length(g9, (5,)) == 0.0

    def test_missing_edge_is_infinite(self, g9):
        assert math.isinf(path_length(g9, (1, 9)))


class TestEnumeration:
    def test_reference_three_step_family(self, g9):
        paths = enumerate_feasible_paths(g9, 3, source=1, target=9)
        assert paths == [(1, 2, 7, 9), (1, 3, 8, 9), (1, 4, 8, 9)]

    def test_reference_four_step_family(self, g9):
        paths = enumerate_feasible_paths(g9, 4, source=1, target=9)
        assert len(paths) == 7
        expected = {(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9),
                    (1, 2, 5, 6, 9), (1, 2, 5, 7, 9), (1, 3, 4, 8, 9),
                    (1, 2, 3, 8, 9)}
        assert set(paths) == expected
        assert paths == sorted(paths)

    def test_source_only_and_target_only(self, g9):
        from_1 = enumerate_feasible_paths(g9, 2, source=1)
        assert all(p[0] == 1 and len(p) == 3 for p in from_1)
        to_9 = enumerate_feasible_paths(g9, 2, target=9)
        assert all(p[-1] == 9 for p in to_9)

    def test_count_matches_enumeration(self, g9):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 7)))
            N = int(rng.integers(0, 5))
            src = int(rng.integers(1, g.n + 1))
            assert count_feasible_paths(g, N, source=src) == \
                len(enumerate_feasible_paths(g, N, source=src))

    def test_count_all_pairs(self, g9):
        total = count_feasible_paths(g9, 4)
        by_source = sum(count_feasible_paths(g9, 4, source=s)
                        for s in range(1, 10))
        assert total == by_source

    def test_count_exact_past_two_to_the_64(self):
        # complete digraph with loops on 20 nodes: 20**17 paths of 16 steps,
        # about 1.3e22, which no fixed-width integer holds
        g = DirectedGraph(20, tuple((u, v, 1.0) for u in range(1, 21)
                                    for v in range(1, 21)))
        assert count_feasible_paths(g, 16) == 20 ** 17
        assert count_feasible_paths(g, 16, source=3, target=7) == 20 ** 15

    def test_edge_index_lookup(self, g9):
        edges = g9.edge_index
        ids = edges.find([0, 6, 8, 0], [1, 8, 8, 8])
        assert ids.tolist() == [0, 12, 14, -1]
        assert edges.dst[edges.out_edges(1)].tolist() == [2, 4, 6]

    def test_zero_steps(self, g9):
        assert enumerate_feasible_paths(g9, 0, source=3, target=3) == [(3,)]
        assert enumerate_feasible_paths(g9, 0, source=3, target=4) == []

    def test_cap_enforced(self, g9):
        with pytest.raises(EnumerationCapError):
            enumerate_feasible_paths(g9, 4, source=1, cap=3)
        assert enumerate_feasible_paths(g9, 2, source=1, target=9, cap=0) == []
        with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
            enumerate_feasible_paths(g9, 2, source=1, target=9, cap=-1)

    def test_cap_is_decided_by_counting_before_the_walk(self, g9):
        # 2**41 paths: refused before any of them is built
        loops = DirectedGraph(2, ((1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 2, 1.0)))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="more than 100000 feasible"):
                enumerate_feasible_paths(loops, 40, cap=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # 20**301 paths overflow a float count to inf, never to a small value;
        # a cap past any int64 or double still compares exactly
        complete = DirectedGraph(20, tuple((u, v, 1.0) for u in range(1, 21)
                                           for v in range(1, 21)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EnumerationCapError):
                enumerate_feasible_paths(complete, 300, cap=10 ** 30)
        assert len(enumerate_feasible_paths(g9, 4, source=1, cap=10 ** 400)) == 8

    def test_infeasible_pair_is_empty(self, g9):
        assert enumerate_feasible_paths(g9, 2, source=1, target=9) == []
        assert enumerate_feasible_paths(g9, 3, source=9, target=1) == []


@st.composite
def step_supports(draw):
    """n <= 6 nodes, a random edge subset in a random order, and N <= 4
    steps, each with its own random support on those edges.  Returns the
    edge index, the (N, E) edge supports and the same supports as dense
    n x n matrices (false off the edge set)."""
    n = draw(st.integers(1, 6))
    N = draw(st.integers(0, 4))
    cells = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    present = draw(cells)
    keys = [k for k in draw(st.permutations(range(n * n))) if present[k]]
    edges = EdgeIndex(n, [k // n for k in keys], [k % n for k in keys])
    dense = tuple(np.array(draw(cells)).reshape(n, n)
                  & np.array(present).reshape(n, n) for _ in range(N))
    rows = np.array([S[edges.src, edges.dst] for S in dense],
                    dtype=bool).reshape(N, edges.E)
    return edges, rows, dense


def brute_force_paths(n, supports):
    """Every node sequence of the right length, kept when each step is supported."""
    return [p for p in itertools.product(range(1, n + 1), repeat=len(supports) + 1)
            if all(S[a - 1, b - 1] for S, a, b in zip(supports, p, p[1:]))]


class TestStepRoutines:
    @settings(max_examples=100)
    @given(step_supports(), st.data())
    def test_enumerator_matches_brute_force(self, case, data):
        edges, rows, dense = case
        n = edges.n
        source = data.draw(st.none() | st.integers(1, n))
        target = data.draw(st.none() | st.integers(1, n))
        want = [p for p in brute_force_paths(n, dense)
                if source in (None, p[0]) and target in (None, p[-1])]
        got = step_paths(edges, rows, source, target)
        assert got.dtype == np.intp and got.shape == (len(want), len(rows) + 1)
        assert got.tolist() == [list(p) for p in want]  # row order included
        cap = data.draw(st.integers(0, len(want)))  # the count decides the cap
        if cap < len(want):
            with pytest.raises(EnumerationCapError):
                step_paths(edges, rows, source, target, cap)

    @settings(max_examples=100)
    @given(step_supports())
    def test_reach_matches_enumeration(self, case):
        edges, rows, dense = case
        n = edges.n
        paths = brute_force_paths(n, dense)
        want = np.zeros((n, n), dtype=bool)
        for p in paths:
            want[p[0] - 1, p[-1] - 1] = True
        assert (step_reach(edges, rows, np.eye(n, dtype=bool))[0] == want).all()
        for j in range(1, n + 1):
            column = step_reach(edges, rows, np.arange(1, n + 1) == j)[0]
            assert (column == want[:, j - 1]).all()

    @settings(max_examples=100)
    @given(step_supports(), st.data())
    def test_segment_reductions_match_scatter(self, case, data):
        # logsumexp over each node's out- or in-edges against np.logaddexp.at,
        # and a min over out-edges against np.minimum.at, with -inf entries
        # and nodes that have no such edge
        edges, _, _ = case
        vals = np.array(data.draw(st.lists(st.none() | st.floats(-800.0, 800.0),
                                           min_size=edges.E, max_size=edges.E)),
                        dtype=float).reshape(edges.E)
        vals = np.where(np.isnan(vals), -np.inf, vals)
        for incoming, group in ((False, edges.src), (True, edges.dst)):
            want = np.full(edges.n, -np.inf)
            np.logaddexp.at(want, group, vals)
            got = edges.logsumexp(vals, incoming)
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            finite = np.isfinite(want)
            assert np.allclose(got[finite], want[finite], rtol=1e-13, atol=1e-12)
        low = np.full(edges.n, np.inf)
        np.minimum.at(low, edges.src, vals)
        assert np.array_equal(edges.reduce(np.minimum, vals, np.inf), low)

    @settings(max_examples=100)
    @given(step_supports(), st.data())
    def test_path_sum_range_matches_enumerated_sums(self, case, data):
        # values include -inf, on and off the support, and no -inf + inf may
        # form; each path's sum is formed backward, as the recursion forms
        # it, so both agree exactly
        edges, rows, _ = case
        n, N = edges.n, len(rows)
        target = data.draw(st.integers(1, n))
        values = np.array(data.draw(st.lists(st.none() | st.floats(-50.0, 50.0),
                                             min_size=N * edges.E, max_size=N * edges.E)),
                          dtype=float).reshape(N, edges.E)
        values = np.where(np.isnan(values), -np.inf, values)
        # want[t]: the range over the paths' tails from step t, started
        # at the node each tail leaves
        want_lo, want_hi = np.full((N + 1, n), np.inf), np.full((N + 1, n), -np.inf)
        for t in range(N + 1):
            for p in step_paths(edges, rows[t:], target=target).tolist():
                ids = edges.find(np.array(p[:-1], dtype=np.intp) - 1,
                                 np.array(p[1:], dtype=np.intp) - 1)
                total = 0.0
                for s in reversed(range(N - t)):
                    total = values[t + s, ids[s]] + total
                want_lo[t, p[0] - 1] = min(want_lo[t, p[0] - 1], total)
                want_hi[t, p[0] - 1] = max(want_hi[t, p[0] - 1], total)
        with np.errstate(invalid="raise"):
            lo, hi = path_sum_range(edges, rows, values, target)
        assert len(lo) == len(hi) == N + 1
        assert np.array_equal(np.stack(lo), want_lo)
        assert np.array_equal(np.stack(hi), want_hi)

    def test_reach_counts_do_not_wrap(self):
        # K_257 without self-loops: every node has 256 in-neighbours, which
        # an 8-bit walk count would wrap to zero
        src, dst = np.nonzero(~np.eye(257, dtype=bool))
        edges = EdgeIndex(257, src, dst)
        rows = np.ones((2, edges.E), dtype=bool)
        assert step_reach(edges, rows, np.eye(257, dtype=bool))[0].all()


class TestShortestPaths:
    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 9)))
            got = shortest_path_matrix(g)
            want = floyd_warshall(g)
            finite = np.isfinite(want)
            assert (np.isfinite(got) == finite).all()
            assert np.allclose(got[finite], want[finite], atol=1e-12)

    def test_g9_distances(self, g9):
        d = shortest_path_matrix(g9)
        assert d[0, 8] == 3.0
        assert d[0, 5] == 3.0
        assert math.isinf(d[8, 0])
        assert d[8, 8] == 0.0

    def test_longer_edge_shifts_distance(self, g9_long79):
        d = shortest_path_matrix(g9_long79)
        assert d[6, 8] == 2.0
        assert d[0, 8] == 3.0
