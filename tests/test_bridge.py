"""Bridge solver: marginal pinning, invariances, path probabilities."""

import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netbridge import (
    BridgeSolution,
    DirectedGraph,
    InfeasibleError,
    PriorChain,
    SolverConfig,
    as_marginal,
    average_path_length,
    boltzmann_prior,
    conditioned_boltzmann,
    count_feasible_paths,
    delta_marginal,
    dump_graph,
    entropy,
    enumerate_feasible_paths,
    iterated_bridge_check,
    length_variance,
    log_path_masses,
    measure_from_chain,
    most_probable_paths,
    oracle_bridge,
    path_length,
    path_probability,
    restriction_ratio_check,
    ruelle_bowen_chain,
    solve_schrodinger,
    total_variation,
)
from netbridge._numeric import hilbert_distance
from netbridge.bridge import ARGMAX_REL_TOL
from netbridge.graph import path_sum_range, step_paths
from netbridge.cli import main
from conftest import dense_steps, random_graph


def delta(n, k):
    return delta_marginal(n, k)


class TestMarginals:
    def test_as_marginal_normalizes_check(self):
        w = as_marginal([0.25, 0.25, 0.5], 3)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_as_marginal_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_marginal([0.5, 0.6], 2)          # sums past one
        with pytest.raises(ValueError):
            as_marginal([1.5, -0.5], 2)         # negative entry
        with pytest.raises(ValueError):
            as_marginal([1.0], 2)               # wrong length

    def test_delta_marginal(self):
        d = delta_marginal(5, 2)
        assert d[1] == 1.0 and d.sum() == 1.0
        with pytest.raises(ValueError):
            delta_marginal(5, 0)
        with pytest.raises(ValueError):
            delta_marginal(5, 6)


class TestSolve:
    def test_marginals_pinned(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4),
                                delta(9, 1), delta(9, 9))
        flow = sol.marginals
        assert np.abs(flow[0] - delta(9, 1)).max() <= 1e-12
        assert np.abs(flow[4] - delta(9, 9)).max() <= 1e-12

    def test_flow_propagates_through_transitions(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 0.7, 4),
                                delta(9, 1), delta(9, 9))
        flow = sol.marginals
        Pis = dense_steps(sol.edges, sol.transitions)
        for t in range(4):
            assert np.abs(flow[t] @ Pis[t] - flow[t + 1]).max() <= 1e-12

    def test_transition_rows_are_distributions(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 3),
                                delta(9, 1), delta(9, 9))
        for t, P in enumerate(dense_steps(sol.edges, sol.transitions)):
            occupied = sol.marginals[t] > 0
            sums = P[occupied].sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_path_probabilities_sum_to_one(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4),
                                delta(9, 1), delta(9, 9))
        total = sum(path_probability(sol, p)
                    for p in enumerate_feasible_paths(g9, 4, source=1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_diffuse_marginals(self, g9):
        nu0 = as_marginal([0.5, 0.2, 0.2, 0.1, 0, 0, 0, 0, 0], 9)
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4), nu0, delta(9, 9))
        assert np.abs(sol.marginals[0] - nu0).max() <= 1e-12
        assert sol.residual <= 1e-12

    def test_bridge_ignores_prior_initial_marginal(self, g9):
        base = boltzmann_prior(g9, 1.0, 4)
        other = PriorChain(base.edges, base.log_weights,
                           as_marginal([0.9, 0.05, 0.05, 0, 0, 0, 0, 0, 0], 9))
        a = solve_schrodinger(base, delta(9, 1), delta(9, 9))
        b = solve_schrodinger(other, delta(9, 1), delta(9, 9))
        assert np.abs(a.marginals - b.marginals).max() <= 1e-12

    def test_bridge_invariant_to_kernel_scaling(self, g9):
        base = boltzmann_prior(g9, 1.0, 4)
        # scaling step t's kernel by exp(c[t]) adds c[t] to its log weights
        c = np.array([-7.5, 3.0, 0.0, 40.0])
        scaled = PriorChain(base.edges, base.log_weights + c[:, None], base.mu0)
        a = solve_schrodinger(base, delta(9, 1), delta(9, 9))
        b = solve_schrodinger(scaled, delta(9, 1), delta(9, 9))
        assert np.abs(a.marginals - b.marginals).max() <= 1e-12
        for t in range(4):
            assert np.abs(a.transitions[t] - b.transitions[t]).max() <= 1e-12

    def test_zero_horizon(self, g9):
        nu = as_marginal([0.3, 0.7, 0, 0, 0, 0, 0, 0, 0], 9)
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 0), nu, nu)
        assert sol.N == 0
        assert np.abs(sol.marginals[0] - nu).max() <= 1e-12

    def test_zero_horizon_mismatch_rejected(self, g9):
        with pytest.raises(InfeasibleError):
            solve_schrodinger(boltzmann_prior(g9, 1.0, 0),
                              delta(9, 1), delta(9, 2))

    def test_unreachable_target_rejected(self, g9):
        with pytest.raises(InfeasibleError, match="node 1 to node 6"):
            solve_schrodinger(boltzmann_prior(g9, 1.0, 2),
                              delta(9, 1), delta(9, 6))

    def test_partial_support_infeasibility_detected(self, g9):
        # node 6 reaches 9 in two steps but node 1 does not
        nu0 = as_marginal([0.5, 0, 0, 0, 0, 0.5, 0, 0, 0], 9)
        with pytest.raises(InfeasibleError):
            solve_schrodinger(boltzmann_prior(g9, 1.0, 2), nu0, delta(9, 9))

    def test_matches_conditioned_boltzmann(self, g9):
        T = 0.6
        sol = solve_schrodinger(boltzmann_prior(g9, T, 4),
                                delta(9, 1), delta(9, 9))
        cond = conditioned_boltzmann(g9, T, 4, 1, 9)
        for p, want in zip(cond.paths.tolist(), cond.masses.tolist()):
            assert path_probability(sol, p) == pytest.approx(want, abs=1e-12)

    def test_low_temperature_underflow_is_not_infeasibility(self, g9):
        # exp(-3/0.002) underflows, but the log weights keep the three
        # length-3 routes, which share the mass equally
        sol = solve_schrodinger(boltzmann_prior(g9, 0.002, 4),
                                delta(9, 1), delta(9, 9))
        for p in ((1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)):
            assert path_probability(sol, p) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("graph, N", [("g9", 4), ("g9_long79", 3), ("g9_long79", 4)])
    @pytest.mark.parametrize("T", [1e-3, 2e-3, 1e-2])
    def test_cold_bridge_matches_conditioned_boltzmann(self, graph, N, T, request):
        # and the endpoint-kernel oracle, whose 1 -> 9 kernel entry is 0.0
        # in linear weights below T ~ 0.004
        g = request.getfixturevalue(graph)
        prior = boltzmann_prior(g, T, N)
        got = measure_from_chain(solve_schrodinger(prior, delta(9, 1), delta(9, 9)))
        assert total_variation(got, conditioned_boltzmann(g, T, N, 1, 9)) <= 1e-10
        assert total_variation(got, oracle_bridge(prior, delta(9, 1), delta(9, 9))) <= 1e-10

    def test_edge_longer_than_745_T_keeps_its_route(self):
        # exp(-(2.0 - 0.1)/0.001) is 0.0 in linear weights, which dropped
        # the edge 2->3 and with it the only 2-step route 1-2-3
        g = DirectedGraph(3, ((1, 2, 0.1), (2, 3, 2.0), (3, 3, 0.1)))
        prior = boltzmann_prior(g, 0.001, 2)
        assert prior.support.all()
        sol = solve_schrodinger(prior, delta(3, 1), delta(3, 3))
        assert path_probability(sol, (1, 2, 3)) == 1.0
        assert average_path_length(sol, g) == pytest.approx(2.1, rel=1e-15)

    def test_cold_g200_bridge_satisfies_the_free_energy_identity(self):
        # for a delta-pinned Boltzmann bridge S = log Z_st + L/T; log Z_st
        # comes from an independent forward recursion with np.logaddexp
        n, N, T = 200, 20, 0.005
        g = random_graph(np.random.default_rng(1), n, 0.04)
        sol = solve_schrodinger(boltzmann_prior(g, T, N), delta(n, 1), delta(n, 2))
        assert sol.residual <= 1e-12
        assert np.abs(sol.marginals.sum(axis=1) - 1.0).max() <= 1e-12
        src, dst = sol.edges.src, sol.edges.dst
        log_m = np.where(np.arange(n) == 0, 0.0, -np.inf)
        for _ in range(N):
            nxt = np.full(n, -np.inf)
            np.logaddexp.at(nxt, dst, log_m[src] - g.lengths / T)
            log_m = nxt
        L = average_path_length(sol, g)
        assert entropy(sol) == pytest.approx(log_m[1] + L / T, rel=1e-9)

    def test_nan_vectors_are_infinitely_far_apart(self):
        nan = np.full(3, np.nan)
        assert hilbert_distance(nan, nan) == math.inf
        assert hilbert_distance(nan, np.ones(3)) == math.inf

    @settings(max_examples=150)
    @given(st.data(), st.integers(1, 4), st.floats(-3.0, 3.0))
    def test_routes_in_the_prior_support_are_feasible(self, data, N, log10_T):
        # differential check against the enumeration oracles: the solver
        # matches the conditioned Boltzmann measure and the kernel-scaling
        # bridge at every temperature, and neither calls a pair joined in
        # the prior's support infeasible
        n = data.draw(st.integers(2, 6))
        lengths = data.draw(st.lists(st.none() | st.floats(0.0, 3.0),
                                     min_size=n * n, max_size=n * n))
        edges = tuple((i // n + 1, i % n + 1, w) for i, w in enumerate(lengths)
                      if w is not None)
        assume(edges)
        g = DirectedGraph(n, edges)
        src, tgt = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        T = 10.0 ** log10_T
        prior = boltzmann_prior(g, T, N)
        assume(step_paths(prior.edges, prior.support, src, tgt).size)
        nu0, nuN = delta(n, src), delta(n, tgt)
        sol = solve_schrodinger(prior, nu0, nuN)
        got = measure_from_chain(sol)
        assert total_variation(got, conditioned_boltzmann(g, T, N, src, tgt)) <= 1e-10
        assert total_variation(got, oracle_bridge(prior, nu0, nuN)) <= 1e-10
        # the solution keeps every prior route however much its exp underflows
        routes = step_paths(sol.edges, sol.support, src, tgt)
        assert np.array_equal(routes, step_paths(prior.edges, prior.support, src, tgt))
        assert np.isfinite(log_path_masses(sol, routes)).all()

    def test_chain_carries_the_path_masses(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4), delta(9, 1), delta(9, 9))
        assert isinstance(sol, PriorChain)
        assert np.array_equal(sol.mu0, delta(9, 1))
        assert np.array_equal(np.exp(sol.log_weights), sol.transitions)
        assert path_probability(sol, (1, 2, 7, 9, 9)) == \
            pytest.approx(1 / (3 + 4 / math.e), rel=1e-12)

    def test_solver_config_respected(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 3),
                                delta(9, 1), delta(9, 9),
                                SolverConfig(tol=1e-6, max_iter=50))
        assert sol.iterations <= 50


class TestIteratedBridge:
    def test_delta_pairs(self, g9):
        # the second pair's supports nest inside the first's
        prior = boltzmann_prior(g9, 1.0, 4)
        for source in (1, 2):
            dev = iterated_bridge_check(prior,
                                        ((delta(9, 1) + delta(9, 2)) / 2, delta(9, 9)),
                                        (delta(9, source), delta(9, 9)))
            assert dev <= 1e-9

    def test_unnested_pairs_raise(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        with pytest.raises(ValueError, match="inside the first's"):
            iterated_bridge_check(prior, (delta(9, 1), delta(9, 9)),
                                  (delta(9, 2), delta(9, 9)))
        with pytest.raises(ValueError, match="inside the first's"):
            iterated_bridge_check(prior, (delta(9, 1), delta(9, 9)),
                                  (delta(9, 1), (delta(9, 8) + delta(9, 9)) / 2))

    def test_random_pairs(self, g9):
        rng = np.random.default_rng(29)
        prior = boltzmann_prior(g9, 1.0, 4)
        for _ in range(10):
            w1 = rng.random(9) + 1e-3
            w2 = rng.random(9) + 1e-3
            dev = iterated_bridge_check(
                prior,
                (w1 / w1.sum(), delta(9, 9)),
                (w2 / w2.sum(), delta(9, 9)),
            )
            assert dev <= 1e-9


class TestPathQueries:
    def test_support_paths_match_enumeration(self, g9):
        prior = boltzmann_prior(g9, 1.0, 3)
        paths = step_paths(prior.edges, prior.support, 1, 9)
        assert paths.dtype == np.intp and paths.shape == (3, 4)
        assert list(map(tuple, paths.tolist())) == \
            enumerate_feasible_paths(g9, 3, source=1, target=9)

    def test_most_probable_from_solution(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4),
                                delta(9, 1), delta(9, 9))
        best = most_probable_paths(sol, 1, 9)
        assert set(best) == {(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)}

    def test_most_probable_from_prior_chain(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        best = most_probable_paths(prior, 1, 9)
        assert set(best) == {(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)}

    def test_most_probable_breaks_near_ties_together(self, g9_long79):
        sol = solve_schrodinger(boltzmann_prior(g9_long79, 1.0, 3),
                                delta(9, 1), delta(9, 9))
        best = most_probable_paths(sol, 1, 9)
        assert set(best) == {(1, 3, 8, 9), (1, 4, 8, 9)}

    def test_most_probable_infeasible_pair(self, g9):
        prior = boltzmann_prior(g9, 1.0, 2)
        with pytest.raises(InfeasibleError):
            most_probable_paths(prior, 1, 9)

    def test_most_probable_endpoint_checks(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        for source in (0, 10):
            with pytest.raises(ValueError, match=f"source node {source} out of range"):
                most_probable_paths(prior, source, 9)
        with pytest.raises(ValueError, match="target node 10 out of range"):
            most_probable_paths(prior, 1, 10)
        # the bridge from node 1 puts no mass on paths leaving node 2
        sol = solve_schrodinger(prior, delta(9, 1), delta(9, 9))
        assert most_probable_paths(sol, 2, 9) == []

    @staticmethod
    def enumerate_then_filter(chain, source, target):
        paths = step_paths(chain.edges, chain.support, source, target)
        if not paths.size:
            return "infeasible"
        log_m = log_path_masses(chain, paths)
        top = log_m.max()
        return [tuple(p) for p, m in zip(paths.tolist(), log_m)
                if m >= top + np.log1p(-ARGMAX_REL_TOL)]

    @settings(max_examples=60)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 3.0, 40.0]))
    def test_most_probable_matches_enumeration(self, seed, max_len):
        # n, N and T come from the seed: hypothesis spends about half of its
        # integer draws on their lower bounds (n=1, N=0)
        rng = np.random.default_rng(seed)
        n, N = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        T = float(10.0 ** rng.uniform(-6.0, 3.0))
        g = random_graph(rng, n, max_len=max_len)
        prior = boltzmann_prior(g, T, N)
        for s, t in itertools.product(range(1, n + 1), repeat=2):
            want = self.enumerate_then_filter(prior, s, t)
            if want == "infeasible":
                with pytest.raises(InfeasibleError):
                    most_probable_paths(prior, s, t)
                continue
            assert most_probable_paths(prior, s, t) == want
            sol = solve_schrodinger(prior, delta(n, s), delta(n, t))
            assert most_probable_paths(sol, s, t) == self.enumerate_then_filter(sol, s, t)

    def test_most_probable_keeps_ties_when_cold(self):
        # At T=1e-6 path log masses reach 1e8, and one ulp of them exceeds
        # ARGMAX_REL_TOL, so the prune's slack must scale with them.  The
        # diamond's three paths of length 34.308 tie.  With no slack, the
        # loop's only path, bounded by sums taken in two directions, was
        # pruned, and so were argmax paths of some seeded graphs.
        diamond = DirectedGraph(5, ((1, 2, 17.972), (2, 5, 16.336), (1, 3, 16.336),
                                    (3, 5, 17.972), (1, 4, 3.575), (4, 5, 30.733),
                                    (5, 5, 0.0)))
        prior = boltzmann_prior(diamond, 1e-6, 3)
        assert most_probable_paths(prior, 1, 5) == [(1, 2, 5, 5), (1, 3, 5, 5), (1, 4, 5, 5)]
        rng = np.random.default_rng(0)
        cases = [(DirectedGraph(1, ((1, 1, 8.742),)), 5)] + [
            (random_graph(rng, int(rng.integers(2, 6)), 0.5, max_len=40.0),
             int(rng.integers(1, 5))) for _ in range(30)]
        for g, N in cases:
            prior = boltzmann_prior(g, 1e-6, N)
            for s, t in itertools.product(range(1, g.n + 1), repeat=2):
                want = self.enumerate_then_filter(prior, s, t)
                if want != "infeasible":
                    assert most_probable_paths(prior, s, t) == want

    def test_most_probable_past_the_enumeration_cap(self):
        # 4,487,238 paths join 1 -> 2 in 10 steps, past PATH_CAP; only the
        # minimal-length ones are enumerated, and they are the argmax of the
        # prior and of the bridge at every temperature
        g = random_graph(np.random.default_rng(1), 200, 0.04)
        N = 10
        lo, _ = path_sum_range(g.edge_index, np.ones((N, len(g.edges)), dtype=bool),
                               np.broadcast_to(g.lengths, (N, len(g.edges))), 2)
        sets = set()
        for T in (0.1, 0.5, 1.0, 2.0, 10.0):
            prior = boltzmann_prior(g, T, N)
            sol = solve_schrodinger(prior, delta(200, 1), delta(200, 2))
            sets.add(tuple(most_probable_paths(prior, 1, 2)))
            sets.add(tuple(most_probable_paths(sol, 1, 2)))
        (best,) = sets
        assert best and all(path_length(g, p) == pytest.approx(lo[0][0], rel=1e-12)
                            for p in best)

    def test_restriction_ratio_constant(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        sol = solve_schrodinger(prior, delta(9, 1), delta(9, 9))
        assert restriction_ratio_check(prior, sol, 1, 9) <= 1e-12

    @pytest.mark.parametrize("T", [1e-3, 1.0, 1e3])
    def test_prior_and_bridge_argmax_agree_at_any_temperature(self, g9, T):
        # at T=1e-3 every prior path mass exp(-l/T)/9 underflows in linear
        # arithmetic; compared in log space the argmax set survives
        prior = boltzmann_prior(g9, T, 4)
        sol = solve_schrodinger(prior, delta(9, 1), delta(9, 9))
        minimal = [(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)]
        assert most_probable_paths(prior, 1, 9) == most_probable_paths(sol, 1, 9) == minimal

    def test_restriction_ratio_constant_when_cold(self, g9):
        # at T <= 1e-3 the detours' linear transitions underflow to 0; their
        # log transitions stay finite, so the ratio still covers all 7 paths
        for T in (0.002, 1e-3, 1e-4):
            prior = boltzmann_prior(g9, T, 4)
            sol = solve_schrodinger(prior, delta(9, 1), delta(9, 9))
            assert restriction_ratio_check(prior, sol, 1, 9) <= 1e-12

    def test_restriction_ratio_single_path_and_no_route(self, g9):
        # 8 -> 9 is the only one-step route out of 8; nothing leaves 9 for 1
        prior = boltzmann_prior(g9, 1.0, 1)
        sol = solve_schrodinger(prior, delta(9, 8), delta(9, 9))
        assert restriction_ratio_check(prior, sol, 8, 9) == 0.0
        with pytest.raises(InfeasibleError):
            restriction_ratio_check(prior, sol, 9, 1)


class TestRandomGraphs:
    def test_random_instances_pin_marginals(self):
        rng = np.random.default_rng(41)
        solved = 0
        while solved < 15:
            g = random_graph(rng, int(rng.integers(3, 7)))
            N = int(rng.integers(1, 4))
            src = int(rng.integers(1, g.n + 1))
            tgt = int(rng.integers(1, g.n + 1))
            if not enumerate_feasible_paths(g, N, source=src, target=tgt):
                continue
            T = float(rng.uniform(0.3, 3.0))
            sol = solve_schrodinger(boltzmann_prior(g, T, N),
                                    delta(g.n, src), delta(g.n, tgt))
            flow = sol.marginals
            assert np.abs(flow[0] - delta(g.n, src)).max() <= 1e-10
            assert np.abs(flow[N] - delta(g.n, tgt)).max() <= 1e-10
            total = sum(path_probability(sol, p)
                        for p in enumerate_feasible_paths(g, N, source=src))
            assert total == pytest.approx(1.0, abs=1e-10)
            solved += 1


class TestEdgeLayout:
    @settings(max_examples=30)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 4),
           st.floats(-1.0, 1.0), st.data())
    def test_relabelled_shuffled_graph_carries_bridge_with_its_edges(
            self, seed, n, N, log_T, data):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        s, t = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        assume(count_feasible_paths(g, N, source=s, target=t) > 0)
        label = rng.permutation(n) + 1  # node v of g is node label[v-1] of h
        order = rng.permutation(len(g.edges))  # edge k of h is edge order[k] of g
        h = DirectedGraph(n, tuple((int(label[u - 1]), int(label[v - 1]), w)
                                   for u, v, w in (g.edges[k] for k in order)))
        s_h, t_h = int(label[s - 1]), int(label[t - 1])
        T = 10.0 ** log_T
        a = solve_schrodinger(boltzmann_prior(g, T, N), delta(n, s), delta(n, t))
        b = solve_schrodinger(boltzmann_prior(h, T, N), delta(n, s_h), delta(n, t_h))
        assert np.abs(b.transitions - a.transitions[:, order]).max() <= 1e-12
        assert np.abs(b.marginals[:, label - 1] - a.marginals).max() <= 1e-12

        docs = []
        with tempfile.TemporaryDirectory() as tmp:
            for graph, src, tgt in ((g, s, t), (h, s_h, t_h)):
                path, out = Path(tmp) / "g.json", Path(tmp) / "doc.json"
                path.write_text(dump_graph(graph))
                assert main(["solve", "--graph", str(path), "--from-delta", str(src),
                             "--to-delta", str(tgt), "-N", str(N), "-T", repr(T),
                             "--output", str(out)]) == 0
                docs.append(json.loads(out.read_text()))
        doc_g, doc_h = docs
        assert doc_h["edges"] == [[int(label[u - 1]), int(label[v - 1])]
                                  for u, v in np.array(doc_g["edges"])[order]]
        # 12-digit rounding may flip the last digit of an entry
        got = np.array(doc_h["transitions"]).reshape(N, -1)
        want = np.array(doc_g["transitions"]).reshape(N, -1)[:, order]
        assert np.abs(got - want).max() <= 1e-11
        for key in ("average_length", "entropy"):
            assert doc_h[key] == pytest.approx(doc_g[key], rel=1e-10, abs=1e-10)
        relabelled = {"-".join(str(label[int(x) - 1]) for x in k.split("-")): m
                      for k, m in doc_g["path_masses"].items()}
        assert relabelled.keys() == doc_h["path_masses"].keys()
        for k, m in doc_h["path_masses"].items():
            assert m == pytest.approx(relabelled[k], rel=1e-10)

    @settings(max_examples=30)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 4),
           st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.data())
    def test_scaling_lengths_and_temperature_leaves_transitions(
            self, seed, n, N, log_T, log_c, data):
        g = random_graph(np.random.default_rng(seed), n)
        s, t = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        assume(count_feasible_paths(g, N, source=s, target=t) > 0)
        T, c = 10.0 ** log_T, 10.0 ** log_c
        scaled = DirectedGraph(n, tuple((u, v, c * w) for u, v, w in g.edges))
        a = solve_schrodinger(boltzmann_prior(g, T, N), delta(n, s), delta(n, t))
        b = solve_schrodinger(boltzmann_prior(scaled, c * T, N), delta(n, s), delta(n, t))
        assert np.abs(a.transitions - b.transitions).max() <= 1e-12

    def test_solve_and_functionals_stay_in_edge_memory(self):
        # dense n x n transitions alone would take N * n^2 * 8 bytes = 320 MB
        rng = np.random.default_rng(5)
        n, N = 2000, 10
        g = DirectedGraph(n, tuple(
            (u, int(v) + 1, float(w)) for u in range(1, n + 1)
            for v, w in zip(rng.choice(n, 5, replace=False), rng.uniform(0.1, 3.0, 5))))
        e = g.edge_index
        walk = [1]
        for _ in range(N):
            walk.append(int(rng.choice(e.dst[e.out_edges(walk[-1] - 1)] + 1)))
        tracemalloc.start()
        try:
            sol = solve_schrodinger(boltzmann_prior(g, 1.0, N), delta(n, 1),
                                    delta(n, walk[-1]))
            average_path_length(sol, g)
            entropy(sol)
            length_variance(sol, g)
            ruelle_bowen_chain(g, 1.0, N)
            path_length(g, walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.transitions.shape == (N, len(g.edges))
        assert peak < 50 * 2 ** 20
