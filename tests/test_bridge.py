"""Bridge solver: marginal pinning, invariances, path probabilities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netbridge import (
    BridgeSolution,
    ConvergenceError,
    DirectedGraph,
    InfeasibleError,
    PriorChain,
    SolverConfig,
    as_marginal,
    boltzmann_prior,
    conditioned_boltzmann,
    delta_marginal,
    enumerate_feasible_paths,
    iterated_bridge_check,
    marginal_flow,
    most_probable_paths,
    path_probability,
    restriction_ratio_check,
    solve_schrodinger,
    support_paths,
)
from netbridge._numeric import hilbert_distance
from conftest import random_graph


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
        flow = marginal_flow(sol)
        assert np.abs(flow[0] - delta(9, 1)).max() <= 1e-12
        assert np.abs(flow[4] - delta(9, 9)).max() <= 1e-12

    def test_flow_propagates_through_transitions(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 0.7, 4),
                                delta(9, 1), delta(9, 9))
        flow = marginal_flow(sol)
        for t in range(4):
            assert np.abs(flow[t] @ sol.transitions[t] - flow[t + 1]).max() <= 1e-12

    def test_transition_rows_are_distributions(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 3),
                                delta(9, 1), delta(9, 9))
        for t, P in enumerate(sol.transitions):
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
        other = PriorChain(base.matrices,
                           as_marginal([0.9, 0.05, 0.05, 0, 0, 0, 0, 0, 0], 9),
                           base.log_scales)
        a = solve_schrodinger(base, delta(9, 1), delta(9, 9))
        b = solve_schrodinger(other, delta(9, 1), delta(9, 9))
        assert np.abs(marginal_flow(a) - marginal_flow(b)).max() <= 1e-12

    def test_bridge_invariant_to_kernel_scaling(self, g9):
        base = boltzmann_prior(g9, 1.0, 4)
        scaled = PriorChain(base.matrices, base.mu0,
                            tuple(s - 7.5 for s in base.log_scales))
        a = solve_schrodinger(base, delta(9, 1), delta(9, 9))
        b = solve_schrodinger(scaled, delta(9, 1), delta(9, 9))
        assert np.abs(marginal_flow(a) - marginal_flow(b)).max() <= 1e-12
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
        for p, want in cond.masses.items():
            assert path_probability(sol, p) == pytest.approx(want, abs=1e-12)

    def test_low_temperature_underflow_is_not_infeasibility(self, g9):
        # 1-2-7-9-9 is a 4-step route, but exp(-3/0.002) underflows to 0
        with pytest.raises(ConvergenceError, match="temperature is too low"):
            solve_schrodinger(boltzmann_prior(g9, 0.002, 4),
                              delta(9, 1), delta(9, 9))

    def test_overflowing_potential_raises(self):
        # phi[0] underflows to a subnormal and nu0 / phi[0] overflows
        g = random_graph(np.random.default_rng(1), 200, 0.04)
        with pytest.raises(ConvergenceError, match="temperature is too low"):
            solve_schrodinger(boltzmann_prior(g, 0.005, 20),
                              delta(200, 1), delta(200, 2))

    def test_nan_vectors_are_infinitely_far_apart(self):
        nan = np.full(3, np.nan)
        assert hilbert_distance(nan, nan) == math.inf
        assert hilbert_distance(nan, np.ones(3)) == math.inf

    @settings(max_examples=100)
    @given(st.data(), st.integers(1, 4), st.floats(-3.0, 3.0))
    def test_routes_in_the_prior_support_are_feasible(self, data, N, log10_T):
        n = data.draw(st.integers(2, 6))
        lengths = data.draw(st.lists(st.none() | st.floats(0.0, 3.0),
                                     min_size=n * n, max_size=n * n))
        edges = tuple((i // n + 1, i % n + 1, w) for i, w in enumerate(lengths)
                      if w is not None)
        assume(edges)
        g = DirectedGraph(n, edges)
        src, tgt = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        prior = boltzmann_prior(g, 10.0 ** log10_T, N)
        assume(support_paths(prior, src, tgt))
        try:
            solve_schrodinger(prior, delta(n, src), delta(n, tgt))
        except ConvergenceError:
            pass  # potentials may underflow at low T; that is not infeasibility

    def test_solver_config_respected(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 3),
                                delta(9, 1), delta(9, 9),
                                SolverConfig(tol=1e-6, max_iter=50))
        assert sol.iterations <= 50


class TestIteratedBridge:
    def test_delta_pairs(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        dev = iterated_bridge_check(prior,
                                    (delta(9, 1), delta(9, 9)),
                                    (delta(9, 2), delta(9, 9)))
        assert dev <= 1e-9

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
        assert support_paths(prior, 1, 9) == \
            enumerate_feasible_paths(g9, 3, source=1, target=9)

    def test_most_probable_from_solution(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4),
                                delta(9, 1), delta(9, 9))
        best = most_probable_paths(g9, sol, 1, 9)
        assert set(best) == {(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)}

    def test_most_probable_from_prior_chain(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        best = most_probable_paths(g9, prior, 1, 9)
        assert set(best) == {(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)}

    def test_most_probable_breaks_near_ties_together(self, g9_long79):
        sol = solve_schrodinger(boltzmann_prior(g9_long79, 1.0, 3),
                                delta(9, 1), delta(9, 9))
        best = most_probable_paths(g9_long79, sol, 1, 9)
        assert set(best) == {(1, 3, 8, 9), (1, 4, 8, 9)}

    def test_most_probable_infeasible_pair(self, g9):
        prior = boltzmann_prior(g9, 1.0, 2)
        with pytest.raises(InfeasibleError):
            most_probable_paths(g9, prior, 1, 9)

    def test_restriction_ratio_constant(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        sol = solve_schrodinger(prior, delta(9, 1), delta(9, 9))
        assert restriction_ratio_check(prior, sol, 1, 9) <= 1e-12

    def test_restriction_ratio_needs_two_paths(self, g9):
        prior = boltzmann_prior(g9, 1.0, 1)
        sol = solve_schrodinger(prior, delta(9, 8), delta(9, 9))
        with pytest.raises(InfeasibleError):
            restriction_ratio_check(prior, sol, 8, 9)


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
            flow = marginal_flow(sol)
            assert np.abs(flow[0] - delta(g.n, src)).max() <= 1e-10
            assert np.abs(flow[N] - delta(g.n, tgt)).max() <= 1e-10
            total = sum(path_probability(sol, p)
                        for p in enumerate_feasible_paths(g, N, source=src))
            assert total == pytest.approx(1.0, abs=1e-10)
            solved += 1
