"""Brute-force route: endpoint kernels, scaling on the kernel, cross-checks.

The oracle must stay independent of the solver: it enumerates paths and
scales the endpoint kernel directly, so agreement between the two routes
is evidence, not tautology.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import netbridge
import netbridge.oracle as oracle
from netbridge import (
    EdgeIndex,
    EnumerationCapError,
    InfeasibleError,
    NetbridgeError,
    PathMeasure,
    PriorChain,
    SolverConfig,
    as_marginal,
    boltzmann_prior,
    conditioned_boltzmann,
    delta_marginal,
    endpoint_kernel,
    enumerate_feasible_paths,
    log_path_masses,
    measure_from_chain,
    oracle_bridge,
    partition_function,
    path_length,
    restriction_ratio_check,
    ruelle_bowen_chain,
    solve_schrodinger,
    total_variation,
    verify_battery,
    verify_equal_length_masses,
)
from netbridge.graph import step_reach
from conftest import random_graph


def at(n, *nodes):
    """Boolean vector over n nodes, true at the given 1-based nodes."""
    return np.isin(np.arange(1, n + 1), nodes)


def feasible_marginals(rng, g, N, diffuse):
    """Random (nu0, nuN) on g whose supported pairs are all joined by N-step
    routes: up to 3 targets and every node reaching all of them if
    `diffuse`, else one node each; rejects the draw when no node qualifies."""
    reach = step_reach(g.edge_index, np.ones((N, len(g.edges)), dtype=bool),
                       np.eye(g.n, dtype=bool))[0]
    targets = rng.permutation(np.flatnonzero(reach.any(axis=0)))[:3 if diffuse else 1]
    sources = np.flatnonzero(reach[:, targets].all(axis=1))
    assume(sources.size)
    if not diffuse:
        sources = sources[:1]
    nu0, nuN = np.zeros(g.n), np.zeros(g.n)
    nu0[sources] = rng.uniform(0.1, 1.0, sources.size)
    nuN[targets] = rng.uniform(0.1, 1.0, targets.size)
    return nu0 / nu0.sum(), nuN / nuN.sum()


def g200_diffuse():
    """random_graph(default_rng(1), 200, 0.04) with nu0 on nodes 1-10 and
    nuN on nodes 101-110, 0.1 each."""
    nodes = np.arange(1, 201)
    return (random_graph(np.random.default_rng(1), 200, 0.04),
            np.where(nodes <= 10, 0.1, 0.0), np.where((nodes > 100) & (nodes <= 110), 0.1, 0.0))


class TestEndpointKernel:
    def test_g9_closed_form_entry(self, g9):
        # four-step 1 -> 9 routes: three of length 3 (self-loop padded),
        # four of length 4; only those seven are enumerated
        K = endpoint_kernel(boltzmann_prior(g9, 1.0, 4), at(9, 1), at(9, 9))
        want = math.log(3 * math.exp(-3.0) + 4 * math.exp(-4.0))
        assert K.log_matrix.shape == (1, 1)
        assert K.log_matrix[0, 0] == pytest.approx(want, rel=1e-12)
        assert K.paths.shape == (7, 5)

    def test_unreachable_entry_zero(self, g9):
        K = endpoint_kernel(boltzmann_prior(g9, 1.0, 3), at(9, 9), at(9, 1, 9))
        assert K.log_matrix[0, 0] == -math.inf
        assert K.log_matrix[0, 1] == 0.0  # the zero-length self-loop, three times

    def test_temperature_dependence(self, g9):
        cold = endpoint_kernel(boltzmann_prior(g9, 0.25, 4), at(9, 1), at(9, 9)).log_matrix[0, 0]
        want = math.log(3 * math.exp(-12.0) + 4 * math.exp(-16.0))
        assert cold == pytest.approx(want, rel=1e-11)

    def test_entry_that_underflows_in_linear_weights(self, g9):
        # 3e^{-1500} + 4e^{-2000} is 0.0 as a float; its log is not
        K = endpoint_kernel(boltzmann_prior(g9, 0.002, 4), at(9, 1), at(9, 9))
        want = np.logaddexp(math.log(3) - 1500, math.log(4) - 2000)
        assert K.log_matrix[0, 0] == pytest.approx(want, rel=1e-14)

    def test_random_graph_matches_enumeration(self):
        # on every node pair, then on random endpoint subsets
        rng = np.random.default_rng(31)
        for k in range(20):
            g = random_graph(rng, int(rng.integers(2, 6)))
            N = int(rng.integers(1, 4))
            T = float(rng.uniform(0.4, 2.5))
            supp0, suppN = (np.ones(g.n, dtype=bool) if k < 10 else rng.random(g.n) < 0.5
                            for _ in range(2))
            supp0[rng.integers(g.n)] = suppN[rng.integers(g.n)] = True
            K = endpoint_kernel(boltzmann_prior(g, T, N), supp0, suppN)
            assert supp0[K.paths[:, 0] - 1].all() and suppN[K.paths[:, -1] - 1].all()
            for a, i in enumerate(np.flatnonzero(supp0) + 1):
                for b, j in enumerate(np.flatnonzero(suppN) + 1):
                    total = math.fsum(math.exp(-path_length(g, p) / T)
                                      for p in enumerate_feasible_paths(
                                          g, N, source=int(i), target=int(j)))
                    want = math.log(total) if total > 0 else -math.inf
                    assert K.log_matrix[a, b] == \
                        pytest.approx(want, rel=1e-11, abs=1e-11)


    def test_second_route_stays_on_the_edge_list(self):
        # n = 5,000 with five out-edges a node, built by numpy: one dense
        # n x n log step matrix would be 200 MB
        rng = np.random.default_rng(5)
        n, N = 5_000, 6
        key = np.unique(np.repeat(np.arange(n), 5) * n + rng.integers(0, n, 5 * n))
        edges = EdgeIndex(n, key // n, key % n)
        lw = -rng.uniform(0.1, 3.0, edges.E)
        prior = PriorChain(edges, np.broadcast_to(lw, (N, edges.E)), np.full(n, 1.0 / n))
        tracemalloc.start()
        try:
            K = endpoint_kernel(prior, at(n, 1), np.ones(n, dtype=bool))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.paths.shape[1] == N + 1 and len(K.paths) > 10_000
        assert K.log_matrix.shape == (1, n)
        assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestConditionedBoltzmann:
    def test_reference_masses(self, g9):
        m = conditioned_boltzmann(g9, 1.0, 4, 1, 9)
        p3 = 1.0 / (3.0 + 4.0 * math.exp(-1.0))
        p4 = math.exp(-1.0) * p3
        for p, mass in zip(m.paths.tolist(), m.masses.tolist()):
            want = p3 if path_length(g9, p) == 3.0 else p4
            assert mass == pytest.approx(want, abs=1e-12)

    def test_normalized(self, g9):
        m = conditioned_boltzmann(g9, 0.3, 4, 1, 9)
        assert m.total() == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_pair(self, g9):
        with pytest.raises(InfeasibleError):
            conditioned_boltzmann(g9, 1.0, 2, 1, 9)


class TestBoltzmannFamily:
    def test_masses_proportional_to_weight(self, g9):
        T = 1.7
        m = conditioned_boltzmann(g9, T, 3)
        Z = partition_function(g9, T, 3)
        for p, mass in zip(m.paths.tolist(), m.masses.tolist()):
            assert mass == pytest.approx(
                math.exp(-path_length(g9, p) / T) / Z, rel=1e-11)

    def test_total_one(self, g9):
        assert conditioned_boltzmann(g9, 0.9, 4).total() == \
            pytest.approx(1.0, abs=1e-12)


class TestOracleBridge:
    def test_matches_solver_reference_case(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)
        direct = measure_from_chain(solve_schrodinger(prior, nu0, nuN))
        brute = oracle_bridge(prior, nu0, nuN)
        assert total_variation(direct, brute) <= 1e-10

    def test_matches_solver_diffuse_marginals(self, g9):
        rng = np.random.default_rng(37)
        prior = boltzmann_prior(g9, 0.8, 4)
        for _ in range(5):
            w = rng.random(9) + 1e-3
            nu0 = w / w.sum()
            nuN = delta_marginal(9, 9)
            direct = measure_from_chain(solve_schrodinger(prior, nu0, nuN))
            brute = oracle_bridge(prior, nu0, nuN)
            assert total_variation(direct, brute) <= 1e-10

    def test_marginals_recovered(self, g9):
        prior = boltzmann_prior(g9, 1.0, 3)
        nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)
        m = oracle_bridge(prior, nu0, nuN)
        start = np.bincount(m.paths[:, 0] - 1, m.masses, minlength=9)
        end = np.bincount(m.paths[:, -1] - 1, m.masses, minlength=9)
        assert np.abs(start - nu0).max() <= 1e-12
        assert np.abs(end - nuN).max() <= 1e-12

    @pytest.mark.parametrize("T", [0.004, 0.002, 1e-3, 1e-6])
    def test_cold_delta_bridge_matches_solver(self, g9, T):
        # below T ~ 0.004 the linear kernel entry for 1 -> 9 underflows to 0
        prior = boltzmann_prior(g9, T, 4)
        nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)
        direct = measure_from_chain(solve_schrodinger(prior, nu0, nuN))
        assert total_variation(direct, oracle_bridge(prior, nu0, nuN)) <= 1e-12

    def test_diffuse_marginals_recovered_at_one_millionth(self, g9):
        # |log G| is about 3e6, where a marginal read back through log
        # arithmetic resolves only to about 1e-9; the scaling still stops
        nu0 = as_marginal([0.3, 0.3, 0.4, 0, 0, 0, 0, 0, 0], 9)
        nuN = delta_marginal(9, 9)
        m = oracle_bridge(boltzmann_prior(g9, 1e-6, 4), nu0, nuN)
        start = np.bincount(m.paths[:, 0] - 1, m.masses, minlength=9)
        end = np.bincount(m.paths[:, -1] - 1, m.masses, minlength=9)
        assert np.abs(start - nu0).max() <= 1e-8
        assert np.abs(end - nuN).max() <= 1e-8

    def test_infeasible_rejected(self, g9):
        prior = boltzmann_prior(g9, 1.0, 2)
        with pytest.raises(InfeasibleError):
            oracle_bridge(prior, delta_marginal(9, 1), delta_marginal(9, 9))

    def test_zero_horizon(self, g9):
        prior = boltzmann_prior(g9, 1.0, 0)
        nu = as_marginal([0.4, 0.6, 0, 0, 0, 0, 0, 0, 0], 9)
        m = oracle_bridge(prior, nu, nu)
        assert m.paths.tolist() == [[1], [2]]
        assert m.masses == pytest.approx([0.4, 0.6], abs=1e-12)


class TestMeasureExtraction:
    def test_bridge_measure_total(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4),
                                delta_marginal(9, 1), delta_marginal(9, 9))
        m = measure_from_chain(sol)
        assert m.total() == pytest.approx(1.0, abs=1e-12)
        assert (m.masses > 0).all()

    def test_chain_measure_matches_path_mass(self, g9):
        from netbridge import chain_path_mass
        prior = boltzmann_prior(g9, 1.0, 2)
        m = measure_from_chain(prior)
        for p, mass in zip(m.paths[:20].tolist(), m.masses[:20].tolist()):
            assert mass == pytest.approx(chain_path_mass(prior, p), rel=1e-12)

    def test_cap_enforced(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4),
                                delta_marginal(9, 1), delta_marginal(9, 9))
        with pytest.raises(EnumerationCapError):
            measure_from_chain(sol, cap=2)


class TestEqualLengthReport:
    def test_unit_cost_funnel(self, g9):
        pairs, spread = verify_equal_length_masses(g9, 1.0, 4)
        assert pairs == 10
        assert spread <= 1e-12

    def test_modified_graph(self, g9_long79):
        pairs, spread = verify_equal_length_masses(g9_long79, 1.0, 3)
        assert pairs == 14
        assert spread <= 1e-12

    def test_spread_across_temperatures(self, g9, g9_long79):
        for T in (0.2, 1.0, 2.0, 25.0):
            for g, N, pairs in ((g9, 4, 10), (g9_long79, 3, 14)):
                checked, spread = verify_equal_length_masses(g, T, N)
                assert checked == pairs
                assert spread <= 1e-12


    def test_cold_funnel_where_the_stationary_chain_fails(self, g9):
        # at T = 0.002 the right Perron vector underflows at node 1, so the
        # Ruelle-Bowen chain does not exist; its bridge still does
        with pytest.raises(InfeasibleError, match="vanishes at node 1"):
            ruelle_bowen_chain(g9, 0.002, 4)
        pairs, spread = verify_equal_length_masses(g9, 0.002, 4)
        assert pairs == 10
        assert spread <= 1e-12

    def test_reach_is_taken_in_chunks_of_targets(self, g9):
        # one target per chunk counts the same pairs and spread
        want = verify_equal_length_masses(g9, 0.7, 4)
        with mock.patch.object(oracle, "REACH_CHUNK", 1):
            assert verify_equal_length_masses(g9, 0.7, 4) == want

    @settings(max_examples=60)
    @given(st.integers(0, 10_000), st.booleans())
    def test_boltzmann_and_ruelle_bowen_bridges_coincide(self, seed, diffuse):
        # the chain's h-transform reweights each path by endpoint factors,
        # which the bridge absorbs, so both priors give one bridge
        rng = np.random.default_rng(seed)
        n, N = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        T = 10.0 ** rng.uniform(-1.0, 1.5)
        g = random_graph(rng, n, p_edge=rng.uniform(0.2, 0.6))
        with mock.patch("netbridge.prior.PERRON_MAX_ITER", 5_000):
            try:
                chain = ruelle_bowen_chain(g, T, N)
            except NetbridgeError:
                assume(False)
        nu0, nuN = feasible_marginals(rng, g, N, diffuse)
        cfg = SolverConfig(tol=1e-13)  # solves to well within the 1e-12 compared
        over_prior = solve_schrodinger(boltzmann_prior(g, T, N), nu0, nuN, cfg)
        over_chain = solve_schrodinger(chain, nu0, nuN, cfg)
        assert np.abs(over_prior.transitions - over_chain.transitions).max() <= 1e-12


def skewed(solve, noise):
    """`solve` with `noise` added to every solution's finite log transitions."""
    def wrapped(*args, **kwargs):
        sol = solve(*args, **kwargs)
        bad = sol.log_weights + noise
        return replace(sol, log_weights=bad, transitions=np.exp(bad))
    return wrapped


def enumerated_spread(log_values):
    """1 - min/max of the masses whose logs are given."""
    return 1.0 - math.exp(min(log_values) - max(log_values))


class TestInvarianceChecks:
    @settings(max_examples=20)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 3),
           st.floats(-1.0, 1.5), st.sampled_from([0.0, 0.3]))
    def test_spreads_match_enumeration(self, seed, n, N, log10_T, skew):
        # a skew adds fixed noise to every bridge the checks see, so their
        # spreads are far from 0 and must still match the enumerated ones
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        T = 10.0 ** log10_T
        # the power iteration never settles on a periodic graph; a lower cap
        # skips those cases in well under a second instead of seconds
        with mock.patch("netbridge.prior.PERRON_MAX_ITER", 5_000):
            try:
                chain = ruelle_bowen_chain(g, T, N)
            except NetbridgeError:
                assume(False)
        solve = skewed(solve_schrodinger, skew * rng.standard_normal((N, len(g.edges))))
        prior = boltzmann_prior(g, T, N)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if enumerate_feasible_paths(g, N, i, j)]
        worst_rr = worst_el = 0.0
        for i, j in pairs:
            paths = enumerate_feasible_paths(g, N, i, j)
            lengths = np.array([path_length(g, p) for p in paths])
            sol = solve(prior, delta_marginal(n, i), delta_marginal(n, j))
            want = enumerated_spread(log_path_masses(sol, paths)
                                     - log_path_masses(prior, paths))
            worst_rr = max(worst_rr, abs(restriction_ratio_check(prior, sol, i, j) - want))
            sol = solve(chain, delta_marginal(n, i), delta_marginal(n, j))
            worst_el = max(worst_el, enumerated_spread(log_path_masses(sol, paths)
                                                       + lengths / T))
        with mock.patch.object(oracle, "solve_schrodinger", solve):
            pairs_checked, spread = verify_equal_length_masses(g, T, N)
        assert pairs_checked == len(pairs)
        assert worst_rr <= 1e-12
        assert abs(spread - worst_el) <= 1e-12

    def test_one_corrupted_edge_fails_restriction_ratio(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        sol = solve_schrodinger(prior, delta_marginal(9, 1), delta_marginal(9, 9))
        bad = sol.log_weights.copy()
        bad[1, g9.edge_index.find(1, 6)] += math.log(0.5)  # 2 -> 7 at step 1 only
        corrupted = replace(sol, log_weights=bad, transitions=np.exp(bad))
        assert restriction_ratio_check(prior, corrupted, 1, 9) == pytest.approx(0.5, rel=1e-12)

    def test_diffuse_bridge_past_the_path_cap(self):
        # 1.1T bridges scored against the prior at T must fail; no path is walked
        g, nu0, nuN = g200_diffuse()
        prior = boltzmann_prior(g, 1.0, 10)
        with pytest.raises(EnumerationCapError):
            oracle_bridge(prior, nu0, nuN)
        for T, low, high in ((1.0, 0.0, 1e-12), (1.1, 0.5, 1.0)):
            sol = solve_schrodinger(boltzmann_prior(g, T, 10), nu0, nuN)
            spread = max(restriction_ratio_check(prior, sol, i, j)
                         for i in range(1, 11) for j in range(101, 111))
            assert low <= spread <= high, (T, spread)

    def test_corrupted_stationary_bridge_fails_equal_length(self, g9):
        noise = np.zeros((4, len(g9.edges)))
        noise[0, g9.edge_index.find(0, 1)] = math.log(0.5)  # 1 -> 2 at step 0 only
        with mock.patch.object(oracle, "solve_schrodinger",
                               skewed(solve_schrodinger, noise)):
            _, spread = verify_equal_length_masses(g9, 1.0, 4)
        assert spread == pytest.approx(0.5, rel=1e-12)


CHECK_NAMES = ["solver-marginals", "path-normalization", "solver-vs-oracle",
               "iterated-bridge", "argmax-path-invariance", "restriction-ratio",
               "equal-length-masses"]


def run_battery(g, nu0, nuN, N, sol=None):
    """verify_battery at T=1 with the CLI's tolerances; solves unless handed `sol`."""
    cfg = SolverConfig()
    if sol is None:
        sol = solve_schrodinger(boltzmann_prior(g, 1.0, N), nu0, nuN, cfg)
    return verify_battery(g, sol, nu0, nuN, 1.0, cfg, grid=[0.5, 1.0, 2.0], pairs=2)


class TestVerifyBattery:
    def test_solved_bridge_passes_every_check_in_order(self, g9):
        checks, meta = run_battery(g9, delta_marginal(9, 1), delta_marginal(9, 9), 4)
        assert [name for name, _, _ in checks] == CHECK_NAMES
        assert all(value <= tol for _, value, tol in checks), checks
        assert meta == {"pairs_checked": 10, "seed": 0}

    def test_corrupted_transitions_fail_solver_vs_oracle(self, g9):
        nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4), nu0, nuN)
        bad = sol.log_weights.copy()
        bad[0, sol.edges.out_edges(0)] += np.log(0.5)  # the source's step-0 rows lose half
        corrupted = replace(sol, log_weights=bad, transitions=np.exp(bad))
        checks, _ = run_battery(g9, nu0, nuN, 4, corrupted)
        value, tol = {name: (v, t) for name, v, t in checks}["solver-vs-oracle"]
        assert value > tol

    def test_transitions_view_losing_half_a_row_fails_path_normalization(self, g9):
        # the log weights still score every path right; only the flow sum sees it
        nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 4), nu0, nuN)
        P = sol.transitions.copy()
        P[0, sol.edges.out_edges(0)] *= 0.5
        checks, _ = run_battery(g9, nu0, nuN, 4, replace(sol, transitions=P))
        values = {name: v for name, v, _ in checks}
        assert values["path-normalization"] == pytest.approx(0.5, rel=1e-12)
        assert values["solver-vs-oracle"] <= 1e-15

    def test_mass_routed_off_the_target_fails_solver_vs_oracle(self, g9):
        # 1-2-3-8 and 1-3-4-8 carry 0.5 each; half of node 3's last step is
        # moved from 3 -> 8 onto 3 -> 4, off supp nuN and off every oracle
        # path.  The whole moved mass counts, not only its loss on 1-2-3-8.
        nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 8)
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 3), nu0, nuN)
        bad = sol.log_weights.copy()
        bad[2, g9.edge_index.find([2, 2], [7, 3])] = math.log(0.5)
        corrupted = replace(sol, log_weights=bad, transitions=np.exp(bad))
        checks, _ = run_battery(g9, nu0, nuN, 3, corrupted)
        values = {name: v for name, v, _ in checks}
        assert values["solver-vs-oracle"] == pytest.approx(0.25, rel=1e-12)
        assert values["path-normalization"] <= 1e-15

    def test_diffuse_source_checks_the_handed_bridge(self, g9):
        # the restriction ratio reads the handed bridge over both source nodes
        nu0 = as_marginal([0.6, 0.4, 0, 0, 0, 0, 0, 0, 0], 9)
        checks, _ = run_battery(g9, nu0, delta_marginal(9, 9), 4)
        assert [name for name, _, _ in checks] == CHECK_NAMES
        assert all(value <= tol for _, value, tol in checks), checks

    def test_inaccurate_diffuse_solve_fails_iterated_bridge(self):
        # the battery solves its nested diffuse pairs at the handed tolerance;
        # pairs ending at one delta target would read about 1e-16 at any
        g, nu0, nuN = g200_diffuse()
        for tol, passes in ((1e-12, True), (1e-3, False)):
            cfg = SolverConfig(tol=tol)
            sol = solve_schrodinger(boltzmann_prior(g, 1.0, 6), nu0, nuN, cfg)
            checks, meta = verify_battery(g, sol, nu0, nuN, 1.0, cfg, grid=[1.0], pairs=2)
            value, bound = {name: (v, t) for name, v, t in checks}["iterated-bridge"]
            assert (value <= bound) == passes, value
            assert meta["pairs_checked"] == 40000

    @settings(max_examples=30)
    @given(st.integers(0, 10_000), st.booleans())
    def test_every_check_passes_across_temperatures(self, seed, diffuse):
        # n, N and T come from one seed, so few draws land on trivial graphs
        rng = np.random.default_rng(seed)
        n, N = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        T = 10.0 ** rng.uniform(-3.0, 3.0)
        g = random_graph(rng, n, p_edge=rng.uniform(0.2, 0.6))
        nu0, nuN = feasible_marginals(rng, g, N, diffuse)
        cfg = SolverConfig()
        sol = solve_schrodinger(boltzmann_prior(g, T, N), nu0, nuN, cfg)
        checks, _ = verify_battery(g, sol, nu0, nuN, T, cfg, grid=[T / 2, T, 2 * T], pairs=2)
        assert [name for name, _, _ in checks] == CHECK_NAMES
        assert all(value <= tol for _, value, tol in checks), checks

    def test_zero_horizon_checks_the_marginal_only(self, g9):
        nu = delta_marginal(9, 3)
        checks, meta = run_battery(g9, nu, nu, 0)
        assert checks == [("solver-marginals", 0.0, 1e-11)]
        assert meta == {"degenerate": True}


OPTIMIZED_CHECKS = """
import numpy as np
import netbridge.oracle as oracle
from netbridge import EfficiencyReport, NetbridgeError, boltzmann_prior, g9_network

try:
    EfficiencyReport(average_length=1.0, entropy=1.0, free_energy=5.0,
                     temperature=1.0)
except ValueError:
    print("report raised")

enumerate_all = oracle.step_paths
oracle.step_paths = lambda *a, **k: enumerate_all(*a, **k)[1:]  # lose one path
try:
    everywhere = np.ones(9, dtype=bool)
    oracle.endpoint_kernel(boltzmann_prior(g9_network(), 1.0, 2), everywhere, everywhere)
except NetbridgeError:
    print("kernel raised")
"""


def test_consistency_checks_survive_optimize_flag():
    # `python -O` strips assert statements; these checks must still raise
    env = dict(os.environ, PYTHONPATH=str(Path(netbridge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["report raised", "kernel raised"]
