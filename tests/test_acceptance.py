"""Acceptance gate for the transport library.

Each test pins one externally checkable guarantee and prints a single
[PASS]/[FAIL] line, so the suite reads as a checklist under ``pytest -v -s``.
Golden numbers trace to the analytic seven-path family of the nine-node
benchmark or to closed forms recomputed inline; every tolerance is stated
next to its check.
"""

import math

import numpy as np
import pytest

from netbridge import (
    InfeasibleBudgetError,
    PathMeasure,
    TemperatureLimit,
    boltzmann_prior,
    calibrate_temperature,
    conditioned_boltzmann,
    count_feasible_paths,
    delta_marginal,
    enumerate_feasible_paths,
    expected_length_at,
    free_energy,
    iterated_bridge_check,
    length_variance,
    measure_from_chain,
    most_probable_paths,
    oracle_bridge,
    partition_function,
    path_length,
    path_probability,
    perron,
    relative_entropy,
    restriction_ratio_check,
    ruelle_bowen_chain,
    solve_schrodinger,
    total_variation,
    verify_equal_length_masses,
)
from conftest import dense_steps, edge_weights


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def bridge_19(g, T, N):
    """Unit mass from node 1 to node 9, the benchmark's standing instance."""
    prior = boltzmann_prior(g, T, N)
    return solve_schrodinger(prior, delta_marginal(g.n, 1), delta_marginal(g.n, 9))


# Reference mass evolutions for delta_1 -> delta_9 transport on the nine-node
# benchmark; row t is the distribution after t steps.  The four-decimal
# entries are rounded, hence the 1e-3 comparisons below.

FLOW_UNIT_N3 = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1 / 3, 2 / 3, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
])

FLOW_UNIT_N4_T1 = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0.4705, 0.3059, 0.2236, 0, 0, 0, 0, 0],
    [0, 0, 0.0823, 0.0823, 0.1645, 0, 0.2236, 0.4473, 0],
    [0, 0, 0, 0, 0, 0.0823, 0.0823, 0.1645, 0.6709],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
])

FLOW_UNIT_N4_COLD = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0.3334, 0.3333, 0.3333, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0.3334, 0.6666, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
])

FLOW_LONG79_T1 = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0.1554, 0.4223, 0.4223, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0.1554, 0.8446, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
])

FLOW_LONG79_COLD = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1 / 2, 1 / 2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
])

FLOW_LONG79_HOT = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0.3311, 0.3344, 0.3344, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0.3311, 0.6689, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
])

MINIMAL_N4 = [(1, 2, 7, 9, 9), (1, 3, 8, 9, 9), (1, 4, 8, 9, 9)]
DETOUR_N4 = [(1, 2, 5, 6, 9), (1, 2, 5, 7, 9), (1, 3, 4, 8, 9), (1, 2, 3, 8, 9)]


def test_three_step_flow_is_uniform_over_shortest_paths(g9):
    sol = bridge_19(g9, 1.0, 3)
    dev = float(np.abs(sol.marginals - FLOW_UNIT_N3).max())
    report("three-step unit-cost flow splits 1/3-1/3-1/3 over the shortest paths",
           dev <= 1e-6, f"max flow deviation {dev:.2e} (tol 1e-6)")


def test_four_step_flow_matches_reference_distribution(g9):
    sol = bridge_19(g9, 1.0, 4)
    dev = float(np.abs(sol.marginals - FLOW_UNIT_N4_T1).max())
    report("four-step flow at T=1 matches the reference mass evolution",
           dev <= 1e-3, f"max flow deviation {dev:.2e} (tol 1e-3)")


def test_four_step_path_masses_match_conditioned_boltzmann(g9):
    sol = bridge_19(g9, 1.0, 4)
    p3 = 1.0 / (3.0 + 4.0 * math.exp(-1.0))
    p4 = p3 * math.exp(-1.0)
    table_dev = max(
        max(abs(path_probability(sol, p) - 0.2236) for p in MINIMAL_N4),
        max(abs(path_probability(sol, p) - 0.0823) for p in DETOUR_N4),
    )
    exact_dev = max(
        max(abs(path_probability(sol, p) - p3) for p in MINIMAL_N4),
        max(abs(path_probability(sol, p) - p4) for p in DETOUR_N4),
    )
    report("four-step path masses are 1/(3+4/e) and e^-1/(3+4/e)",
           table_dev <= 1e-3 and exact_dev <= 1e-9,
           f"table deviation {table_dev:.2e} (tol 1e-3), "
           f"analytic deviation {exact_dev:.2e} (tol 1e-9)")


def test_cold_flow_concentrates_on_minimal_paths(g9):
    sol = bridge_19(g9, 0.1, 4)
    dev = float(np.abs(sol.marginals - FLOW_UNIT_N4_COLD).max())
    minimal_mass = sum(path_probability(sol, p) for p in MINIMAL_N4)
    report("T=0.1 flow matches the cold reference and loads minimal paths",
           dev <= 1e-3 and minimal_mass >= 0.999,
           f"max flow deviation {dev:.2e} (tol 1e-3), "
           f"minimal-path mass {minimal_mass:.6f} (floor 0.999)")


def test_longer_detour_edge_flows_across_temperatures(g9_long79):
    devs = []
    for T, ref in [(1.0, FLOW_LONG79_T1), (0.1, FLOW_LONG79_COLD),
                   (100.0, FLOW_LONG79_HOT)]:
        sol = bridge_19(g9_long79, T, 3)
        devs.append(float(np.abs(sol.marginals - ref).max()))
    report("modified graph (l_79=2) flows match references at T=1, 0.1, 100",
           max(devs) <= 1e-3,
           "deviations " + ", ".join(f"{d:.2e}" for d in devs) + " (tol 1e-3)")


def test_equal_length_flows_are_temperature_invariant(g9):
    flows = [bridge_19(g9, T, 3).marginals for T in (0.1, 1.0, 10.0)]
    dev = max(float(np.abs(a - b).max())
              for i, a in enumerate(flows) for b in flows[i + 1:])
    report("three-step flow is the same at T=0.1, 1, 10 (equal-length family)",
           dev <= 1e-9, f"max pairwise flow deviation {dev:.2e} (tol 1e-9)")


def _sources_reaching(g, N, targets):
    return [i for i in range(1, g.n + 1)
            if all(count_feasible_paths(g, N, source=i, target=j) > 0
                   for j in targets)]


def _weights_on(rng, n, support):
    w = np.zeros(n)
    w[np.asarray(support) - 1] = rng.random(len(support)) + 0.05
    return w / w.sum()


def test_iterated_bridge_matches_direct_bridge(g9):
    rng = np.random.default_rng(7_19_4)
    prior = boltzmann_prior(g9, 1.0, 4)
    wide = _sources_reaching(g9, 4, [9])
    shared = _sources_reaching(g9, 4, [8, 9])
    worst = 0.0
    for trial in range(100):
        if trial % 3 == 2 and len(shared) >= 2:
            # diffuse terminal mass over {8, 9}; sources must reach both
            sub = rng.choice(shared, size=rng.integers(1, len(shared) + 1),
                             replace=False)
            first = (_weights_on(rng, 9, shared), _weights_on(rng, 9, [8, 9]))
            second = (_weights_on(rng, 9, sub), _weights_on(rng, 9, [8, 9]))
        else:
            sub = rng.choice(wide, size=rng.integers(1, len(wide) + 1),
                             replace=False)
            first = (_weights_on(rng, 9, wide), delta_marginal(9, 9))
            second = (_weights_on(rng, 9, sub), delta_marginal(9, 9))
        worst = max(worst, iterated_bridge_check(prior, first, second))
    report("bridging over a bridge equals bridging over the prior (100 pairs)",
           worst <= 1e-9, f"max transition deviation {worst:.2e} (tol 1e-9)")


def test_solver_agrees_with_brute_force_oracle(g9, g9_long79):
    worst = 0.0
    cases = 0
    for g, T, N in [(g9, 1.0, 3), (g9, 1.0, 4), (g9, 0.1, 4),
                    (g9_long79, 1.0, 3), (g9_long79, 0.1, 3),
                    (g9_long79, 100.0, 3)]:
        prior = boltzmann_prior(g, T, N)
        nu0, nuN = delta_marginal(g.n, 1), delta_marginal(g.n, 9)
        sol = solve_schrodinger(prior, nu0, nuN)
        tv = total_variation(measure_from_chain(sol),
                             oracle_bridge(prior, nu0, nuN))
        worst = max(worst, tv)
        cases += 1
    rng = np.random.default_rng(8_50)
    graphs = [g9, g9_long79]
    while cases < 56:
        g = graphs[cases % 2]
        N = int(rng.integers(1, 6))
        T = float(10.0 ** rng.uniform(-1.0, 1.0))
        targets = [j for j in range(1, g.n + 1)
                   if any(count_feasible_paths(g, N, source=i, target=j) > 0
                          for i in range(1, g.n + 1))]
        picked = list(rng.choice(targets, size=min(len(targets), 1 + cases % 2),
                                 replace=False))
        sources = _sources_reaching(g, N, picked)
        if not sources:
            picked = picked[:1]
            sources = _sources_reaching(g, N, picked)
        sub = rng.choice(sources, size=rng.integers(1, len(sources) + 1),
                         replace=False)
        nu0 = _weights_on(rng, g.n, sub)
        nuN = _weights_on(rng, g.n, picked)
        prior = boltzmann_prior(g, T, N)
        sol = solve_schrodinger(prior, nu0, nuN)
        tv = total_variation(measure_from_chain(sol),
                             oracle_bridge(prior, nu0, nuN))
        worst = max(worst, tv)
        cases += 1
    report("solver and enumeration oracle agree on 56 instances",
           worst <= 1e-10, f"max total variation {worst:.2e} (tol 1e-10)")


def test_most_probable_path_set_is_temperature_invariant(g9, g9_long79):
    ok = True
    details = []
    for g, N, expect in [(g9, 4, set(MINIMAL_N4)),
                         (g9_long79, 3, {(1, 3, 8, 9), (1, 4, 8, 9)})]:
        sets = set()
        for T in (0.1, 0.5, 1.0, 2.0, 10.0):
            sol = bridge_19(g, T, N)
            sets.add(frozenset(most_probable_paths(sol, 1, 9)))
            sets.add(frozenset(most_probable_paths(boltzmann_prior(g, T, N), 1, 9)))
        ok = ok and sets == {frozenset(expect)}
        details.append(f"{len(expect)} minimal paths stable on "
                       f"{'modified' if g is g9_long79 else 'unit'} graph")
    report("argmax path set for 1->9 is the same at every temperature",
           ok, "; ".join(details))


def test_bridge_prior_ratio_is_constant_over_paths(g9, g9_long79):
    spreads = []
    for g, N in [(g9, 4), (g9_long79, 3)]:
        prior = boltzmann_prior(g, 1.0, N)
        sol = solve_schrodinger(prior, delta_marginal(9, 1), delta_marginal(9, 9))
        spreads.append(restriction_ratio_check(prior, sol, 1, 9))
    report("bridge mass / prior mass is one constant across all 1->9 paths",
           max(spreads) <= 1e-9,
           f"relative spreads {spreads[0]:.2e}, {spreads[1]:.2e} (tol 1e-9)")


def test_equal_length_paths_share_mass_under_length_prior(g9):
    pairs, spread = verify_equal_length_masses(g9, 1.0, 4)
    report("stationary-chain bridge gives each path mass proportional to exp(-l/T)",
           spread <= 1e-9,
           f"{pairs} endpoint pairs, spread of log mass + l/T {spread:.2e} (tol 1e-9)")


def test_length_slope_matches_variance_identity(g9):
    nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)
    h = 1e-4
    slope = (expected_length_at(g9, nu0, nuN, 4, 1.0 + h)
             - expected_length_at(g9, nu0, nuN, 4, 1.0 - h)) / (2.0 * h)
    sol = bridge_19(g9, 1.0, 4)
    ident = length_variance(sol, g9) / 1.0 ** 2
    rel = abs(slope - ident) / abs(ident)
    report("dE[l]/dT at T=1 equals Var[l]/T^2",
           rel <= 1e-4,
           f"central difference {slope:.10f} vs {ident:.10f}, "
           f"relative error {rel:.2e} (tol 1e-4)")


def test_free_energy_splits_into_divergence_and_log_partition(g9):
    rng = np.random.default_rng(1320)
    family = enumerate_feasible_paths(g9, 4)
    worst = 0.0
    for _ in range(20):
        T = float(10.0 ** rng.uniform(-0.7, 0.7))
        size = int(rng.integers(1, len(family) + 1))
        idx = rng.choice(len(family), size=size, replace=False)
        w = rng.random(size) + 0.05
        w /= w.sum()
        P = PathMeasure(4, [family[i] for i in idx], w)
        lhs = free_energy(P, T, g9).free_energy
        rhs = (T * relative_entropy(P, conditioned_boltzmann(g9, T, 4))
               - T * math.log(partition_function(g9, T, 4)))
        worst = max(worst, abs(lhs - rhs))
    report("F(P,T) = T D(P || P*_T) - T ln Z(T) for 20 random measures",
           worst <= 1e-10, f"max identity gap {worst:.2e} (tol 1e-10)")


def test_calibration_inverts_the_expected_length_curve(g9):
    nu0, nuN = delta_marginal(9, 1), delta_marginal(9, 9)

    def curve(T):
        # closed form for the seven-path family: lengths 3,3,3,4,4,4,4
        w = math.exp(-1.0 / T)
        return (9.0 + 16.0 * w) / (3.0 + 4.0 * w)

    worst = 0.0
    for budget in (3.1, 3.3, 3.5):
        res = calibrate_temperature(g9, nu0, nuN, 4, budget)
        assert isinstance(res.temperature, float)
        worst = max(worst, abs(res.achieved_length - budget),
                    abs(curve(res.temperature) - budget))
    zero = calibrate_temperature(g9, nu0, nuN, 4, 3.0)
    inf_at = calibrate_temperature(g9, nu0, nuN, 4, 25.0 / 7.0)
    inf_past = calibrate_temperature(g9, nu0, nuN, 4, 3.6)
    with pytest.raises(InfeasibleBudgetError):
        calibrate_temperature(g9, nu0, nuN, 4, 2.9)
    boundaries = (zero.temperature is TemperatureLimit.ZERO
                  and inf_at.temperature is TemperatureLimit.INFINITY
                  and inf_past.temperature is TemperatureLimit.INFINITY
                  and abs(inf_past.achieved_length - 25.0 / 7.0) <= 1e-12)
    report("calibration reproduces length budgets 3.1, 3.3, 3.5",
           worst <= 1e-8 and boundaries,
           f"max |achieved - budget| and curve cross-check {worst:.2e} "
           f"(tol 1e-8); bounds map to symbolic endpoints: {boundaries}")


def test_nonminimal_mass_is_bounded_by_boltzmann_factor(g9, g9_long79):
    ok = True
    worst_margin = -math.inf
    for g, N in [(g9, 4), (g9_long79, 3)]:
        paths = enumerate_feasible_paths(g, N, source=1, target=9)
        lmin = min(path_length(g, p) for p in paths)
        for T in (0.1, 1.0):
            sol = bridge_19(g, T, N)
            for p in paths:
                excess = path_length(g, p) - lmin
                if excess <= 0.0:
                    continue
                bound = math.exp(-excess / T)
                margin = path_probability(sol, p) - bound
                worst_margin = max(worst_margin, margin)
                ok = ok and margin <= 1e-12
    report("every non-minimal path mass obeys exp(-(l - l_min)/T)",
           ok, f"worst mass minus bound {worst_margin:.2e} (slack 1e-12)")


def test_perron_triples_support_the_entropy_walk(g9):
    prior = boltzmann_prior(g9, 1.0, 1)
    B = dense_steps(prior.edges, np.exp(prior.log_weights))[0]
    fib = np.array([[1.0, 1.0], [1.0, 0.0]])
    golden = (1.0 + math.sqrt(5.0)) / 2.0

    worst_res = 0.0
    for M in (B, fib):
        t = perron(*edge_weights(M))
        worst_res = max(
            worst_res,
            float(np.abs(M @ t.v - t.lam * t.v).max()) / t.lam,
            float(np.abs(t.u @ M - t.lam * t.u).max()) / t.lam,
        )
    gap = abs(perron(*edge_weights(fib)).lam - golden)

    chain = ruelle_bowen_chain(g9, 1.0, 4)
    R = dense_steps(chain.edges, np.exp(chain.log_weights))
    row_dev = float(np.abs(R.sum(axis=2) - 1.0).max())
    mu = chain.mu0
    stat_dev = float(np.abs(mu @ R[0] - mu).max())

    report("Perron triples are tight and the stationary walk is consistent",
           worst_res <= 1e-12 and gap <= 1e-12
           and row_dev <= 1e-12 and stat_dev <= 1e-12,
           f"eigen residual {worst_res:.2e}, Fibonacci gap {gap:.2e}, "
           f"row-sum deviation {row_dev:.2e}, stationarity {stat_dev:.2e} "
           f"(all tol 1e-12)")
