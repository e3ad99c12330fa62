"""Temperature calibration, sweeps, variance identities, transport limit."""

import math

import numpy as np
import pytest

from netbridge import (
    CalibrationResult,
    ConvergenceError,
    DirectedGraph,
    InfeasibleBudgetError,
    InfeasibleError,
    SolverConfig,
    TemperatureLimit,
    as_marginal,
    boltzmann_prior,
    calibrate_temperature,
    conditioned_boltzmann,
    delta_marginal,
    enumerate_feasible_paths,
    expected_length_at,
    length_variance,
    omt_approximation,
    path_length,
    path_probability,
    solve_schrodinger,
    temperature_sweep,
)
from conftest import random_graph


def curve_g9(T):
    """Closed-form expected length of the 7-path family at temperature T."""
    b = math.exp(-1.0 / T)
    return (9.0 + 16.0 * b) / (3.0 + 4.0 * b)


def delta(n, k):
    return delta_marginal(n, k)


class TestExpectedLength:
    def test_matches_closed_form(self, g9):
        for T in (0.2, 0.5, 1.0, 2.0, 7.0):
            got = expected_length_at(g9, delta(9, 1), delta(9, 9), 4, T)
            assert got == pytest.approx(curve_g9(T), abs=1e-10)

    def test_monotone_in_temperature(self, g9):
        values = [expected_length_at(g9, delta(9, 1), delta(9, 9), 4, T)
                  for T in (0.1, 0.3, 1.0, 3.0, 30.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestCalibration:
    def test_hits_interior_budgets(self, g9):
        for target in (3.1, 3.3, 3.5):
            res = calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4, target)
            assert isinstance(res, CalibrationResult)
            assert not res.at_bound
            assert abs(res.achieved_length - target) <= 1e-8
            assert abs(curve_g9(res.temperature) - target) <= 1e-8

    def test_budget_at_minimum_is_zero_limit(self, g9):
        res = calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4, 3.0)
        assert res.temperature is TemperatureLimit.ZERO
        assert res.at_bound
        assert res.achieved_length == pytest.approx(3.0)

    def test_budget_at_mean_is_infinite_limit(self, g9):
        res = calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4, 25.0 / 7.0)
        assert res.temperature is TemperatureLimit.INFINITY
        assert res.achieved_length == pytest.approx(25.0 / 7.0)

    def test_budget_below_minimum_rejected(self, g9):
        with pytest.raises(InfeasibleBudgetError) as err:
            calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4, 2.5)
        assert err.value.bounds == pytest.approx((3.0, 25.0 / 7.0))

    def test_budget_above_mean_is_infinite_limit(self, g9):
        res = calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4, 5.0)
        assert res.temperature is TemperatureLimit.INFINITY
        assert res.bounds == pytest.approx((3.0, 25.0 / 7.0))

    def test_bounds_of_a_family_too_large_to_count_in_floats(self):
        # 20^239 ~ 1e311 paths join 1 and 2 in the complete graph with
        # self-loops; their interior nodes are i.i.d. uniform, so the mean
        # is the mean first step, N - 2 mean edges and the mean last step
        n, N = 20, 240
        L = np.random.default_rng(8).uniform(0.1, 3.0, (n, n)).round(3)
        g = DirectedGraph(n, tuple((i + 1, j + 1, float(L[i, j]))
                                   for i in range(n) for j in range(n)))
        res = calibrate_temperature(g, delta(n, 1), delta(n, 2), N, 1e9)
        assert res.temperature is TemperatureLimit.INFINITY
        mean = L[0].mean() + (N - 2) * L.mean() + L[:, 1].mean()
        assert res.bounds[1] == pytest.approx(mean, rel=1e-12)
        assert N * L.min() <= res.bounds[0] < mean

    def test_constant_length_family_rejected(self, g9):
        # every admissible 3-step route has length 3; no interior solution
        with pytest.raises(InfeasibleError):
            calibrate_temperature(g9, delta(9, 1), delta(9, 9), 3, 3.0)

    def test_failed_probe_is_not_read_as_above_budget(self):
        # bounds [12.382, 16.00255]; the first bracket probe, T = 1e-2,
        # evaluates to L ~ 12.3823, just below the lower budget
        g = random_graph(np.random.default_rng(4), 40, 0.08)
        for budget in (13.5, 12.383):
            res = calibrate_temperature(g, delta(40, 1), delta(40, 2), 8, budget)
            assert res.bounds == pytest.approx((12.382, 16.00255))
            assert not res.at_bound
            assert abs(expected_length_at(g, delta(40, 1), delta(40, 2), 8,
                                          res.temperature) - budget) <= 1e-8

    def test_budget_below_lowest_evaluable_temperature_raises(self, g9):
        # with spread endpoint marginals the fitting contracts ever more
        # slowly as T falls: under a 300-sweep cap it converges at T=0.3
        # (L ~ 2.63) but not at T=0.1 (L ~ 2.504), so a budget of 2.505 needs
        # a temperature the solver cannot evaluate, while 2.7 does not
        nu0 = as_marginal([0.5, 0.5, 0, 0, 0, 0, 0, 0, 0], 9)
        nuN = as_marginal([0, 0, 0, 0, 0, 0, 0, 0.5, 0.5], 9)
        cfg = SolverConfig(max_iter=300)
        with pytest.raises(ConvergenceError, match="lowest at which"):
            calibrate_temperature(g9, nu0, nuN, 3, 2.505, config=cfg)
        res = calibrate_temperature(g9, nu0, nuN, 3, 2.7, config=cfg)
        assert res.bounds is None and not res.at_bound
        assert abs(expected_length_at(g9, nu0, nuN, 3, res.temperature) - 2.7) <= 1e-8

    def test_invalid_budget(self, g9):
        with pytest.raises(ValueError):
            calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4, float("inf"))


class TestVariance:
    def test_zero_for_constant_length_family(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.0, 3),
                                delta(9, 1), delta(9, 9))
        assert length_variance(sol, g9) <= 1e-14

    def test_enumeration_and_recursion_agree(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 0.9, 4),
                                delta(9, 1), delta(9, 9))
        weighted = [(path_probability(sol, p), path_length(g9, p))
                    for p in enumerate_feasible_paths(g9, 4, source=1)]
        mean = sum(w * l for w, l in weighted)
        by_enum = sum(w * (l - mean) ** 2 for w, l in weighted)
        assert length_variance(sol, g9) == pytest.approx(by_enum, abs=1e-12)
        assert by_enum > 0.0

    def test_centered_variance_keeps_precision_when_cold(self, g9_long79):
        # Var falls like exp(-1/T) here, far below eps * E[L^2] ~ 2e-15
        cond_T = {0.1: 2.27e-5, 0.05: 1.031e-9, 0.03: 1.669e-15, 0.02: 9.64e-23}
        for T, pinned in cond_T.items():
            cond = conditioned_boltzmann(g9_long79, T, 3, 1, 9)
            lengths = [path_length(g9_long79, p) for p in cond.paths.tolist()]
            weighted = list(zip(cond.masses.tolist(), lengths))
            mean = sum(m * l for m, l in weighted)
            want = sum(m * (l - mean) ** 2 for m, l in weighted)
            sol = solve_schrodinger(boltzmann_prior(g9_long79, T, 3),
                                    delta(9, 1), delta(9, 9))
            assert length_variance(sol, g9_long79) == pytest.approx(want, rel=1e-6, abs=0)
            assert want == pytest.approx(pinned, rel=1e-3, abs=0)

    def test_derivative_identity(self, g9):
        # dE/dT equals Var/T^2; central difference at T=1
        T, h = 1.0, 1e-4
        args = (g9, delta(9, 1), delta(9, 9), 4)
        diff = (expected_length_at(*args, T + h) -
                expected_length_at(*args, T - h)) / (2 * h)
        sol = solve_schrodinger(boltzmann_prior(g9, T, 4),
                                delta(9, 1), delta(9, 9))
        var = length_variance(sol, g9)
        assert diff == pytest.approx(var / T ** 2, rel=1e-4)


class TestSweep:
    def test_rows_sorted_and_monotone(self, g9):
        rows = temperature_sweep(g9, delta(9, 1), delta(9, 9), 4,
                                 [2.0, 0.1, 0.5, 10.0])
        temps = [r.temperature for r in rows]
        assert temps == sorted(temps)
        lengths = [r.average_length for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_tracked_paths_reported(self, g9):
        tracked = [(1, 2, 7, 9, 9), (1, 2, 5, 6, 9)]
        rows = temperature_sweep(g9, delta(9, 1), delta(9, 9), 4, [1.0],
                                 tracked_paths=tracked)
        masses = rows[0].path_masses
        p3 = 1.0 / (3.0 + 4.0 * math.exp(-1.0))
        assert masses[(1, 2, 7, 9, 9)] == pytest.approx(p3, abs=1e-10)
        assert masses[(1, 2, 5, 6, 9)] == pytest.approx(
            p3 * math.exp(-1.0), abs=1e-10)

    def test_flow_recorded(self, g9):
        rows = temperature_sweep(g9, delta(9, 1), delta(9, 9), 3, [1.0])
        assert rows[0].marginal_flow.shape == (4, 9)
        assert rows[0].marginal_flow[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_empty_grid_rejected(self, g9):
        with pytest.raises(ValueError):
            temperature_sweep(g9, delta(9, 1), delta(9, 9), 3, [])

    def test_bad_temperature_rejected(self, g9):
        with pytest.raises(ValueError):
            temperature_sweep(g9, delta(9, 1), delta(9, 9), 3, [1.0, -2.0])


class TestTransportLimit:
    def test_mass_concentrates_on_minimal_paths(self, g9):
        approx = omt_approximation(g9, delta(9, 1), delta(9, 9), 4)
        assert approx.minimal_length == pytest.approx(3.0)
        assert approx.minimal_paths.tolist() == [[1, 2, 7, 9, 9], [1, 3, 8, 9, 9],
                                                 [1, 4, 8, 9, 9]]
        assert approx.minimal_mass >= 0.999

    def test_smaller_temperature_concentrates_harder(self, g9):
        loose = omt_approximation(g9, delta(9, 1), delta(9, 9), 4, T_small=0.5)
        tight = omt_approximation(g9, delta(9, 1), delta(9, 9), 4, T_small=0.1)
        assert tight.minimal_mass > loose.minimal_mass

    def test_modified_graph_limit(self, g9_long79):
        approx = omt_approximation(g9_long79, delta(9, 1), delta(9, 9), 3)
        assert approx.minimal_paths.tolist() == [[1, 3, 8, 9], [1, 4, 8, 9]]
        assert approx.minimal_mass >= 0.999

    def test_cold_limit_puts_all_mass_on_minimal_paths(self, g9, g9_long79):
        for g, N in ((g9, 4), (g9_long79, 3), (g9_long79, 4)):
            for T in (1e-3, 1e-6):
                approx = omt_approximation(g, delta(9, 1), delta(9, 9), N, T_small=T)
                assert approx.minimal_mass >= 1.0 - 1e-9

    def test_hot_limit_is_the_family_mean(self, g9, g9_long79):
        # the plain mean over the family is calibrate's upper bound
        for g, N in ((g9, 4), (g9_long79, 3), (g9_long79, 4)):
            mean = calibrate_temperature(g, delta(9, 1), delta(9, 9), N, 100.0).bounds[1]
            L = expected_length_at(g, delta(9, 1), delta(9, 9), N, 1e6)
            assert abs(L - mean) <= 1e-5
