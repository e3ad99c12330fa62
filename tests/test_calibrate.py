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
    LengthBudget,
    TemperatureLimit,
    boltzmann_prior,
    calibrate_temperature,
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

    def test_budget_object_accepted(self, g9):
        res = calibrate_temperature(g9, delta(9, 1), delta(9, 9), 4,
                                    LengthBudget(3.2))
        assert abs(res.achieved_length - 3.2) <= 1e-8

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

    def test_constant_length_family_rejected(self, g9):
        # every admissible 3-step route has length 3; no interior solution
        with pytest.raises(InfeasibleError):
            calibrate_temperature(g9, delta(9, 1), delta(9, 9), 3, 3.0)

    def test_failed_probe_is_not_read_as_above_budget(self):
        # T=1e-2 underflows on this instance, but L(0.1) ~ 12.401 and
        # L(1) ~ 13.122 evaluate: the budget lies inside the bracket
        g = random_graph(np.random.default_rng(4), 40, 0.08)
        res = calibrate_temperature(g, delta(40, 1), delta(40, 2), 8, 13.5)
        assert res.bounds == pytest.approx((12.382, 16.00255))
        assert not res.at_bound
        assert abs(expected_length_at(g, delta(40, 1), delta(40, 2), 8,
                                      res.temperature) - 13.5) <= 1e-8

    def test_budget_below_lowest_evaluable_temperature_raises(self):
        # L at the lowest temperature that evaluates (about 0.016) is ~12.384
        g = random_graph(np.random.default_rng(4), 40, 0.08)
        with pytest.raises(ConvergenceError, match="lowest at which"):
            calibrate_temperature(g, delta(40, 1), delta(40, 2), 8, 12.383)

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
        assert set(approx.minimal_paths) == {(1, 2, 7, 9, 9), (1, 3, 8, 9, 9),
                                             (1, 4, 8, 9, 9)}
        assert approx.minimal_mass >= 0.999

    def test_smaller_temperature_concentrates_harder(self, g9):
        loose = omt_approximation(g9, delta(9, 1), delta(9, 9), 4, T_small=0.5)
        tight = omt_approximation(g9, delta(9, 1), delta(9, 9), 4, T_small=0.1)
        assert tight.minimal_mass > loose.minimal_mass

    def test_modified_graph_limit(self, g9_long79):
        approx = omt_approximation(g9_long79, delta(9, 1), delta(9, 9), 3)
        assert set(approx.minimal_paths) == {(1, 3, 8, 9), (1, 4, 8, 9)}
        assert approx.minimal_mass >= 0.999
