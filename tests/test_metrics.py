"""Path-measure functionals and graph efficiency statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from netbridge import (
    DirectedGraph,
    PathMeasure,
    average_path_length,
    boltzmann_prior,
    conditioned_boltzmann,
    delta_marginal,
    entropy,
    enumerate_feasible_paths,
    free_energy,
    graph_efficiency_stats,
    measure_from_chain,
    partition_function,
    path_length,
    relative_entropy,
    shortest_path_matrix,
    solve_schrodinger,
    total_variation,
)

from conftest import random_graph


def uniform_measure(paths, N):
    return PathMeasure(N, paths, np.full(len(paths), 1.0 / len(paths)))


class TestPathMeasure:
    def test_total_and_normalized(self):
        m = PathMeasure(1, [(1, 2), (2, 3)], [0.2, 0.6])
        assert m.total() == pytest.approx(0.8)
        assert m.paths.dtype == np.intp and m.paths.shape == (2, 2)
        assert m.masses[0] / m.total() == pytest.approx(0.25)

    def test_rejects_wrong_path_length(self):
        with pytest.raises(ValueError, match=r"need a \(P, 3\) array"):
            PathMeasure(2, [(1, 2)], [1.0])
        with pytest.raises(ValueError, match=r"need a \(P, 2\) array"):
            PathMeasure(1, [1, 2], [1.0, 1.0])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="must be finite and >= 0, got -0.5"):
            PathMeasure(1, [(1, 2)], [-0.5])
        with pytest.raises(ValueError, match="must be finite and >= 0, got nan"):
            PathMeasure(1, [(1, 2), (2, 1)], [1.0, float("nan")])
        with pytest.raises(ValueError, match="got inf"):
            PathMeasure(1, [(1, 2)], [float("inf")])
        with pytest.raises(ValueError, match=r"masses \(1,\)"):
            PathMeasure(1, [(1, 2), (2, 1)], [1.0])

    def test_rejects_duplicate_path(self):
        with pytest.raises(ValueError, match=r"duplicate path \(2, 1\)"):
            PathMeasure(1, [(2, 1), (1, 2), (2, 1)], [0.2, 0.3, 0.5])

    def test_rejects_bad_node_ids(self):
        with pytest.raises(ValueError, match="node ids >= 1"):
            PathMeasure(1, [(0, 1)], [1.0])
        with pytest.raises(ValueError, match="node ids >= 1"):
            PathMeasure(1, [(1.0, 2.0)], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one path"):
            PathMeasure(1, np.zeros((0, 2), dtype=np.intp), [])
        with pytest.raises(ValueError, match="at least one path"):
            PathMeasure(1, [], [])


class TestAverageLength:
    def test_enumeration_form(self, g9):
        paths = enumerate_feasible_paths(g9, 4, source=1, target=9)
        m = uniform_measure(paths, 4)
        want = sum(path_length(g9, p) for p in paths) / len(paths)
        assert average_path_length(m, g9) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(25.0 / 7.0)

    def test_chain_form_matches_enumeration(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 0.8, 4),
                                delta_marginal(9, 1), delta_marginal(9, 9))
        chain_value = average_path_length(sol, g9)
        enum_value = average_path_length(measure_from_chain(sol), g9)
        assert chain_value == pytest.approx(enum_value, abs=1e-13)

    def test_off_edge_mass_is_infinite(self, g9):
        m = PathMeasure(1, [(1, 9)], [1.0])
        assert math.isinf(average_path_length(m, g9))
        with pytest.raises(ValueError, match="node 10 out of range 1..9"):
            average_path_length(PathMeasure(1, [(9, 10)], [1.0]), g9)
        # a path with no mass is skipped, as its length does not count
        m = PathMeasure(1, [(1, 2), (1, 9)], [1.0, 0.0])
        assert average_path_length(m, g9) == 1.0


class TestEntropy:
    def test_uniform_entropy(self, g9):
        paths = enumerate_feasible_paths(g9, 3, source=1, target=9)
        assert entropy(uniform_measure(paths, 3)) == \
            pytest.approx(math.log(3), rel=1e-14)

    def test_point_mass_entropy_zero(self):
        assert entropy(PathMeasure(1, [(1, 2)], [1.0])) == 0.0

    def test_chain_rule_matches_enumeration(self, g9):
        sol = solve_schrodinger(boltzmann_prior(g9, 1.3, 4),
                                delta_marginal(9, 1), delta_marginal(9, 9))
        assert entropy(sol) == \
            pytest.approx(entropy(measure_from_chain(sol)), abs=1e-12)


class TestRelativeEntropy:
    def test_self_divergence_zero(self, g9):
        m = conditioned_boltzmann(g9, 1.0, 3)
        assert relative_entropy(m, m) == pytest.approx(0.0, abs=1e-14)

    def test_manual_two_point(self):
        P = PathMeasure(1, [(1, 2), (2, 1)], [0.75, 0.25])
        Q = PathMeasure(1, [(2, 1), (1, 2)], [0.5, 0.5])
        want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert relative_entropy(P, Q) == pytest.approx(want, rel=1e-14)

    def test_support_violation_infinite(self):
        P = PathMeasure(1, [(1, 2)], [1.0])
        Q = PathMeasure(1, [(2, 1)], [1.0])
        assert math.isinf(relative_entropy(P, Q))

    def test_cold_bridge_against_prior_chain(self, g9):
        # the prior masses exp(-l/0.002)/9 underflow in linear arithmetic;
        # the three minimal routes share the mass, so D = ln 3 + 3/0.002
        prior = boltzmann_prior(g9, 0.002, 4)
        sol = solve_schrodinger(prior, delta_marginal(9, 1), delta_marginal(9, 9))
        assert relative_entropy(measure_from_chain(sol), prior) == \
            pytest.approx(math.log(3) + 1500, rel=1e-12)

    def test_against_prior_chain(self, g9):
        prior = boltzmann_prior(g9, 1.0, 3)
        P = conditioned_boltzmann(g9, 1.0, 3)
        chain_route = relative_entropy(P, prior)
        measure_route = relative_entropy(P, measure_from_chain(prior))
        assert chain_route == pytest.approx(measure_route, abs=1e-11)


class TestFreeEnergy:
    def test_identity_holds(self, g9):
        m = conditioned_boltzmann(g9, 2.0, 4)
        rep = free_energy(m, 2.0, g9)
        assert rep.free_energy == pytest.approx(
            rep.average_length - 2.0 * rep.entropy, abs=1e-12)
        assert rep.temperature == 2.0

    def test_boltzmann_minimizes_free_energy(self, g9):
        # any competing measure on the same family pays at least as much
        T = 1.0
        star = conditioned_boltzmann(g9, T, 4)
        f_star = free_energy(star, T, g9).free_energy
        rng = np.random.default_rng(13)
        for _ in range(10):
            w = rng.dirichlet(np.ones(len(star.paths)))
            competitor = PathMeasure(4, star.paths, w)
            assert free_energy(competitor, T, g9).free_energy >= f_star - 1e-12

    def test_free_energy_equals_minus_t_log_z(self, g9):
        T = 0.7
        star = conditioned_boltzmann(g9, T, 3)
        want = -T * math.log(partition_function(g9, T, 3))
        assert free_energy(star, T, g9).free_energy == \
            pytest.approx(want, abs=1e-11)


class TestTotalVariation:
    def test_identical_measures(self, g9):
        m = conditioned_boltzmann(g9, 1.0, 3)
        assert total_variation(m, m) == 0.0

    def test_disjoint_measures(self):
        P = PathMeasure(1, [(1, 2)], [1.0])
        Q = PathMeasure(1, [(2, 1)], [1.0])
        assert total_variation(P, Q) == pytest.approx(1.0)

    def test_manual_value(self):
        P = PathMeasure(1, [(1, 2), (2, 1)], [0.7, 0.3])
        Q = PathMeasure(1, [(2, 1), (1, 2)], [0.6, 0.4])
        assert total_variation(P, Q) == pytest.approx(0.3, rel=1e-14)


class TestGraphEfficiency:
    def test_complete_graph_is_maximally_efficient(self):
        edges = tuple((i, j, 1.0) for i in range(1, 4) for j in range(1, 4)
                      if i != j)
        stats = graph_efficiency_stats(DirectedGraph(3, edges))
        assert stats.characteristic_length == pytest.approx(1.0)
        assert stats.global_efficiency == pytest.approx(1.0)

    def test_directed_chain(self):
        g = DirectedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
        stats = graph_efficiency_stats(g)
        # distances: 1->2:1, 1->3:2, 2->3:1; reverse pairs unreachable
        assert math.isinf(stats.characteristic_length)
        assert stats.reachable_pair_average == pytest.approx(4.0 / 3.0)
        assert stats.global_efficiency == pytest.approx((1 + 0.5 + 1) / 6.0)

    def test_funnel_graph(self, g9):
        stats = graph_efficiency_stats(g9)
        assert math.isinf(stats.characteristic_length)
        assert 0.0 < stats.global_efficiency < 1.0

    def test_longer_edge_lowers_efficiency(self, g9, g9_long79):
        a = graph_efficiency_stats(g9)
        b = graph_efficiency_stats(g9_long79)
        assert b.global_efficiency < a.global_efficiency

    def test_zero_length_route_makes_efficiency_infinite(self):
        g = DirectedGraph(3, ((1, 2, 0.0), (2, 3, 1.0), (3, 1, 1.0)))
        stats = graph_efficiency_stats(g)
        assert math.isinf(stats.global_efficiency)
        # 1->2: 0, 1->3: 1, 2->3: 1, 2->1: 2, 3->1: 1, 3->2: 1
        assert stats.characteristic_length == pytest.approx(1.0)

    def test_streamed_sums_match_the_distance_matrix(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)), p_edge=0.2)
            d = shortest_path_matrix(g)[~np.eye(g.n, dtype=bool)]
            finite = d[np.isfinite(d)]
            stats = graph_efficiency_stats(g)
            assert stats.reachable_pair_average == pytest.approx(finite.mean(), rel=1e-14)
            assert stats.global_efficiency == pytest.approx(
                (1.0 / finite).sum() / d.size, rel=1e-14)
            if finite.size == d.size:
                assert stats.characteristic_length == pytest.approx(d.mean(), rel=1e-14)
            else:
                assert math.isinf(stats.characteristic_length)

    def test_memory_stays_linear_in_n(self):
        # g1000's distance matrix alone is 8 MB; one row at a time is 8 kB
        g = random_graph(np.random.default_rng(1), 1000, 0.005)
        tracemalloc.start()
        try:
            stats = graph_efficiency_stats(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n == 1000
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"
