"""Boltzmann priors, Perron triples, and the entropy-maximizing walk."""

import math
import warnings

import numpy as np
import pytest

from netbridge import (
    ConvergenceError,
    DirectedGraph,
    EdgeIndex,
    InfeasibleError,
    PerronTriple,
    PriorChain,
    boltzmann_prior,
    chain_path_mass,
    enumerate_feasible_paths,
    log_path_masses,
    partition_function,
    path_length,
    perron,
    ruelle_bowen_chain,
)
from conftest import dense_steps, edge_weights, random_graph


def dense(chain):
    """The chain's linear step weights as N dense n x n matrices."""
    return dense_steps(chain.edges, np.exp(chain.log_weights))

FIBONACCI = np.array([[1.0, 1.0], [1.0, 0.0]])
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestPriorChain:
    def test_boltzmann_entries(self, g9):
        prior = boltzmann_prior(g9, 2.0, 3)
        M, M1 = dense(prior)[:2]
        assert M[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert M[8, 8] == pytest.approx(1.0, rel=1e-14)
        assert M[1, 0] == 0.0
        assert np.allclose(M1, M)

    def test_uniform_initial_marginal(self, g9):
        prior = boltzmann_prior(g9, 1.0, 2)
        assert np.allclose(prior.mu0, np.full(9, 1.0 / 9.0))

    def test_dimensions(self, g9):
        prior = boltzmann_prior(g9, 1.0, 4)
        assert prior.N == 4
        assert prior.n == 9

    def test_zero_step_chain(self, g9):
        prior = boltzmann_prior(g9, 1.0, 0)
        assert prior.N == 0
        assert prior.n == 9

    def test_temperature_validation(self, g9):
        for T in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                boltzmann_prior(g9, T, 2)

    def test_overflowing_log_weight_is_a_located_error(self, g9):
        # -1/1e-310 is not representable: an input error naming the first
        # such edge, with no overflow warning and no claim of infeasibility
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (boltzmann_prior, partition_function):
                with pytest.raises(ValueError, match=r"edge 1 -> 2 \(length 1\)"):
                    build(g9, 1e-310, 4)
            with pytest.raises(ValueError, match="overflows"):
                ruelle_bowen_chain(g9, 1e-310, 4)
            # zero lengths stay finite at any temperature
            flat = DirectedGraph(2, ((1, 2, 0.0), (2, 2, 0.0)))
            assert np.all(boltzmann_prior(flat, 1e-310, 2).log_weights == 0.0)

    def test_shape_mismatch_rejected(self):
        edges = EdgeIndex(2, [0, 0, 1, 1], [0, 1, 0, 1])
        with pytest.raises(ValueError):
            PriorChain(edges, np.ones((1, 3)), np.ones(2) / 2)  # 4 edges, 3 weights
        with pytest.raises(ValueError):
            PriorChain(edges, np.ones(4), np.ones(2) / 2)  # no step axis
        with pytest.raises(ValueError):
            PriorChain(edges, np.zeros((1, 4)), np.ones(3) / 3)  # mu0 over 3 nodes

    def test_mu0_validation(self):
        edges = EdgeIndex(2, [0, 0, 1, 1], [0, 1, 0, 1])
        with pytest.raises(ValueError):
            PriorChain(edges, np.zeros((1, 4)), np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            PriorChain(edges, np.zeros((1, 4)), np.zeros(2))

    def test_path_mass_matches_manual_product(self, g9):
        T = 1.3
        prior = boltzmann_prior(g9, T, 3)
        p = (1, 2, 7, 9)
        want = (1.0 / 9.0) * math.exp(-path_length(g9, p) / T)
        assert chain_path_mass(prior, p) == pytest.approx(want, rel=1e-12)

    def test_path_mass_zero_off_support(self, g9):
        prior = boltzmann_prior(g9, 1.0, 2)
        assert chain_path_mass(prior, (1, 9, 9)) == 0.0

    def test_log_path_masses_in_one_call(self, g9):
        T = 0.001  # every mass exp(-l/T)/9 underflows in linear arithmetic
        prior = boltzmann_prior(g9, T, 3)
        paths = enumerate_feasible_paths(g9, 3, source=1) + [(1, 9, 9, 9)]
        got = log_path_masses(prior, paths)
        want = [-math.log(9) - path_length(g9, p) / T for p in paths]
        assert got == pytest.approx(want, rel=1e-15)
        assert got[-1] == -math.inf  # 1 -> 9 is no edge
        assert log_path_masses(prior, []).shape == (0,)

    def test_log_path_masses_without_start_mass(self, g9):
        base = boltzmann_prior(g9, 1.0, 2)
        mu0 = np.zeros(9)
        mu0[1] = 1.0
        chain = PriorChain(base.edges, base.log_weights, mu0)
        got = log_path_masses(chain, [(1, 2, 7), (2, 7, 9)])
        assert got[0] == -math.inf and got[1] == pytest.approx(-2.0, rel=1e-15)

    def test_log_path_masses_rejects_bad_paths(self, g9):
        prior = boltzmann_prior(g9, 1.0, 2)
        with pytest.raises(ValueError, match="path has 3 steps, prior expects 2"):
            log_path_masses(prior, [(1, 2, 7), (1, 2, 7, 9)])
        with pytest.raises(ValueError, match="node 10 out of range 1..9"):
            log_path_masses(prior, [(1, 2, 7), (2, 7, 10)])
        with pytest.raises(ValueError, match="node 0 out of range 1..9"):
            chain_path_mass(prior, (0, 1, 2))
        with pytest.raises(ValueError, match=f"node {2 ** 70} out of range 1..9"):
            chain_path_mass(prior, (1, 2 ** 70, 2))

    def test_scale_annotations_change_true_mass(self, g9):
        base = boltzmann_prior(g9, 1.0, 2)
        shifted = PriorChain(base.edges, base.log_weights + 1.0, base.mu0)
        p = (1, 2, 7)
        assert chain_path_mass(shifted, p) == \
            pytest.approx(chain_path_mass(base, p) * math.e ** 2, rel=1e-12)


class TestPartitionFunction:
    def test_matches_enumeration(self, g9, g9_long79):
        for g in (g9, g9_long79):
            for T in (0.5, 1.0, 3.0):
                for N in (1, 2, 3, 4):
                    want = sum(
                        math.exp(-path_length(g, p) / T)
                        for s in range(1, g.n + 1)
                        for p in enumerate_feasible_paths(g, N, source=s)
                    )
                    assert partition_function(g, T, N) == \
                        pytest.approx(want, rel=1e-12)

    def test_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 6)))
            T = float(rng.uniform(0.3, 3.0))
            N = int(rng.integers(1, 4))
            want = sum(math.exp(-path_length(g, p) / T)
                       for s in range(1, g.n + 1)
                       for p in enumerate_feasible_paths(g, N, source=s))
            assert partition_function(g, T, N) == pytest.approx(want, rel=1e-11)

    def test_edgeless_graph_infeasible(self):
        g = DirectedGraph(3, ())
        with pytest.raises(InfeasibleError):
            partition_function(g, 1.0, 2)


class TestPerron:
    def test_fibonacci_eigenvalue(self):
        res = perron(*edge_weights(FIBONACCI))
        assert abs(res.lam - GOLDEN) <= 1e-12

    def test_residuals_small(self):
        res = perron(*edge_weights(FIBONACCI))
        assert np.abs(FIBONACCI @ res.v - res.lam * res.v).max() <= 1e-12 * res.lam
        assert np.abs(res.u @ FIBONACCI - res.lam * res.u).max() <= 1e-12 * res.lam

    def test_normalization(self):
        res = perron(*edge_weights(FIBONACCI))
        assert res.u @ res.v == pytest.approx(1.0, abs=1e-13)
        assert res.v.sum() == pytest.approx(1.0, abs=1e-13)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            B = rng.random((n, n)) + 0.05
            res = perron(*edge_weights(B))
            lam_np = max(abs(np.linalg.eigvals(B)))
            assert res.lam == pytest.approx(lam_np, rel=1e-10)
            assert np.abs(B @ res.v - res.lam * res.v).max() <= 1e-12 * res.lam

    def test_scale_invariance_of_vectors(self):
        rng = np.random.default_rng(5)
        B = rng.random((5, 5)) + 0.1
        a, b = perron(*edge_weights(B)), perron(*edge_weights(100.0 * B))
        assert b.lam == pytest.approx(100.0 * a.lam, rel=1e-11)
        assert np.allclose(a.v, b.v, atol=1e-10)
        assert np.allclose(a.u, b.u, atol=1e-10)

    def test_reducible_funnel(self, g9):
        B = dense(boltzmann_prior(g9, 1.0, 1))[0]
        res = perron(*edge_weights(B))
        # the only cycle is the zero-length self-loop, so the radius is 1
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert np.abs(B @ res.v - res.lam * res.v).max() <= 1e-12 * res.lam

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConvergenceError):
            perron(*edge_weights(np.zeros((3, 3))))

    def test_negative_entries_rejected(self):
        edges = EdgeIndex(2, [0, 1, 1], [0, 0, 1])
        with pytest.raises(ValueError):
            perron(edges, [1.0, -0.1, 1.0])

    def test_result_is_frozen(self):
        res = perron(*edge_weights(FIBONACCI))
        assert isinstance(res, PerronTriple)
        with pytest.raises(AttributeError):
            res.lam = 2.0


class TestRuelleBowen:
    def test_rows_are_distributions(self, ring4):
        chain = ruelle_bowen_chain(ring4, 1.0, 3)
        assert np.abs(dense(chain).sum(axis=2) - 1.0).max() <= 1e-12

    def test_stationary_marginal(self, ring4):
        chain = ruelle_bowen_chain(ring4, 1.0, 2)
        mu = chain.mu0
        assert np.abs(mu @ dense(chain)[0] - mu).max() <= 1e-12
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_entropy_rate_is_log_spectral_radius(self, ring4):
        # with equal edge lengths the walk reduces to the adjacency case,
        # whose entropy rate is the log of the Perron eigenvalue
        chain = ruelle_bowen_chain(ring4, 1.0, 1)
        R, mu = dense(chain)[0], chain.mu0
        rate = -sum(mu[i] * R[i, j] * math.log(R[i, j])
                    for i in range(4) for j in range(4) if R[i, j] > 0)
        A = (dense(boltzmann_prior(ring4, 1.0, 1))[0] > 0).astype(float)
        lam = max(abs(np.linalg.eigvals(A)))
        assert rate == pytest.approx(math.log(lam), abs=1e-10)

    def test_funnel_graph_concentrates_on_sink(self, g9):
        chain = ruelle_bowen_chain(g9, 1.0, 2)
        mu = chain.mu0
        assert mu[8] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(dense(chain).sum(axis=2) - 1.0).max() <= 1e-12

    def test_rejects_dead_end_nodes(self):
        g = DirectedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
        with pytest.raises(InfeasibleError):
            ruelle_bowen_chain(g, 1.0, 2)
