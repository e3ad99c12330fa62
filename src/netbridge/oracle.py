"""Brute-force reference solutions used to cross-check the main solver.

The oracle works on the n x n endpoint kernel instead of the (N+1)-stage
potential recursion: the bridge factorizes into endpoint scalings of the
prior, so alternating row/column scaling of the kernel followed by
distributing each endpoint mass over the conditioned prior paths gives the
exact answer by a deliberately different route.  Everything here enumerates
paths and refuses oversized instances rather than sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import logsumexp
from .bridge import SolverConfig, as_marginal, delta_marginal, solve_schrodinger
from .errors import ConvergenceError, InfeasibleError, NetbridgeError
from .graph import PATH_CAP, DirectedGraph, enumerate_feasible_paths, path_length, \
    require_routes, step_paths, step_reach
from .metrics import PathMeasure, measure_from_chain
from .prior import PriorChain, check_temperature, log_path_masses, ruelle_bowen_chain

ORACLE_TOL = 1e-13
ORACLE_MAX_SWEEPS = 1_000_000


@dataclass(frozen=True)
class EndpointKernel:
    """n x n matrix G with G[i, j] = total transition-product mass of i -> j paths."""

    N: int
    matrix: np.ndarray


def _prior_paths(prior: PriorChain, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The paths on the prior's support as a (P, N+1) array, with their
    transition-product weights (mu0 excluded)."""
    paths = step_paths(prior.edges, prior.support, cap=cap)
    unit = PriorChain(prior.edges, prior.log_weights, np.ones(prior.n))
    return (np.array(paths, dtype=np.intp).reshape(len(paths), prior.N + 1),
            np.exp(log_path_masses(unit, paths)))


def endpoint_kernel(prior: PriorChain, cap: int = PATH_CAP) -> EndpointKernel:
    """Aggregate the prior over interior nodes, keeping endpoints only.

    Computed twice on purpose: once by enumerating paths over the prior's
    support and once as the ordered matrix product of the step matrices.
    The two routes must agree to 1e-12; disagreement means a bookkeeping
    bug, so it raises NetbridgeError rather than returning either.
    """
    n = prior.n
    paths, weights = _prior_paths(prior, cap)
    by_enum = np.zeros((n, n))
    np.add.at(by_enum, (paths[:, 0] - 1, paths[:, -1] - 1), weights)
    prod = np.eye(n)
    for t in range(prior.N):
        prod = prod @ prior.matrix(t)
    gap = float(np.abs(by_enum - prod).max())
    scale = max(1.0, float(np.abs(prod).max()))
    if not gap <= 1e-12 * scale:
        raise NetbridgeError(f"endpoint kernel routes disagree by {gap}")
    return EndpointKernel(N=prior.N, matrix=prod)


def oracle_bridge(prior: PriorChain, g: DirectedGraph, nu0, nuN,
                  cap: int = PATH_CAP) -> PathMeasure:
    """Solve the two-marginal problem by scaling the endpoint kernel.

    Finds positive diagonal scalings a, b with diag(a) G diag(b) having row
    sums nu0 and column sums nuN, then spreads each endpoint mass over the
    conditioned prior paths.  Exact or absent: instances whose enumeration
    exceeds `cap` are refused.
    """
    n = prior.n
    nu0 = as_marginal(nu0, n)
    nuN = as_marginal(nuN, n)
    if prior.N == 0:
        if float(np.abs(nu0 - nuN).max()) > 1e-12:
            raise InfeasibleError("N=0 requires identical endpoint marginals")
        masses = {(i + 1,): float(nu0[i]) for i in np.flatnonzero(nu0 > 0)}
        return PathMeasure(0, masses)
    G = endpoint_kernel(prior, cap=cap).matrix
    supp0 = nu0 > 0.0
    suppN = nuN > 0.0
    require_routes(G[np.ix_(supp0, suppN)] > 0.0, supp0, suppN, prior.N)
    a = np.zeros(n)
    b = np.where(suppN, 1.0, 0.0)
    for _ in range(ORACLE_MAX_SWEEPS):
        Gb = G @ b
        a = np.where(supp0, nu0 / np.where(supp0, Gb, 1.0), 0.0)
        Ga = G.T @ a
        b = np.where(suppN, nuN / np.where(suppN, Ga, 1.0), 0.0)
        row_err = float(np.abs(a * (G @ b) - nu0).max())
        col_err = float(np.abs(b * (G.T @ a) - nuN).max())
        if max(row_err, col_err) <= ORACLE_TOL:
            break
    else:
        raise ConvergenceError(
            f"kernel scaling did not converge in {ORACLE_MAX_SWEEPS} sweeps",
            residual=max(row_err, col_err), iterations=ORACLE_MAX_SWEEPS,
        )
    paths, weights = _prior_paths(prior, cap)
    masses = a[paths[:, 0] - 1] * b[paths[:, -1] - 1] * weights
    keep = np.flatnonzero(masses > 0.0)
    return PathMeasure(prior.N, dict(zip(map(tuple, paths[keep].tolist()),
                                         masses[keep].tolist())))


def conditioned_boltzmann(g: DirectedGraph, T: float, N: int,
                          source: int | None = None, target: int | None = None,
                          cap: int = PATH_CAP) -> PathMeasure:
    """Boltzmann measure exp(-l/T)/Z over the feasible N-step paths, optionally
    restricted to those leaving `source` and/or entering `target`.

    Pinned at both ends this is the closed-form answer for a delta-pinned
    bridge over the Boltzmann prior; normalization happens in log space.
    """
    check_temperature(T)
    paths = enumerate_feasible_paths(g, N, source=source, target=target, cap=cap)
    if not paths:
        raise InfeasibleError(f"no feasible {N}-step path"
                              + (f" from node {source}" if source is not None else "")
                              + (f" to node {target}" if target is not None else ""))
    logw = np.array([-path_length(g, p) / T for p in paths])
    logz = logsumexp(logw)
    return PathMeasure(N, {p: float(np.exp(lw - logz)) for p, lw in zip(paths, logw)})


@dataclass(frozen=True)
class EqualLengthReport:
    """Equal-mass check for equal-length paths under the stationary-chain bridge."""

    pairs_checked: int
    max_spread: float
    minimal_group_dominates: bool
    max_dominance_gap: float


def verify_equal_length_masses(g: DirectedGraph, T: float, N: int,
                               config: SolverConfig | None = None,
                               cap: int = PATH_CAP) -> EqualLengthReport:
    """Bridge every connected delta pair over the stationary chain and check
    that paths of equal length carry equal mass.

    Groups source -> target path masses by total length; reports the largest
    within-group relative spread and whether the minimal-length group
    dominates every longer group's masses for each pair.
    """
    prior = ruelle_bowen_chain(g, T, N)
    cfg = config or SolverConfig()
    reach = step_reach(g.edge_index, np.ones((N, len(g.edges)), dtype=bool),
                       np.eye(g.n, dtype=bool))[0]
    pairs = 0
    max_spread = 0.0
    dominates = True
    max_gap = 0.0
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            if not reach[i - 1, j - 1]:
                continue
            pairs += 1
            sol = solve_schrodinger(prior, delta_marginal(g.n, i),
                                    delta_marginal(g.n, j), cfg)
            groups: dict[float, list[float]] = {}
            for p, m in measure_from_chain(sol.chain, cap).masses.items():
                groups.setdefault(round(path_length(g, p), 9), []).append(m)
            for members in groups.values():
                top = max(members)
                if top > 0.0:
                    max_spread = max(max_spread, (top - min(members)) / top)
            lmin = min(groups)
            floor = min(groups[lmin])
            for l, members in groups.items():
                if l == lmin:
                    continue
                gap = max(members) - floor
                if gap > 1e-9 * max(floor, 1e-300):
                    dominates = False
                max_gap = max(max_gap, gap)
    return EqualLengthReport(
        pairs_checked=pairs, max_spread=max_spread,
        minimal_group_dominates=dominates, max_dominance_gap=max_gap,
    )
