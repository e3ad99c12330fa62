"""Brute-force reference solutions and the cross-checks of the main solver.

The oracle works on the n x n endpoint kernel instead of the (N+1)-stage
potential recursion: the bridge factorizes into endpoint scalings of the
prior, so alternating row/column scaling of the kernel followed by
distributing each endpoint mass over the conditioned prior paths gives the
exact answer by a deliberately different route.  The kernel is summed in
log space from the prior's paths, enumerated once, and scaled on log
potentials, so no weight underflows and the oracle checks the solver at any
temperature.  It refuses instances past PATH_CAP paths rather than sampling.

`verify_battery` runs every cross-check on one solved bridge: agreement
with the oracle, and the invariances the paper proves (iterated bridges,
most probable paths, the restriction ratio, equal-length masses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import logsumexp
from .bridge import BridgeSolution, SolverConfig, as_marginal, delta_marginal, \
    most_probable_paths, solve_schrodinger
from .errors import ConvergenceError, InfeasibleError, NetbridgeError
from .graph import DirectedGraph, enumerate_feasible_paths, path_length, require_routes, \
    step_paths, step_reach
from .metrics import PathMeasure, measure_from_chain, total_variation
from .prior import PriorChain, boltzmann_prior, check_temperature, log_path_masses, \
    ruelle_bowen_chain

ORACLE_TOL = 1e-13
ORACLE_MAX_SWEEPS = 1_000_000
# verify_battery: the seed of its random marginals and its pass tolerances
VERIFY_SEED = 0
VERIFY_TOL_ORACLE = 1e-10
VERIFY_TOL_INVARIANCE = 1e-9


@dataclass(frozen=True)
class EndpointKernel:
    """The prior's support paths as a (P, N+1) array, their log transition
    products (mu0 excluded) and log_matrix[i, j], the log total weight of
    the i -> j paths (-inf where none joins them)."""

    paths: np.ndarray
    log_weights: np.ndarray
    log_matrix: np.ndarray


def endpoint_kernel(prior: PriorChain) -> EndpointKernel:
    """Aggregate the prior over interior nodes, keeping endpoints only.

    Computed twice on purpose: once by enumerating paths over the prior's
    support and once as the ordered log-domain product of the step
    matrices.  The two must share their support and agree to 1e-12 relative
    on every log entry; disagreement means a bookkeeping bug, so it raises
    NetbridgeError rather than returning either.
    """
    n = prior.n
    paths = np.array(step_paths(prior.edges, prior.support),
                     dtype=np.intp).reshape(-1, prior.N + 1)
    log_w = log_path_masses(PriorChain(prior.edges, prior.log_weights, np.ones(n)), paths)
    log_G = np.full((n, n), -np.inf)
    np.logaddexp.at(log_G, (paths[:, 0] - 1, paths[:, -1] - 1), log_w)
    prod = np.where(np.eye(n, dtype=bool), 0.0, -np.inf)
    rows = max(1, 2**22 // n**2)  # bounds each (rows, n, n) temporary at 32 MB
    for t in range(prior.N):
        step = np.full((n, n), -np.inf)
        step[prior.edges.src, prior.edges.dst] = prior.log_weights[t]
        prod = np.concatenate([logsumexp(prod[r:r + rows, :, None] + step, axis=1)
                               for r in range(0, n, rows)])
    on = prod > -np.inf
    gap = float("inf") if not np.array_equal(on, log_G > -np.inf) else float(
        (np.abs(log_G[on] - prod[on]) / np.maximum(1.0, np.abs(prod[on]))).max(initial=0.0))
    if not gap <= 1e-12:
        raise NetbridgeError(f"endpoint kernel routes disagree by {gap} (relative, in log)")
    return EndpointKernel(paths=paths, log_weights=log_w, log_matrix=log_G)


def oracle_bridge(prior: PriorChain, nu0, nuN) -> PathMeasure:
    """Solve the two-marginal problem by scaling the endpoint kernel.

    Finds log scalings a, b such that exp(a_i + log G_ij + b_j) has row sums
    nu0 and column sums nuN, by alternating log-sum-exp sweeps over the
    supported block, then spreads each endpoint mass over the conditioned
    prior paths.  Routes are decided on the kernel's support, so underflow
    never reads as infeasibility.
    """
    n = prior.n
    nu0, nuN = as_marginal(nu0, n), as_marginal(nuN, n)
    if prior.N == 0:
        if float(np.abs(nu0 - nuN).max()) > 1e-12:
            raise InfeasibleError("N=0 requires identical endpoint marginals")
        masses = {(i + 1,): float(nu0[i]) for i in np.flatnonzero(nu0 > 0)}
        return PathMeasure(0, masses)
    kernel = endpoint_kernel(prior)
    supp0, suppN = nu0 > 0.0, nuN > 0.0
    K = kernel.log_matrix[np.ix_(supp0, suppN)]
    require_routes(K > -np.inf, supp0, suppN, prior.N)
    # log arithmetic resolves a marginal to a few ulps of the largest |log G|
    tol = ORACLE_TOL + 4 * np.finfo(float).eps * float(np.abs(K).max())
    log_nu0, log_nuN = np.log(nu0[supp0]), np.log(nuN[suppN])
    row = logsumexp(K, axis=1)
    for _ in range(ORACLE_MAX_SWEEPS):
        a = log_nu0 - row
        b = log_nuN - logsumexp(K + a[:, None], axis=0)  # columns now fit nuN
        row = logsumexp(K + b, axis=1)
        err = float(np.abs(np.exp(a + row) - nu0[supp0]).max())
        if err <= tol:
            break
    else:
        raise ConvergenceError(
            f"kernel scaling did not converge in {ORACLE_MAX_SWEEPS} sweeps",
            residual=err, iterations=ORACLE_MAX_SWEEPS,
        )
    log_a = np.full(n, -np.inf)
    log_b = log_a.copy()
    log_a[supp0], log_b[suppN] = a, b
    paths = kernel.paths
    masses = np.exp(log_a[paths[:, 0] - 1] + log_b[paths[:, -1] - 1] + kernel.log_weights)
    keep = np.flatnonzero(masses > 0.0)
    return PathMeasure(prior.N, dict(zip(map(tuple, paths[keep].tolist()),
                                         masses[keep].tolist())))


def conditioned_boltzmann(g: DirectedGraph, T: float, N: int,
                          source: int | None = None,
                          target: int | None = None) -> PathMeasure:
    """Boltzmann measure exp(-l/T)/Z over the feasible N-step paths, optionally
    restricted to those leaving `source` and/or entering `target`.

    Pinned at both ends this is the closed-form answer for a delta-pinned
    bridge over the Boltzmann prior; normalization happens in log space.
    """
    check_temperature(T)
    paths = enumerate_feasible_paths(g, N, source=source, target=target)
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
                               config: SolverConfig | None = None) -> EqualLengthReport:
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
            for p, m in measure_from_chain(sol).masses.items():
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


def iterated_bridge_check(prior: PriorChain, first, second,
                          config: SolverConfig | None = None) -> float:
    """Max transition deviation between bridging over the prior directly
    and bridging over an intermediate bridge.

    `first` and `second` are (nu0, nuN) pairs.  The bridge of `second` over
    the bridge of `first` must coincide with the bridge of `second` over the
    original prior; returns the largest absolute entrywise difference.
    """
    nu0_1, nuN_1 = first
    nu0_2, nuN_2 = second
    inner = solve_schrodinger(prior, nu0_1, nuN_1, config)
    direct = solve_schrodinger(prior, nu0_2, nuN_2, config)
    nested = solve_schrodinger(inner, nu0_2, nuN_2, config)
    return float(np.abs(direct.transitions - nested.transitions).max(initial=0.0))


def restriction_ratio_check(prior: PriorChain, sol: BridgeSolution,
                            source: int, target: int) -> float:
    """Relative spread of the bridge/prior mass ratio over source->target paths.

    For a bridge pinned by delta marginals the ratio is the same for every
    path (it telescopes to a function of the endpoints only), so the spread
    1 - min/max, taken from log ratios, should vanish up to solver tolerance.
    """
    paths = step_paths(prior.edges, prior.support, source, target)
    log_q = log_path_masses(prior, paths)
    positive = log_q > -np.inf
    if np.count_nonzero(positive) < 2:
        raise InfeasibleError(
            f"need at least two {source}->{target} paths with positive prior mass"
        )
    log_r = log_path_masses(sol, paths)[positive] - log_q[positive]
    top = log_r.max()
    if top == -np.inf:
        return 0.0
    return float(1.0 - np.exp(log_r.min() - top))


def verify_battery(g: DirectedGraph, sol: BridgeSolution, nu0, nuN, T: float,
                   config: SolverConfig, *, grid, pairs: int) -> tuple[list, dict]:
    """Cross-check `sol`, the bridge of (nu0, nuN) over boltzmann_prior(g, T, N).

    Returns (checks, meta), each check a (name, value, tolerance) triple
    that passes when value <= tolerance: solver-marginals,
    path-normalization, solver-vs-oracle, iterated-bridge (`pairs` random
    source marginals drawn with VERIFY_SEED), argmax-path-invariance (over the
    temperatures of `grid`), restriction-ratio and equal-length-masses,
    between the heaviest nodes of nu0 and nuN.  N == 0 checks the first only.
    """
    N = sol.N
    gap = float(np.abs(sol.marginals[0] - nu0).max())
    if N == 0:
        return [("solver-marginals", gap, 10 * config.tol)], {"degenerate": True}
    prior = boltzmann_prior(g, T, N)
    checks = [("solver-marginals", max(gap, float(np.abs(sol.marginals[N] - nuN).max())),
               max(10 * config.tol, 1e-10))]

    bridge_measure = measure_from_chain(sol)
    checks.append(("path-normalization", abs(bridge_measure.total() - 1.0), 1e-10))
    checks.append(("solver-vs-oracle",
                   total_variation(bridge_measure, oracle_bridge(prior, nu0, nuN)),
                   VERIFY_TOL_ORACLE))

    source = int(np.argmax(nu0)) + 1
    target = int(np.argmax(nuN)) + 1
    at_source = delta_marginal(g.n, source)
    at_target = delta_marginal(g.n, target)
    rng = np.random.default_rng(VERIFY_SEED)
    kernel_ok = np.flatnonzero(
        step_reach(g.edge_index, np.ones((N, len(g.edges)), dtype=bool),
                   at_target > 0)[0])

    def random_marginal():
        w = np.zeros(g.n)
        w[kernel_ok] = rng.random(kernel_ok.size) + 1e-3
        return w / w.sum()

    dev = 0.0
    if kernel_ok.size > 0:
        for _ in range(pairs):
            dev = max(dev, iterated_bridge_check(prior, (random_marginal(), at_target),
                                                 (random_marginal(), at_target), config))
    checks.append(("iterated-bridge", dev, VERIFY_TOL_INVARIANCE))

    sets = set()
    for Tg in grid:
        sol_t = solve_schrodinger(boltzmann_prior(g, Tg, N), at_source, at_target, config)
        sets.add(tuple(most_probable_paths(sol_t, source, target)))
        sets.add(tuple(most_probable_paths(
            conditioned_boltzmann(g, Tg, N, source, target), source, target)))
    checks.append(("argmax-path-invariance", 0.0 if len(sets) == 1 else 1.0, 0.5))

    # a delta-pinned `sol` is already the bridge this check needs
    if not (np.array_equal(nu0, at_source) and np.array_equal(nuN, at_target)):
        sol = solve_schrodinger(prior, at_source, at_target, config)
    try:
        spread = restriction_ratio_check(prior, sol, source, target)
    except InfeasibleError:
        spread = 0.0  # single-path pair: constancy is vacuous
    checks.append(("restriction-ratio", spread, VERIFY_TOL_INVARIANCE))

    rep = verify_equal_length_masses(g, T, N, config)
    checks.append(("equal-length-masses",
                   max(rep.max_spread, 0.0 if rep.minimal_group_dominates else 1.0),
                   VERIFY_TOL_INVARIANCE))
    return checks, {"pairs_checked": rep.pairs_checked, "seed": VERIFY_SEED}
