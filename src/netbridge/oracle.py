"""Brute-force reference solutions and the cross-checks of the main solver.

The oracle works on the endpoint kernel instead of the (N+1)-stage
potential recursion: the bridge factorizes into endpoint scalings of the
prior, so alternating row/column scaling of the kernel followed by
distributing each endpoint mass over the conditioned prior paths gives the
exact answer by a deliberately different route.  The kernel is summed in
log space from the prior's paths between the marginals' supports,
enumerated once as a (P, N+1) array, checked against a forward pass over
the edge list, and scaled on log potentials, so no weight underflows and
the oracle checks the solver at any temperature.  It refuses instances past
PATH_CAP such paths rather than sampling.

`verify_battery` runs every cross-check on one solved bridge: agreement
with the oracle, scored on the oracle's paths, and the invariances the
paper proves for any marginals (iterated bridges on nested diffuse pairs,
most probable paths, the restriction ratio, equal-length masses).  The
last three run on path_sum_range's min/max-plus passes: the argmax check
enumerates only the tied paths, and the other two read _ratio_spread of
the handed bridge and of each target's delta bridge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import logsumexp
from .bridge import BridgeSolution, SolverConfig, as_marginal, delta_marginal, \
    most_probable_paths, push_flow, solve_schrodinger
from .errors import ConvergenceError, InfeasibleError, NetbridgeError
from .graph import DirectedGraph, path_lengths, path_sum_range, require_routes, step_paths, \
    step_reach
from .metrics import PathMeasure
from .prior import PriorChain, boltzmann_prior, check_temperature, log_path_masses

ORACLE_TOL = 1e-13
ORACLE_MAX_SWEEPS = 1_000_000
# verify_battery: the seed of its random marginals and its pass tolerances
VERIFY_SEED = 0
VERIFY_TOL_ORACLE = 1e-10
VERIFY_TOL_INVARIANCE = 1e-9
REACH_CHUNK = 64  # targets per step_reach call of the equal-length check
ITERATED_CANDIDATES = 4  # seeded candidate targets of the iterated-bridge draws


@dataclass(frozen=True)
class EndpointKernel:
    """The prior's support paths from supp0 to suppN as a (P, N+1) array,
    their log transition products (mu0 excluded) and log_matrix[a, b], the
    log total weight of the paths from the a-th node of supp0 to the b-th
    node of suppN (-inf where none joins them)."""

    paths: np.ndarray
    log_weights: np.ndarray
    log_matrix: np.ndarray


def endpoint_kernel(prior: PriorChain, supp0: np.ndarray, suppN: np.ndarray) -> EndpointKernel:
    """Aggregate the prior over interior nodes, keeping the endpoints in
    supp0 x suppN (boolean vectors over nodes) only.

    Computed twice on purpose: once by enumerating paths over the prior's
    support, narrowed at the first step to supp0 and at the last to suppN,
    and once by a forward log-sum-exp pass per step over the edge list on
    a (|supp0|, n) array, read at the columns of suppN.  The two must share
    their support and agree to 1e-12 relative on every log entry;
    disagreement means a bookkeeping bug, so it raises NetbridgeError
    rather than returning either.
    """
    n, N = prior.n, prior.N
    if N < 1:
        raise ValueError(f"the endpoint kernel needs N >= 1, got {N}")
    rows0, colsN = np.flatnonzero(supp0), np.flatnonzero(suppN)
    supports = prior.support  # a fresh array, narrowed in place
    supports[0] &= supp0[prior.edges.src]
    supports[N - 1] &= suppN[prior.edges.dst]
    paths = step_paths(prior.edges, supports)
    log_w = log_path_masses(PriorChain(prior.edges, prior.log_weights, np.ones(n)), paths)
    log_G = np.full((rows0.size, colsN.size), -np.inf)
    np.logaddexp.at(log_G, (np.searchsorted(rows0, paths[:, 0] - 1),
                            np.searchsorted(colsN, paths[:, -1] - 1)), log_w)
    # prod[a, v]: log weight of the t-step walks from the a-th node of supp0 to v
    src, dst = prior.edges.src, prior.edges.dst
    prod = np.where(rows0[:, None] == np.arange(n), 0.0, -np.inf)
    for t in range(N):
        prod, prev = np.full_like(prod, -np.inf), prod
        np.logaddexp.at(prod, (slice(None), dst), prev[:, src] + prior.log_weights[t])
    prod = prod[:, colsN]
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
        nodes = np.flatnonzero(nu0 > 0)
        return PathMeasure(0, nodes[:, None] + 1, nu0[nodes])
    supp0, suppN = nu0 > 0.0, nuN > 0.0
    kernel = endpoint_kernel(prior, supp0, suppN)
    K = kernel.log_matrix
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
    paths, at0, atN = kernel.paths, np.cumsum(supp0) - 1, np.cumsum(suppN) - 1
    masses = np.exp(a[at0[paths[:, 0] - 1]] + b[atN[paths[:, -1] - 1]] + kernel.log_weights)
    keep = masses > 0.0
    return PathMeasure(prior.N, paths[keep], masses[keep])


def conditioned_boltzmann(g: DirectedGraph, T: float, N: int,
                          source: int | None = None,
                          target: int | None = None) -> PathMeasure:
    """Boltzmann measure exp(-l/T)/Z over the feasible N-step paths, optionally
    restricted to those leaving `source` and/or entering `target`.

    Pinned at both ends this is the closed-form answer for a delta-pinned
    bridge over the Boltzmann prior; normalization happens in log space.
    """
    check_temperature(T)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    paths = step_paths(g.edge_index, np.ones((N, len(g.edges)), dtype=bool), source, target)
    if not paths.size:
        raise InfeasibleError(f"no feasible {N}-step path"
                              + (f" from node {source}" if source is not None else "")
                              + (f" to node {target}" if target is not None else ""))
    logw = -path_lengths(g, paths) / T
    return PathMeasure(N, paths, np.exp(logw - logsumexp(logw)))


def _ratio_spread(prior: PriorChain, chain: PriorChain, target: int) -> np.ndarray:
    """Per node v, the spread 1 - exp(lo - hi) of the range [lo, hi] of
    sum_t (chain.log_weights - prior.log_weights) over the prior's N-step
    paths from v into `target`, from one path_sum_range pass: 0 where the
    sum is the same on all, 1 where `chain` has no mass on one, nan where
    none exists."""
    with np.errstate(invalid="ignore"):  # -inf - -inf off the prior's support
        lo, hi = path_sum_range(prior.edges, prior.support,
                                chain.log_weights - prior.log_weights, target)
        spread = np.where(hi[0] > -np.inf, 1.0 - np.exp(lo[0] - hi[0]), 1.0)
    return np.where(lo[0] < np.inf, spread, np.nan)


def verify_equal_length_masses(g: DirectedGraph, T: float, N: int,
                               config: SolverConfig | None = None) -> tuple[int, float]:
    """Bridge every connected delta pair over the Boltzmann prior and check
    that path mass is proportional to exp(-length/T), so equal-length paths
    carry equal mass: log Pi + l/T, which is log Pi - log W on this prior,
    is then the same on every path of a pair.  Returns (pairs_checked, the
    largest _ratio_spread).  This is also the bridge over the Ruelle-Bowen
    chain wherever that exists: its h-transform reweights a path by endpoint
    factors only.  A bridge into a delta target has transitions independent
    of nu0, so one bridge per target, from nu0 uniform on the nodes that
    reach it (found REACH_CHUNK targets at a time), covers all its pairs.
    """
    prior = boltzmann_prior(g, T, N)
    pairs, max_spread = 0, 0.0
    for targets in np.array_split(np.arange(g.n), range(REACH_CHUNK, g.n, REACH_CHUNK)):
        reach = step_reach(prior.edges, prior.support, np.arange(g.n)[:, None] == targets)[0]
        pairs += int(np.count_nonzero(reach))
        for k in np.flatnonzero(reach.any(axis=0)):
            j, sources = int(targets[k]), reach[:, k]
            sol = solve_schrodinger(prior, sources / np.count_nonzero(sources),
                                    delta_marginal(g.n, j + 1), config)
            max_spread = max(max_spread, float(_ratio_spread(prior, sol, j + 1)[sources].max()))
    return pairs, max_spread


def iterated_bridge_check(prior: PriorChain, first, second,
                          config: SolverConfig | None = None) -> float:
    """Max transition deviation between bridging `second` over the prior
    and over the bridge of `first`, (nu0, nuN) pairs whose supports nest
    (ValueError unless each marginal of `second` lives inside the support
    of its counterpart in `first`).  That bridge is the prior on supp nu0 x
    supp nuN times one factor per endpoint, so the two must coincide.
    """
    first = [as_marginal(nu, prior.n) for nu in first]
    second = [as_marginal(nu, prior.n) for nu in second]
    if any(np.any((nu2 > 0) & (nu1 == 0)) for nu1, nu2 in zip(first, second)):
        raise ValueError("the second pair's supports must lie inside the first's")
    inner = solve_schrodinger(prior, *first, config)
    direct = solve_schrodinger(prior, *second, config)
    nested = solve_schrodinger(inner, *second, config)
    return float(np.abs(direct.transitions - nested.transitions).max(initial=0.0))


def restriction_ratio_check(prior: PriorChain, sol: BridgeSolution,
                            source: int, target: int) -> float:
    """Relative spread of the bridge/prior mass ratio over source->target paths.

    A bridge is the prior times one factor per endpoint, so the ratio is the
    same on every path of the prior's support between two nodes, and its
    _ratio_spread should vanish up to solver tolerance.  A single path reads
    0, a bridge with no mass on the pair 1; no route raises InfeasibleError.
    """
    spread = float(_ratio_spread(prior, sol, target)[source - 1])
    if np.isnan(spread):
        raise InfeasibleError(f"no {prior.N}-step route with positive prior mass "
                              f"from node {source} to node {target}")
    return spread


def verify_battery(g: DirectedGraph, sol: BridgeSolution, nu0, nuN, T: float,
                   config: SolverConfig, *, grid, pairs: int) -> tuple[list, dict]:
    """Cross-check `sol`, the bridge of (nu0, nuN) over boltzmann_prior(g, T, N).

    Returns (checks, meta), each check a (name, value, tolerance) triple
    that passes when value <= tolerance: solver-marginals,
    path-normalization, solver-vs-oracle, iterated-bridge (`pairs` nested
    diffuse pairs drawn with VERIFY_SEED), argmax-path-invariance (between
    the heaviest nodes of nu0 and nuN, over the temperatures of `grid`),
    restriction-ratio (`sol` over supp nu0 x supp nuN) and
    equal-length-masses.  N == 0 checks the first only.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    N = sol.N
    gap = float(np.abs(sol.marginals[0] - nu0).max())
    if N == 0:
        return [("solver-marginals", gap, 10 * config.tol)], {"degenerate": True}
    prior = boltzmann_prior(g, T, N)
    checks = [("solver-marginals", max(gap, float(np.abs(sol.marginals[N] - nuN).max())),
               max(10 * config.tol, 1e-10))]

    # A bridge's paths start in supp nu0 and end in supp nuN along the
    # prior's support: the oracle's paths, less its zero masses.  So the TV
    # scores `sol` on those, plus its mass anywhere else, total - sum(b).
    ref = oracle_bridge(prior, nu0, nuN)
    b = np.exp(log_path_masses(sol, ref.paths))
    total = float(push_flow(sol.edges, sol.mu0, sol.transitions)[-1].sum())
    checks.append(("path-normalization", abs(total - 1.0), 1e-10))
    checks.append(("solver-vs-oracle",
                   0.5 * float(np.abs(ref.masses - b).sum() + max(total - b.sum(), 0.0)),
                   VERIFY_TOL_ORACLE))

    # Each draw's first pair lives on 2-4 nodes a1 that reach the target and
    # on the target plus the seeded candidates that every node of a1 reaches
    # (every node of supp nu0 reaches the target: the oracle checked routes);
    # the second pair on random nonempty subsets of both.
    source, target = int(np.argmax(nu0)) + 1, int(np.argmax(nuN)) + 1
    rng = np.random.default_rng(VERIFY_SEED)
    ends = np.append(target - 1, rng.choice(g.n, min(g.n, ITERATED_CANDIDATES), replace=False))
    reach = step_reach(prior.edges, prior.support, np.arange(g.n)[:, None] == ends)[0]
    sources, dev = np.flatnonzero(reach[:, 0]), 0.0

    def on(nodes):
        w = np.zeros(g.n)
        w[nodes] = rng.random(nodes.size) + 1e-3
        return w / w.sum()

    for _ in range(pairs):
        a1 = rng.choice(sources, min(sources.size, int(rng.integers(2, 5))), replace=False)
        b1 = np.unique(ends[reach[a1].all(axis=0)])
        a2, b2 = (rng.choice(x, int(rng.integers(1, x.size + 1)), replace=False) for x in (a1, b1))
        dev = max(dev, iterated_bridge_check(prior, (on(a1), on(b1)), (on(a2), on(b2)), config))
    checks.append(("iterated-bridge", dev, VERIFY_TOL_INVARIANCE))

    sets = set()
    for Tg in grid:
        prior_t = boltzmann_prior(g, Tg, N)
        sol_t = solve_schrodinger(prior_t, delta_marginal(g.n, source),
                                  delta_marginal(g.n, target), config)
        sets.add(tuple(most_probable_paths(sol_t, source, target)))
        sets.add(tuple(most_probable_paths(prior_t, source, target)))
    checks.append(("argmax-path-invariance", 0.0 if len(sets) == 1 else 1.0, 0.5))

    rows = np.flatnonzero(nu0)
    checks.append(("restriction-ratio",
                   max(float(_ratio_spread(prior, sol, j + 1)[rows].max())
                       for j in np.flatnonzero(nuN)), VERIFY_TOL_INVARIANCE))

    # called by its module name, which a tracer may have rebound
    pairs_checked, spread = verify_equal_length_masses(g, T, N, config)
    checks.append(("equal-length-masses", spread, VERIFY_TOL_INVARIANCE))
    return checks, {"pairs_checked": pairs_checked, "seed": VERIFY_SEED}
