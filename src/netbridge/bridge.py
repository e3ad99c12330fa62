"""Schrodinger bridge solver: entropy-minimal path measures with pinned marginals.

Given a prior chain and endpoint distributions nu0, nuN, the solver finds
the Markov measure closest to the prior in relative entropy among all path
measures with those marginals.  The scheme alternates backward/forward
potential propagation with boundary corrections (iterative proportional
fitting); convergence is monitored in the Hilbert projective metric, which
is the natural scale-invariant contraction metric for this iteration.

The loop runs on log potentials over the prior's log edge weights, with a
log-sum-exp over each node's out-edges (backward) or in-edges (forward), so
no temperature underflows a potential: one is -inf only at a node that no
supported route reaches.  A solved bridge is itself a PriorChain started
from nu0: its log weights are the log transitions the loop forms, -inf
exactly off the bridge's support, so a bridge can be bridged again and its
path masses never underflow.  The linear transitions, the exp of those
logs, are kept beside them for flow sums and documents.  Both are (N, E)
arrays on the prior's edges, so memory and work per sweep grow with N * E,
not N * n^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InfeasibleError
from .graph import EdgeIndex, Path, path_sum_range, require_routes, step_paths, step_reach
from .prior import PriorChain, chain_path_mass, log_path_masses

ARGMAX_REL_TOL = 1e-9  # paths within this share of the top mass tie for it


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the fitting loop."""

    tol: float = 1e-12
    max_iter: int = 100_000

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class BridgeSolution(PriorChain):
    """Solved bridge: a chain from mu0 = nu0 with its time marginals.

    log_weights[t, e] is the log probability of stepping along edge e of
    `edges` at step t, -inf exactly where the bridge puts no mass, and
    transitions holds its exp.  Summed over a node's out-edges a transition
    row is 1 on nodes carrying marginal mass, and it is zero on nodes from
    which no supported route reaches nuN; marginals is (N+1) x n,
    marginals[0] equals nu0 to rounding and marginals[N] matches nuN within
    `residual`.
    """

    transitions: np.ndarray
    marginals: np.ndarray
    iterations: int
    residual: float


def as_marginal(weights, n: int) -> np.ndarray:
    """Validate a distribution over nodes: length n, nonnegative, sums to 1."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"marginal must have length {n}, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("marginal entries must be finite and nonnegative")
    s = float(w.sum())
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"marginal must sum to 1 (got {s!r})")
    return w


def delta_marginal(n: int, node: int) -> np.ndarray:
    """Point mass at `node` (1-based)."""
    if not (1 <= node <= n):
        raise ValueError(f"node {node} out of range 1..{n}")
    w = np.zeros(n)
    w[node - 1] = 1.0
    return w


def push_flow(edges: EdgeIndex, mu0: np.ndarray, transitions) -> np.ndarray:
    """(N+1, n) flow: mu0, then pushed along each step's edge transitions."""
    flow = [mu0]
    for P in transitions:
        flow.append(np.bincount(edges.dst, flow[-1][edges.src] * P, minlength=edges.n))
    return np.array(flow)


def _check_feasible(prior: PriorChain, supp0: np.ndarray, suppN: np.ndarray) -> None:
    # A route between supported endpoints needs positive weight at every
    # step, whatever the product of those weights; decide on support alone.
    ends = np.arange(prior.n)[:, None] == np.flatnonzero(suppN)
    require_routes(step_reach(prior.edges, prior.support, ends)[supp0], supp0, suppN, prior.N)


def solve_schrodinger(prior: PriorChain, nu0, nuN,
                      config: SolverConfig | None = None) -> BridgeSolution:
    """Solve the two-marginal problem over `prior`.

    Parameters
    ----------
    prior : PriorChain
        Reference chain, which may itself be a solved bridge; only its
        transition weights matter (the bridge is invariant under rescaling
        of mu0 and of each step matrix).
    nu0, nuN : array-like
        Prescribed initial and terminal node distributions.
    config : SolverConfig, optional
        Convergence tolerance (Hilbert-metric change of the terminal
        potential) and sweep cap.

    Raises
    ------
    InfeasibleError
        If some supported endpoint pair is not connected by an N-step route
        of positive prior mass.
    ConvergenceError
        If the sweep cap is reached.
    """
    cfg = config or SolverConfig()
    n = prior.n
    N = prior.N
    nu0 = as_marginal(nu0, n)
    nuN = as_marginal(nuN, n)

    if N == 0:
        if float(np.abs(nu0 - nuN).max()) > 1e-12:
            raise InfeasibleError("N=0 requires identical endpoint marginals")
        empty = np.zeros((0, prior.edges.E))
        return BridgeSolution(
            prior.edges, empty, nu0, transitions=empty,
            marginals=nu0[None, :].copy(), iterations=0,
            residual=float(np.abs(nu0 - nuN).max()),
        )

    supp0 = nu0 > 0.0
    suppN = nuN > 0.0
    _check_feasible(prior, supp0, suppN)

    # phi = exp(lphi), phi_hat = exp(lphi_hat).  Feasibility makes lphi[0]
    # finite on supp0 and lphi_hat[N] finite on suppN, where the boundary
    # corrections are taken.
    LW = prior.log_weights
    edges = prior.edges
    src, dst = edges.src, edges.dst
    log_nu0, log_nuN = np.log(nu0[supp0]), np.log(nuN[suppN])
    lphi = np.full((N + 1, n), -np.inf)
    lphi_hat = np.full((N + 1, n), -np.inf)
    lphi_N = np.zeros(log_nuN.size)  # on suppN
    iterations = 0
    while True:
        iterations += 1
        lphi[N][suppN] = lphi_N
        for t in range(N - 1, -1, -1):
            lphi[t] = edges.logsumexp(LW[t] + lphi[t + 1][dst])
        lphi_hat[0][supp0] = log_nu0 - lphi[0][supp0]
        for t in range(N):
            lphi_hat[t + 1] = edges.logsumexp(LW[t] + lphi_hat[t][src], incoming=True)
        lphi_N_new = log_nuN - lphi_hat[N][suppN]
        # the Hilbert distance of the two terminal potentials
        change = lphi_N_new - lphi_N
        delta = float(change.max() - change.min())
        if delta <= cfg.tol:
            break
        if iterations >= cfg.max_iter:
            raise ConvergenceError(
                f"fitting did not converge in {cfg.max_iter} sweeps "
                f"(last Hilbert-metric change {delta:.3e})",
                residual=delta, iterations=iterations,
            )
        lphi_N = lphi_N_new - lphi_N_new.max()

    # Pi_t(i, j) = W_t(i, j) phi_{t+1}(j) / phi_t(i) on rows with phi_t(i) > 0
    lphi_src = lphi[:-1][:, src]
    with np.errstate(invalid="ignore"):
        log_transitions = np.where(lphi_src > -np.inf,
                                   LW + lphi[1:][:, dst] - lphi_src, -np.inf)
    marginals = np.exp(lphi + lphi_hat)
    residual = float(np.abs(marginals[N] - nuN).max())
    return BridgeSolution(
        prior.edges, log_transitions, nu0, transitions=np.exp(log_transitions),
        marginals=marginals, iterations=iterations, residual=residual,
    )


def path_probability(sol: BridgeSolution, p: Sequence[int]) -> float:
    """Mass of one path under the bridge: nu0(x0) times the transition entries
    (no command calls it; perfbench/trace_child.py traces it by this name)."""
    return chain_path_mass(sol, p)


def most_probable_paths(chain: PriorChain, source: int, target: int) -> list[Path]:
    """Paths from source to target whose mass under `chain` (a prior or a
    bridge) is within (1 - ARGMAX_REL_TOL) of the top, in lexicographic
    order; an empty list if mu0 has no mass at `source`.

    Max-plus (Viterbi) passes give the best log prefix into each node,
    summed forward as log_path_masses sums, and path_sum_range the best
    suffix out of it.  Only the edges whose best path ties the top, within a
    few ulps of the largest path sum, are enumerated; log_path_masses then
    decides the set exactly.
    """
    n, N, edges, LW = chain.n, chain.N, chain.edges, chain.log_weights
    if not (1 <= source <= n):
        raise ValueError(f"source node {source} out of range 1..{n}")
    lo, hi = path_sum_range(edges, chain.support, LW, target)
    if lo[0][source - 1] == np.inf:
        raise InfeasibleError(f"no path from node {source} to node {target}")
    head = np.full((N + 1, n), -np.inf)
    with np.errstate(divide="ignore"):
        head[0, source - 1] = np.log(chain.mu0[source - 1])
    for t in range(N):
        np.maximum.at(head[t + 1], edges.dst, head[t][edges.src] + LW[t])
    top = head[N, target - 1]
    if top == -np.inf:
        return []
    through = head[:-1, edges.src] + LW + np.stack(hi)[1:, edges.dst]
    # scale bounds sum |terms| on any path along these edges; summed forward
    # or split at an edge, its log mass moves by at most (N + 1) eps * scale
    scale = abs(head[0, source - 1]) + np.abs(
        np.where(through > -np.inf, LW, 0.0)).max(axis=1, initial=0.0).sum()
    cut = top + np.log1p(-ARGMAX_REL_TOL) - 4 * (N + 1) * np.finfo(float).eps * scale
    paths = step_paths(edges, through >= cut, source, target)
    log_m = log_path_masses(chain, paths)
    return list(map(tuple, paths[log_m >= log_m.max() + np.log1p(-ARGMAX_REL_TOL)].tolist()))

