"""Temperature selection: hit a target average length, or sweep a grid.

The expected path length of the delta-pinned bridge is strictly increasing
in temperature (its T-derivative is Var/T^2), ranging from the minimal
feasible length at T -> 0 to the plain average over the admissible path
family at T -> infinity.  Calibration inverts that map by bisection on
log T; the endpoints are reported as explicit symbolic outcomes, never as
sentinel floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .bridge import BridgeSolution, SolverConfig, as_marginal, solve_schrodinger
from .errors import ConvergenceError, InfeasibleBudgetError, InfeasibleError, \
    NetbridgeError
from .graph import DirectedGraph, Path, path_sum_range
from .metrics import average_path_length, entropy
from .prior import PriorChain, boltzmann_prior, check_temperature, log_path_masses

BRACKET_START = (1e-2, 1e2)
BRACKET_LIMIT = (1e-6, 1e6)
# a failed probe is searched past until the temperatures on either side of
# the last breakdown are within this ratio
EDGE_RATIO = 1.01


class TemperatureLimit(enum.Enum):
    """Symbolic endpoints of the temperature axis."""

    ZERO = "zero"
    INFINITY = "infinity"


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of inverting the expected-length map.

    `temperature` is a positive float for interior solutions or a
    TemperatureLimit when the budget sits on (or beyond reach of) an end of
    the attainable range.
    """

    temperature: float | TemperatureLimit
    achieved_length: float
    bounds: tuple[float, float] | None
    iterations: int

    @property
    def at_bound(self) -> bool:
        return isinstance(self.temperature, TemperatureLimit)


@dataclass(frozen=True)
class SweepRow:
    """One temperature of a sweep; numeric fields are NaN when `error` is set."""

    temperature: float
    average_length: float
    entropy: float
    variance: float
    path_masses: dict[Path, float] = field(default_factory=dict)
    marginal_flow: np.ndarray | None = None
    error: str | None = None


def expected_length_at(g: DirectedGraph, nu0, nuN, N: int, T: float,
                       config: SolverConfig | None = None) -> float:
    """Average path length of the bridge at temperature T."""
    sol = solve_schrodinger(boltzmann_prior(g, T, N), nu0, nuN, config)
    return average_path_length(sol, g)


def length_variance(sol: BridgeSolution, g: DirectedGraph) -> float:
    """Variance of the total path length under a solved bridge, by an exact
    forward recursion over the chain.

    Each node carries its occupation w, the mean length m of the mass on
    it and that mass's summed squared deviations s; in-edges are merged by
    Chan's pairwise update, so no E[L^2] - E[L]^2 cancellation loses the
    variance as T -> 0.
    """
    lengths = g.lengths_on(sol.edges)
    src, dst = sol.edges.src, sol.edges.dst
    n = sol.n
    w = sol.marginals[0].copy()
    m = np.zeros(n)
    s = np.zeros(n)
    for t in range(sol.N):
        P = sol.transitions[t]
        f = w[src] * P
        through = m[src] + np.where((P > 0.0) & np.isfinite(lengths), lengths, 0.0)
        w = np.bincount(dst, f, minlength=n)
        m = np.divide(np.bincount(dst, f * through, minlength=n), w,
                      out=np.zeros(n), where=w > 0.0)
        dev = through - m[dst]
        s = np.bincount(dst, s[src] * P + f * dev * dev, minlength=n)
    total = w.sum()
    if total <= 0.0:
        return 0.0
    return float(s.sum() / total + (w * (m - (w * m).sum() / total) ** 2).sum() / total)


def _family_bounds(g: DirectedGraph, nu0: np.ndarray, nuN: np.ndarray,
                   N: int) -> tuple[float, float, float] | None:
    """(min, max, plain mean) of the lengths of the N-step paths joining a
    delta-pinned pair, the mean that of the bridge over the counting prior
    (T -> infinity); None unless both ends are deltas."""
    s0 = np.flatnonzero(nu0 > 0)
    sN = np.flatnonzero(nuN > 0)
    if len(s0) != 1 or len(sN) != 1:
        return None
    edges = g.edge_index
    lo, hi = path_sum_range(edges, np.ones((N, edges.E), dtype=bool),
                            np.broadcast_to(g.lengths, (N, edges.E)), sN[0] + 1)
    s = s0[0]
    if lo[0][s] == np.inf:
        raise InfeasibleError(f"no {N}-step path from node {s + 1} to node {sN[0] + 1}")
    counting = solve_schrodinger(PriorChain(edges, np.zeros((N, edges.E)), nu0), nu0, nuN)
    return float(lo[0][s]), float(hi[0][s]), average_path_length(counting, g)


def _bracket_end(probe, beyond, T: float, limit: float, inner: float,
                 e_inner: float | None = None) -> tuple[float, float]:
    """One end of the bisection bracket on log T.

    Starting at T, squares T toward `limit` while the probed length is
    still beyond the budget (`beyond(e)` is true).  A probe that fails to
    evaluate means "unknown", not "beyond": the end then retreats toward
    the nearest temperature that evaluated, or `inner` (the other end, with
    its length `e_inner` if known), by bisection on log T until a probe
    evaluates.  Returns (T, e), where e is beyond the budget only if T is
    the bracket limit.  Raises ConvergenceError when the budget needs a
    temperature past the last one at which the length evaluates.
    """
    low = limit < 1.0
    failed = None
    while True:
        e = probe(T)
        if e is not None and not beyond(e):
            return T, e
        if e is not None:
            inner, e_inner = T, e
            if failed is None:
                if T == limit:
                    return T, e
                # double the exponent
                T = max(T * T, limit) if low else min(T * T, limit)
                continue
        else:
            failed = T
        if max(inner, failed) / min(inner, failed) <= EDGE_RATIO:
            if e_inner is None:
                raise ConvergenceError(
                    f"expected length could not be evaluated between T={failed:.6g} "
                    f"and T={inner:.6g}")
            raise ConvergenceError(
                f"the budget needs a temperature {'below' if low else 'above'} "
                f"T={inner:.6g}, the {'lowest' if low else 'highest'} at which the "
                f"expected length evaluates (it is {e_inner:.12g} there)")
        T = float(np.sqrt(failed * inner))


def calibrate_temperature(g: DirectedGraph, nu0, nuN, N: int, budget: float,
                          tol: float = 1e-8,
                          config: SolverConfig | None = None) -> CalibrationResult:
    """Find the temperature whose bridge attains a target average length.

    For delta-pinned marginals the attainable range is [minimal feasible
    length, plain mean over the admissible family]; budgets below it raise
    InfeasibleBudgetError, budgets at or above the mean return the symbolic
    infinite-temperature (uniform) outcome, and a budget equal to the
    minimum returns the symbolic zero-temperature outcome.  A family whose
    paths all share one length admits no interior solution and is rejected.

    Interior solutions come from bisection on log T, starting on the bracket
    [1e-2, 1e2] and doubling the exponent range up to [1e-6, 1e6] before an
    end is declared out of reach.  A temperature at which the length fails
    to evaluate is never taken as an end: the bracket moves back inward
    past it, and a budget that needs a temperature beyond the last one that
    evaluates raises ConvergenceError.
    """
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    target = float(budget)
    if not np.isfinite(target):
        raise ValueError(f"budget must be finite, got {target}")
    nu0 = as_marginal(nu0, g.n)
    nuN = as_marginal(nuN, g.n)

    bounds = None
    family = _family_bounds(g, nu0, nuN, N)
    if family is not None:
        lmin, lmax, mean = family
        bounds = (lmin, mean)
        if lmax - lmin <= 1e-12 * max(1.0, abs(lmax)):
            raise InfeasibleError(
                "every admissible path has the same length; the expected "
                "length does not depend on temperature", )
        if target < lmin - 1e-12:
            raise InfeasibleBudgetError(
                f"budget {target} is below the minimal feasible length {lmin}",
                bounds=bounds,
            )
        if abs(target - lmin) <= 1e-12:
            return CalibrationResult(TemperatureLimit.ZERO, lmin, bounds, 0)
        if target >= mean - 1e-12:
            return CalibrationResult(TemperatureLimit.INFINITY, mean, bounds, 0)

    def probe(T: float) -> float | None:
        try:
            return expected_length_at(g, nu0, nuN, N, T, config)
        except ConvergenceError:
            return None  # the sweep cap, reached at an extreme temperature

    lo, e_lo = _bracket_end(probe, lambda e: e > target, BRACKET_START[0],
                            BRACKET_LIMIT[0], BRACKET_START[1])
    if e_lo > target:
        return CalibrationResult(TemperatureLimit.ZERO,
                                 bounds[0] if bounds else e_lo, bounds, 0)
    hi, e_hi = _bracket_end(probe, lambda e: e < target, BRACKET_START[1],
                            BRACKET_LIMIT[1], lo, e_lo)
    if e_hi < target:
        return CalibrationResult(TemperatureLimit.INFINITY,
                                 bounds[1] if bounds else e_hi, bounds, 0)

    iterations = 0
    mid, e_mid = lo, e_lo
    for iterations in range(1, 201):
        mid = float(np.sqrt(lo * hi))
        e_mid = probe(mid)
        if e_mid is None:
            raise ConvergenceError(f"expected length failed to evaluate at T={mid}")
        if abs(e_mid - target) <= 0.25 * tol:
            break
        if e_mid < target:
            lo = mid
        else:
            hi = mid
        if hi / lo <= 1.0 + 1e-15:
            break
    if abs(e_mid - target) > tol:
        raise ConvergenceError(
            f"bisection stalled: best |L - budget| = {abs(e_mid - target):.3e}",
            residual=abs(e_mid - target), iterations=iterations,
        )
    return CalibrationResult(float(mid), float(e_mid), bounds, iterations)


def temperature_sweep(g: DirectedGraph, nu0, nuN, N: int, temperatures,
                      tracked_paths=None,
                      config: SolverConfig | None = None) -> list[SweepRow]:
    """Solve the bridge on a grid of temperatures.

    Rows come back ordered by temperature; a failure at one temperature is
    recorded on its row instead of aborting the sweep.
    """
    temps = sorted(float(T) for T in temperatures)
    if not temps:
        raise ValueError("temperature grid is empty")
    for T in temps:
        check_temperature(T)
    tracked = [tuple(int(x) for x in p) for p in (tracked_paths or [])]
    nu0 = as_marginal(nu0, g.n)
    nuN = as_marginal(nuN, g.n)

    def run(T: float) -> SweepRow:
        try:
            sol = solve_schrodinger(boltzmann_prior(g, T, N), nu0, nuN, config)
            masses = np.exp(log_path_masses(sol, tracked)).tolist()
            return SweepRow(
                temperature=T,
                average_length=average_path_length(sol, g),
                entropy=entropy(sol),
                variance=length_variance(sol, g),
                path_masses=dict(zip(tracked, masses)),
                marginal_flow=sol.marginals,
            )
        except NetbridgeError as exc:
            nan = float("nan")
            return SweepRow(T, nan, nan, nan, {p: nan for p in tracked},
                            error=f"{type(exc).__name__}: {exc}")

    return [run(T) for T in temps]
