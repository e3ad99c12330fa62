"""Maximum-entropy transport policies on directed graphs.

Solves two-marginal Schrodinger bridge problems over Boltzmann or
Ruelle-Bowen reference chains, trading average path length against
path-space entropy through a temperature parameter, with enumeration-based
oracles for verification and a command line front end.
"""

from .bridge import (
    BridgeSolution,
    SolverConfig,
    as_marginal,
    delta_marginal,
    most_probable_paths,
    path_probability,
    solve_schrodinger,
)
from .calibrate import (
    CalibrationResult,
    SweepRow,
    TemperatureLimit,
    calibrate_temperature,
    expected_length_at,
    length_variance,
    temperature_sweep,
)
from .errors import (
    ConvergenceError,
    EnumerationCapError,
    GraphFormatError,
    InfeasibleBudgetError,
    InfeasibleError,
    NetbridgeError,
)
from .graph import (
    DirectedGraph,
    EdgeIndex,
    count_feasible_paths,
    dump_graph,
    enumerate_feasible_paths,
    g9_network,
    load_graph,
    path_counts,
    path_length,
)
from .metrics import (
    GraphEfficiencyStats,
    PathMeasure,
    average_path_length,
    entropy,
    graph_efficiency_stats,
    measure_from_chain,
)
from .oracle import (
    EndpointKernel,
    endpoint_kernel,
    iterated_bridge_check,
    oracle_bridge,
    restriction_ratio_check,
    verify_battery,
    verify_equal_length_masses,
)
from .prior import (
    PerronTriple,
    PriorChain,
    boltzmann_prior,
    chain_path_mass,
    log_path_masses,
    perron,
    ruelle_bowen_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeSolution",
    "CalibrationResult",
    "ConvergenceError",
    "DirectedGraph",
    "EdgeIndex",
    "EndpointKernel",
    "EnumerationCapError",
    "GraphEfficiencyStats",
    "GraphFormatError",
    "InfeasibleBudgetError",
    "InfeasibleError",
    "NetbridgeError",
    "PathMeasure",
    "PerronTriple",
    "PriorChain",
    "SolverConfig",
    "SweepRow",
    "TemperatureLimit",
    "as_marginal",
    "average_path_length",
    "boltzmann_prior",
    "calibrate_temperature",
    "chain_path_mass",
    "count_feasible_paths",
    "delta_marginal",
    "dump_graph",
    "endpoint_kernel",
    "entropy",
    "enumerate_feasible_paths",
    "expected_length_at",
    "g9_network",
    "graph_efficiency_stats",
    "iterated_bridge_check",
    "length_variance",
    "load_graph",
    "log_path_masses",
    "measure_from_chain",
    "most_probable_paths",
    "oracle_bridge",
    "path_counts",
    "path_length",
    "path_probability",
    "perron",
    "restriction_ratio_check",
    "ruelle_bowen_chain",
    "solve_schrodinger",
    "temperature_sweep",
    "verify_battery",
    "verify_equal_length_masses",
]
