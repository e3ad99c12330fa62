"""Command line front end.

Exit codes: 0 success, 1 usage/input errors, 2 infeasible instances,
3 non-convergence (the solver's sweep cap, or a budget that needs a
temperature at which the length does not evaluate), 4 a failed `verify`
check.  Diagnostics go to stderr; documents go to --output (default
stdout), and two runs with the same configuration produce byte-identical
output.  The `solve` JSON and `oracle` documents round their arrays to 12
significant digits before any quantity is derived from them, so each is
exactly self-consistent; `sweep`, `calibrate`, `verify`, `paths` and
`metrics` round each value as they emit it.  `solve --format csv` writes
the solver's marginals, so it can differ in the 12th digit from the JSON's
marginal_flow, which is re-propagated through the rounded transitions.
JSON has no literals for non-finite numbers; they are emitted as the
strings "inf", "-inf", "nan".

Every JSON document has the same line layout: "{", then one sorted
top-level key per line as "key":value with each value written compactly,
then "}".  A value that is a list of lists puts each inner list on a line
of its own, and a document that is a list (sweep's rows) puts each element
on its own line.

The `solve` flow document ("format": 3) writes its transitions per graph
edge, exactly as the solver stores them: "edges" lists the [u, v] pairs in
the graph's edge order and "transitions" holds N lists of E numbers, one
list per line, entry e of step t being Pi_t[u_e, v_e] (zeros on rows that
carry no mass).  The bridge has no mass off the graph's edges, so placing
each entry into an n x n zero matrix rebuilds Pi_t exactly.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np

from ._numeric import sig12
from .bridge import BridgeSolution, SolverConfig, as_marginal, delta_marginal, \
    push_flow, solve_schrodinger
from .calibrate import TemperatureLimit, calibrate_temperature, temperature_sweep
from .errors import ConvergenceError, EnumerationCapError, GraphFormatError, \
    InfeasibleBudgetError, InfeasibleError
from .graph import DirectedGraph, enumerate_feasible_paths, g9_network, load_graph, \
    path_counts, path_lengths
from .metrics import PathMeasure, average_path_length, entropy, \
    graph_efficiency_stats, measure_from_chain
from .oracle import oracle_bridge, verify_battery
from .prior import boltzmann_prior

LN2 = float(np.log(2.0))
BUILTIN_GRAPHS = {
    "g9": lambda: g9_network(),
    "g9-long79": lambda: g9_network(l79=2.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _load_graph_arg(value: str) -> DirectedGraph:
    p = FsPath(value)
    if p.exists():
        try:
            return load_graph(p.read_text())
        except OSError as exc:
            raise _CliError(f"cannot read graph file {value}: {exc}") from exc
    if value in BUILTIN_GRAPHS:
        return BUILTIN_GRAPHS[value]()
    raise _CliError(
        f"graph file not found: {value} (or use a builtin: "
        + ", ".join(sorted(BUILTIN_GRAPHS)) + ")"
    )


def _resolve_marginal(n: int, delta, spec, side: str) -> np.ndarray:
    if delta is not None and spec is not None:
        raise _CliError(f"give either --{side}-delta or --{side}, not both")
    if delta is not None:
        try:
            return delta_marginal(n, delta)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    if spec is None:
        raise _CliError(f"missing marginal: use --{side}-delta NODE or --{side} SPEC")
    try:
        val = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise _CliError(f"--{side}: not valid JSON: {exc}") from exc
    try:
        if isinstance(val, dict) and set(val) == {"delta"}:
            node = val["delta"]
            if type(node) is not int:  # int() would read 1.9 and true as node 1
                raise ValueError(f"delta must be an integer node, got {json.dumps(node)}")
            return delta_marginal(n, node)
        if isinstance(val, list):
            return as_marginal(val, n)
    except (ValueError, TypeError) as exc:
        raise _CliError(f"--{side}: {exc}") from exc
    raise _CliError(f'--{side}: expected a vector or {{"delta": node}}')


def _jsonify(x):
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, np.ndarray):
        # one tolist() per array; only an array holding a non-finite value
        # is walked, to spell those values as strings
        if x.dtype.kind in "biuf" and np.isfinite(x).all():
            return x.tolist()
        return _jsonify(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return x


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        try:
            FsPath(output).write_text(text)
        except OSError as exc:
            raise _CliError(f"cannot write {output}: {exc}") from exc


_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _lines(items, open_: str, close: str) -> str:
    return open_ + "\n" + ",\n".join(items) + "\n" + close if items else open_ + close


def _encode_value(value) -> str:
    # a list of lists (transitions, flow rows, edge pairs) gets one inner
    # list per line; any other value is one line
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        return _lines([_encode(v) for v in value], "[", "]")
    return _encode(value)


def _emit_json(doc, output: str) -> None:
    """Write `doc` in the line layout of every netbridge JSON document.

    A dict has one sorted top-level key per line, a top-level list one
    element per line; each value goes through the C encoder, which any
    `indent` would turn off.
    """
    doc = _jsonify(doc)
    if isinstance(doc, dict):
        text = _lines([f"{_encode(k)}:{_encode_value(doc[k])}" for k in sorted(doc)],
                      "{", "}")
    else:
        text = _lines([_encode(v) for v in doc], "[", "]")
    _emit(text + "\n", output)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{x:.12g}" if isinstance(x, float) else x for x in row])
    return buf.getvalue()


# 10**k for k = 0..22: every one is an exact double
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _round_array(a: np.ndarray) -> np.ndarray:
    """sig12 of every entry, bitwise, computed on whole arrays.

    With k = 11 - floor(log10|x|), m = rint(x * 10**k) holds the 12 kept
    digits.  Where 10**|k| is exact, the scaled value is off by at most half
    an ulp (2**-14 below 1e12), so m is the correctly rounded digit string
    unless the scaled value lies near a half-integer; and m / 10**k, one
    correctly rounded operation on exact operands, is the double nearest
    the decimal, as float(f"{x:.12g}") is.  Entries where |k| > 22, x is
    not finite, m falls outside [1e11, 1e12) (an exponent off by one), or the
    scaled value is within 2**-10 of a half-integer go through scalar sig12.
    Zeros (and their sign) are left as they are, so only the support is
    touched.
    """
    # A C-ordered copy makes reshape(-1) a view, so writes reach `out`.
    out = np.array(a, dtype=float, order="C")
    flat = out.reshape(-1)
    nz = np.flatnonzero(flat)
    x = flat[nz]
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - inf where x is infinite
        k = 11 - np.floor(np.log10(ax))
        fast = np.abs(k) <= 22  # False where x is inf (k = -inf) or NaN
        k = np.where(fast, k, 0).astype(np.int64)
        p = _POW10[np.abs(k)]
        up = k >= 0
        y = np.where(up, ax * p, ax / p)
        m = np.rint(y)
        fast &= (m >= 1e11) & (m < 1e12) & (np.abs(y - np.floor(y) - 0.5) > 2.0 ** -10)
        r = np.copysign(np.where(up, m / p, m * p), x)
    flat[nz[fast]] = r[fast]
    slow = nz[~fast]
    flat[slow] = [sig12(v) for v in flat[slow].tolist()]
    return out


def _rounded_solution(sol: BridgeSolution) -> BridgeSolution:
    # Round the transitions and the source row once, then re-propagate the
    # flow through the rounded chain.  Each emitted flow row is therefore
    # the previous one pushed along the emitted transitions, and path masses
    # computed from them agree with the chain-form averages to reassociation
    # error.
    transitions = _round_array(sol.transitions)
    flow = push_flow(sol.edges, _round_array(sol.marginals[0]), transitions)
    with np.errstate(divide="ignore"):
        log_transitions = np.log(transitions)
    return replace(sol, log_weights=log_transitions, mu0=flow[0],
                   transitions=transitions, marginals=flow)


def _path_key(p) -> str:
    return "-".join(str(x) for x in p)


def _parse_path(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", "-").split("-"))
    except ValueError as exc:
        raise _CliError(f"bad path spec {text!r}; use e.g. 1-2-7-9") from exc


def _flow_doc(g: DirectedGraph, sol: BridgeSolution, T: float, bits: bool,
              path_cap: int) -> dict:
    # The solved arrays are rounded to 12 significant digits once; every
    # derived quantity (L, S, F, path masses) is then computed from the
    # rounded arrays and written at full precision, so recomputing any of
    # them from the document reproduces the recorded values exactly.
    rounded = _rounded_solution(sol)
    L = average_path_length(rounded, g)
    S = entropy(rounded)
    doc = {
        "format": 3,
        "n": g.n,
        "horizon": sol.N,
        "temperature": sig12(T),
        "marginal_flow": rounded.marginals,
        "edges": np.column_stack((sol.edges.src, sol.edges.dst)) + 1,
        "transitions": rounded.transitions,
        "average_length": L,
        "entropy": S,
        "free_energy": L - T * S,
        "iterations": sol.iterations,
        "residual": sig12(sol.residual),
    }
    if bits:
        doc["entropy_bits"] = S / LN2
    sources = [int(i) + 1 for i in np.flatnonzero(sol.marginals[0] > 0)]
    targets = [int(j) + 1 for j in np.flatnonzero(sol.marginals[sol.N] > 0)]
    # one counting pass per target gives the counts from every source
    n_paths = sum(int(path_counts(g, sol.N, target=j)[np.array(sources) - 1].sum())
                  for j in targets)
    doc["path_count"] = n_paths
    if n_paths <= path_cap:
        measure = measure_from_chain(rounded, path_cap)
        doc["path_masses"] = dict(zip(map(_path_key, measure.paths.tolist()),
                                      measure.masses.tolist()))
    else:
        doc["path_masses"] = None
    return doc


def _add_common(sub, marginals=True, horizon=True, temperature=False, solver=True,
                formats=("json", "csv")):
    sub.add_argument("--graph", required=True,
                     help="graph document path, or builtin name (g9, g9-long79)")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub.add_argument("--format", choices=formats, default=formats[0])
    if marginals:
        sub.add_argument("--from-delta", type=int, metavar="NODE",
                         help="source marginal as a point mass")
        sub.add_argument("--to-delta", type=int, metavar="NODE",
                         help="target marginal as a point mass")
        sub.add_argument("--from", dest="from_spec", metavar="SPEC",
                         help='source marginal: JSON vector or {"delta": node}')
        sub.add_argument("--to", dest="to_spec", metavar="SPEC",
                         help='target marginal: JSON vector or {"delta": node}')
    if horizon:
        sub.add_argument("-N", "--horizon", type=int, required=True,
                         help="number of steps")
    if temperature:
        sub.add_argument("-T", "--temperature", type=float, required=True)
    if solver:
        sub.add_argument("--tol", type=float, default=1e-12,
                         help="solver convergence tolerance")
        sub.add_argument("--max-iter", type=int, default=100_000)


def build_parser() -> _Parser:
    parser = _Parser(prog="netbridge",
                     description="Maximum-entropy transport policies on directed graphs")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                              parser_class=_Parser)

    p = sub.add_parser("solve",
                       help="solve one bridge and emit the flow document")
    _add_common(p, temperature=True)
    p.add_argument("--path-cap", type=int, default=10_000,
                   help="include per-path masses only up to this many paths")
    p.add_argument("--bits", action="store_true",
                   help="also report entropy in bits")

    p = sub.add_parser("sweep",
                       help="solve on a temperature grid, emit one row per T")
    _add_common(p)
    p.add_argument("--T-grid", dest="t_grid", required=True,
                   help="comma-separated temperatures, e.g. 0.1,1,10")
    p.add_argument("--track", action="append", default=[], metavar="PATH",
                   help="path (e.g. 1-2-7-9-9) to add as a mass column; repeatable")
    p.add_argument("--track-all", action="store_true",
                   help="track every feasible source->target path")

    p = sub.add_parser("calibrate",
                       help="find the temperature matching a length budget")
    _add_common(p)
    p.add_argument("--L-bar", dest="l_bar", type=float, required=True,
                   help="target average path length")
    p.add_argument("--budget-tol", type=float, default=1e-8,
                   help="tolerance on |achieved - target|")

    p = sub.add_parser("paths",
                       help="enumerate feasible N-step paths")
    _add_common(p, marginals=False, solver=False)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--cap", type=int, default=100_000)

    p = sub.add_parser("metrics",
                       help="distance and efficiency statistics of the graph")
    _add_common(p, marginals=False, horizon=False, solver=False)

    p = sub.add_parser("oracle",
                       help="brute-force bridge by endpoint-kernel scaling")
    _add_common(p, temperature=True, solver=False)

    p = sub.add_parser("verify",
                       help="run the cross-check battery; exit 0 iff all pass")
    _add_common(p, marginals=True, horizon=True, temperature=True,
                formats=("text", "json"))
    p.add_argument("--T-grid", dest="t_grid", default="0.1,0.5,1,2,10",
                   help="temperatures for the argmax-invariance check")
    p.add_argument("--pairs", type=int, default=20,
                   help="random marginal pairs for the iterated-bridge check")
    return parser


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"bad temperature grid {text!r}") from exc
    if not grid:
        raise _CliError("temperature grid is empty")
    return grid


def cmd_solve(args) -> int:
    if args.path_cap < 0:
        raise _CliError(f"--path-cap must be >= 0, got {args.path_cap}")
    g = _load_graph_arg(args.graph)
    nu0 = _resolve_marginal(g.n, args.from_delta, args.from_spec, "from")
    nuN = _resolve_marginal(g.n, args.to_delta, args.to_spec, "to")
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    sol = solve_schrodinger(boltzmann_prior(g, args.temperature, args.horizon),
                            nu0, nuN, cfg)
    if args.format == "json":
        doc = _flow_doc(g, sol, args.temperature, args.bits, args.path_cap)
        _emit_json(doc, args.output)
    else:
        header = ["t"] + [f"node{i}" for i in range(1, g.n + 1)]
        rows = [[t] + row for t, row in enumerate(_round_array(sol.marginals).tolist())]
        _emit(_csv_text(header, rows), args.output)
    return 0


def cmd_sweep(args) -> int:
    g = _load_graph_arg(args.graph)
    nu0 = _resolve_marginal(g.n, args.from_delta, args.from_spec, "from")
    nuN = _resolve_marginal(g.n, args.to_delta, args.to_spec, "to")
    grid = _parse_grid(args.t_grid)
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    # keyed by path, so each is tracked once, in the order first named
    tracked = dict.fromkeys(_parse_path(t) for t in args.track)
    if args.track_all:
        for i in np.flatnonzero(nu0 > 0):
            for j in np.flatnonzero(nuN > 0):
                tracked.update(dict.fromkeys(enumerate_feasible_paths(
                    g, args.horizon, source=int(i) + 1, target=int(j) + 1)))
    tracked = list(tracked)
    rows = temperature_sweep(g, nu0, nuN, args.horizon, grid,
                             tracked_paths=tracked, config=cfg)
    for r in rows:
        if r.error:
            print(f"T={r.temperature:g}: {r.error}", file=sys.stderr)
    if args.format == "csv":
        header = ["T", "L", "S", "Var"] + [_path_key(p) for p in tracked]
        table = [[r.temperature, r.average_length, r.entropy, r.variance]
                 + [r.path_masses[p] for p in tracked] for r in rows]
        _emit(_csv_text(header, table), args.output)
    else:
        doc = [{"T": sig12(r.temperature), "L": sig12(r.average_length),
                "S": sig12(r.entropy), "Var": sig12(r.variance),
                "path_masses": {_path_key(p): sig12(m)
                                for p, m in r.path_masses.items()},
                "marginal_flow": (_round_array(r.marginal_flow)
                                  if r.marginal_flow is not None else None),
                "error": r.error} for r in rows]
        _emit_json(doc, args.output)
    return 0


def cmd_calibrate(args) -> int:
    g = _load_graph_arg(args.graph)
    nu0 = _resolve_marginal(g.n, args.from_delta, args.from_spec, "from")
    nuN = _resolve_marginal(g.n, args.to_delta, args.to_spec, "to")
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    try:
        res = calibrate_temperature(g, nu0, nuN, args.horizon, args.l_bar,
                                    tol=args.budget_tol, config=cfg)
    except InfeasibleBudgetError as exc:
        if exc.bounds is not None:
            lo, hi = exc.bounds
            print(f"attainable average length range: [{lo:.12g}, {hi:.12g}]",
                  file=sys.stderr)
        raise
    if (res.bounds is not None
            and args.l_bar > res.bounds[1] + 1e-12):
        lo, hi = res.bounds
        print(f"budget {args.l_bar:g} exceeds the attainable average length "
              f"range [{lo:.12g}, {hi:.12g}]", file=sys.stderr)
        return 2
    S = None
    if not res.at_bound:
        sol = solve_schrodinger(boltzmann_prior(g, res.temperature, args.horizon),
                                nu0, nuN, cfg)
        S = entropy(sol)
    doc = {
        "budget": sig12(args.l_bar),
        "temperature": (res.temperature.value
                        if isinstance(res.temperature, TemperatureLimit)
                        else sig12(res.temperature)),
        "at_bound": res.at_bound,
        "achieved_length": sig12(res.achieved_length),
        "entropy": sig12(S) if S is not None else None,
        "bounds": [sig12(b) for b in res.bounds] if res.bounds is not None else None,
        "iterations": res.iterations,
    }
    if args.format == "json":
        _emit_json(doc, args.output)
    else:
        header = ["budget", "temperature", "at_bound", "achieved_length",
                  "entropy", "lower_bound", "upper_bound", "iterations"]
        lo, hi = res.bounds if res.bounds is not None else (float("nan"),) * 2
        _emit(_csv_text(header, [[args.l_bar, doc["temperature"], int(res.at_bound),
                                  res.achieved_length, S if S is not None else "",
                                  lo, hi, res.iterations]]), args.output)
    return 0


def cmd_paths(args) -> int:
    if args.cap < 0:
        raise _CliError(f"--cap must be >= 0, got {args.cap}")
    g = _load_graph_arg(args.graph)
    paths = enumerate_feasible_paths(g, args.horizon, source=args.source,
                                     target=args.target, cap=args.cap)
    lengths = _round_array(path_lengths(
        g, np.array(paths, dtype=np.intp).reshape(len(paths), args.horizon + 1))).tolist()
    if args.format == "json":
        doc = {
            "n": g.n,
            "horizon": args.horizon,
            "source": args.source,
            "target": args.target,
            "count": len(paths),
            "paths": [{"nodes": list(p), "length": x} for p, x in zip(paths, lengths)],
        }
        _emit_json(doc, args.output)
    else:
        rows = [[_path_key(p), x] for p, x in zip(paths, lengths)]
        _emit(_csv_text(["path", "length"], rows), args.output)
    return 0


def cmd_metrics(args) -> int:
    g = _load_graph_arg(args.graph)
    stats = graph_efficiency_stats(g)
    doc = {
        "n": stats.n,
        "edge_count": len(g.edges),
        "characteristic_length": sig12(stats.characteristic_length),
        "reachable_pair_average": sig12(stats.reachable_pair_average),
        "global_efficiency": sig12(stats.global_efficiency),
    }
    if args.format == "json":
        _emit_json(doc, args.output)
    else:
        _emit(_csv_text(list(doc), [list(doc.values())]), args.output)
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph_arg(args.graph)
    nu0 = _resolve_marginal(g.n, args.from_delta, args.from_spec, "from")
    nuN = _resolve_marginal(g.n, args.to_delta, args.to_spec, "to")
    prior = boltzmann_prior(g, args.temperature, args.horizon)
    # the oracle's rows come in lexicographic order
    measure = oracle_bridge(prior, nu0, nuN)
    rounded = PathMeasure(args.horizon, measure.paths, _round_array(measure.masses))
    masses = dict(zip(map(_path_key, rounded.paths.tolist()), rounded.masses.tolist()))
    flow = np.array([np.bincount(x - 1, rounded.masses, minlength=g.n)
                     for x in rounded.paths.T])
    L = average_path_length(rounded, g)
    S = entropy(rounded)
    doc = {
        "n": g.n,
        "horizon": args.horizon,
        "temperature": sig12(args.temperature),
        "marginal_flow": flow,
        "path_masses": masses,
        "average_length": L,
        "entropy": S,
        "free_energy": L - args.temperature * S,
    }
    if args.format == "json":
        _emit_json(doc, args.output)
    else:
        rows = [[k, v] for k, v in masses.items()]
        _emit(_csv_text(["path", "mass"], rows), args.output)
    return 0


def cmd_verify(args) -> int:
    g = _load_graph_arg(args.graph)
    nu0 = _resolve_marginal(g.n, args.from_delta, args.from_spec, "from")
    nuN = _resolve_marginal(g.n, args.to_delta, args.to_spec, "to")
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    grid = _parse_grid(args.t_grid)
    sol = solve_schrodinger(boltzmann_prior(g, args.temperature, args.horizon),
                            nu0, nuN, cfg)
    checks, meta = verify_battery(g, sol, nu0, nuN, args.temperature, cfg, grid=grid,
                                  pairs=args.pairs)
    failed = [name for name, value, tol in checks if not value <= tol]
    if args.format == "json":
        _emit_json({"all_passed": not failed, "meta": meta,
                    "checks": [{"name": n, "value": sig12(v), "tolerance": sig12(t),
                                "passed": v <= t} for n, v, t in checks]}, args.output)
    else:
        _emit("".join(f"[{'PASS' if v <= t else 'FAIL'}] {n}: {v:.3e} (tol {t:g})\n"
                      for n, v, t in checks), args.output)
    if failed:
        print("verification failed: " + ", ".join(failed), file=sys.stderr)
        return 4
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "paths": cmd_paths,
    "metrics": cmd_metrics,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"netbridge {args.command}: {exc}", file=sys.stderr)
        return exc.code
    except (GraphFormatError, EnumerationCapError, ValueError) as exc:
        print(f"netbridge {args.command}: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"netbridge {args.command}: infeasible: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"netbridge {args.command}: did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # frozen objects (numpy's import-time ones among them) are left out of the
    # collections at shutdown, so exit neither traverses nor frees them
    gc.freeze()
    sys.exit(main())
