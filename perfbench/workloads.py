"""The three workloads: how each builds its inputs from a seed, and how each
op's output is checked against the independent reference.

A workload is one round of ops.  Every op is one `netbridge` invocation
with an output file and a check; the check returns None when the output is
right and a one-line reason when it is not.  Ops that reproduce a known
fault carry its label (F1..F4); they are checked like every other op, so
the day a fault is mended its op starts to pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from inputs import BUILTIN, random_graph, write_graph

REL = 1e-9          # relative tolerance on recomputed scalars
FLOW_TOL = 1e-9     # absolute tolerance on marginal rows and residuals
BUDGET_TOL = 1e-8   # the CLI's default --budget-tol
PATH_CAP = 10_000   # the CLI's default solve --path-cap
SWEEP_GRID = (0.2, 1.41421356237, 10.0)

# Known faults, each on inputs that do not depend on the seed, with a
# fragment of the reason their op fails for today.
FAULTS = {
    "F1": "exit 2",
    "F2": "residual is nan",
    "F3": "temperature 'zero'",
    "F4": "exit 1",
}

Check = Callable[[int, str, Path], "str | None"]


@dataclass
class Op:
    label: str
    argv: list[str]
    output: Path
    check: Check
    fault: str | None = None


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(got, want: float, rel: float = REL) -> bool:
    return _is_num(got) and abs(got - want) <= rel * max(1.0, abs(want))


def _exit_reason(code: int, err: str) -> str:
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return f"exit {code}: {last}"


class Graph:
    """A generated graph: its document on disk and its reference edge list."""

    def __init__(self, name: str, n: int, edges, workdir: Path, builtin: bool = False):
        self.edges = ref.EdgeList.from_edges(n, edges)
        if builtin:
            self.arg = name
        else:
            path = workdir / f"{name}.json"
            write_graph(path, n, edges)
            self.arg = path.name


# ---- checks ---------------------------------------------------------------

def check_solve(g: ref.EdgeList, s: int, t: int, N: int, T: float) -> Check:
    moments = ref.bridge_moments(g, s, t, N, T)
    count = ref.path_count(g, s, t, N)

    def check(code: int, err: str, out: Path) -> str | None:
        if code != 0:
            return _exit_reason(code, err)
        doc = json.loads(out.read_text())
        bad = []
        if doc.get("residual") == "nan":
            bad.append("residual is nan")
        elif not (_close(doc.get("residual"), 0.0, FLOW_TOL)):
            bad.append(f"residual {doc.get('residual')!r}")
        for key, want in (("average_length", moments.mean),
                          ("entropy", moments.entropy),
                          ("free_energy", moments.free_energy)):
            if not _close(doc.get(key), want):
                bad.append(f"{key} {doc.get(key)!r} != {want:.12g}")
        if doc.get("path_count") != count:
            bad.append(f"path_count {doc.get('path_count')!r} != {count}")
        bad += _flow_problems(doc.get("marginal_flow"), g.n, s, t, N)
        masses = doc.get("path_masses")
        if (masses is None) != (count > PATH_CAP):
            bad.append("path_masses present iff path_count <= path cap")
        elif masses is not None:
            for key, m in masses.items():
                path = tuple(int(x) for x in key.split("-"))
                want = moments.log_mass(ref.path_length(g, path))
                if not (_is_num(m) and m > 0 and abs(math.log(m) - want) <= 1e-8):
                    bad.append(f"mass of {key} {m!r} != {math.exp(want):.12g}")
                    break
        return "; ".join(bad) or None

    return check


def _flow_problems(flow, n: int, s: int, t: int, N: int) -> list[str]:
    try:
        flow = np.array(flow, dtype=float)
    except (TypeError, ValueError):
        return ["marginal_flow is not numeric"]
    if flow.shape != (N + 1, n) or not np.all(np.isfinite(flow)):
        return [f"marginal_flow shape {flow.shape} or non-finite entries"]
    bad = []
    if np.abs(flow.sum(axis=1) - 1.0).max() > FLOW_TOL:
        bad.append("a marginal_flow row does not sum to 1")
    for row, node in ((0, s), (N, t)):
        delta = np.zeros(n)
        delta[node - 1] = 1.0
        if np.abs(flow[row] - delta).max() > FLOW_TOL:
            bad.append(f"marginal_flow row {row} is not the delta at {node}")
    return bad


def check_sweep(g: ref.EdgeList, s: int, t: int, N: int,
                tracked: tuple[int, ...]) -> Check:
    rows = [ref.bridge_moments(g, s, t, N, T) for T in SWEEP_GRID]
    key = "-".join(map(str, tracked))
    length = ref.path_length(g, tracked)

    def check(code: int, err: str, out: Path) -> str | None:
        if code != 0:
            return _exit_reason(code, err)
        table = list(csv.reader(out.read_text().splitlines()))
        if table[0] != ["T", "L", "S", "Var", key] or len(table) != len(rows) + 1:
            return f"unexpected CSV layout {table[0]!r} with {len(table) - 1} rows"
        bad = []
        for got, want in zip(table[1:], rows):
            try:
                T, L, S, V, m = (float(x) for x in got)
            except ValueError:
                bad.append(f"non-numeric row {got!r}")
                continue
            mass = math.exp(want.log_mass(length))
            checks = ((T, want.temperature, 1e-11), (L, want.mean, REL),
                      (S, want.entropy, REL), (V, want.variance, 1e-8))
            for name, (a, b, rel) in zip(("T", "L", "S", "Var"), checks):
                if not _close(a, b, rel):
                    bad.append(f"T={want.temperature:g}: {name} {a!r} != {b:.12g}")
            if not (mass > 0 and m > 0 and abs(math.log(m / mass)) <= 1e-8):
                bad.append(f"T={want.temperature:g}: mass {m!r} != {mass:.12g}")
        return "; ".join(bad) or None

    return check


def check_calibrate(g: ref.EdgeList, s: int, t: int, N: int, budget: float) -> Check:
    lmin, _ = ref.minimal_path(g, s, t, N)
    mean = ref.family_mean_length(g, s, t, N)
    if not (lmin < budget < mean):
        raise ValueError(f"budget {budget} is not inside ({lmin}, {mean})")

    def check(code: int, err: str, out: Path) -> str | None:
        if code != 0:
            return _exit_reason(code, err)
        doc = json.loads(out.read_text())
        bounds = doc.get("bounds") or [None, None]
        if not (_close(bounds[0], lmin, 1e-11) and _close(bounds[1], mean, 1e-11)):
            return f"bounds {bounds!r} != [{lmin:.12g}, {mean:.12g}]"
        T = doc.get("temperature")
        if isinstance(T, str) or doc.get("at_bound"):
            return f"temperature {T!r} for a budget inside the bounds"
        if not (_is_num(T) and T > 0):
            return f"temperature {T!r} is not a positive number"
        at = ref.bridge_moments(g, s, t, N, T)
        bad = []
        if not _close(doc.get("achieved_length"), budget, BUDGET_TOL / max(1.0, budget)):
            bad.append(f"achieved_length {doc.get('achieved_length')!r} misses budget {budget}")
        if not _close(doc.get("achieved_length"), at.mean):
            bad.append(f"achieved_length {doc.get('achieved_length')!r} != L(T) {at.mean:.12g}")
        if not _close(doc.get("entropy"), at.entropy):
            bad.append(f"entropy {doc.get('entropy')!r} != S(T) {at.entropy:.12g}")
        return "; ".join(bad) or None

    return check


VERIFY_CHECKS = {"solver-marginals", "path-normalization", "solver-vs-oracle",
                 "iterated-bridge", "argmax-path-invariance", "restriction-ratio",
                 "equal-length-masses"}


def check_verify(g: ref.EdgeList, N: int) -> Check:
    pairs = ref.reachable_pairs(g, N)

    def check(code: int, err: str, out: Path) -> str | None:
        if code != 0:
            return _exit_reason(code, err)
        doc = json.loads(out.read_text())
        names = {c.get("name") for c in doc.get("checks", [])}
        if doc.get("all_passed") is not True or names != VERIFY_CHECKS:
            return f"verify reported all_passed={doc.get('all_passed')!r}, checks {sorted(names)}"
        got = doc.get("meta", {}).get("pairs_checked")
        if got != pairs:
            return f"pairs_checked {got!r} != {pairs} reachable pairs"
        return None

    return check


# ---- workloads ------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _pick_pair(g: ref.EdgeList, N: int, rng: np.random.Generator, min_paths: int,
               tries: int = 50) -> tuple[int, int]:
    """A random endpoint pair joined by at least `min_paths` N-step paths."""
    for _ in range(tries):
        s, t = (int(x) for x in rng.choice(np.arange(1, g.n + 1), 2, replace=False))
        if ref.path_count(g, s, t, N) >= min_paths:
            return s, t
    raise RuntimeError("no admissible endpoint pair found")


def solve_doc(seed: int, workdir: Path) -> list[Op]:
    """Four JSON solves on a seeded g200-like graph, T cycling over 0.5, 1, 2,
    plus F2 on g200 itself."""
    N = 20
    graph = Graph("rand200", *random_graph(np.random.default_rng(seed), 200, 0.04),
                  workdir)
    g200 = Graph("g200", *random_graph(np.random.default_rng(1), 200, 0.04), workdir)
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k, T in enumerate((0.5, 1.0, 2.0, 0.5)):
        s, t = _pick_pair(graph.edges, N, rng, PATH_CAP + 1)
        ops.append(_solve_op(f"solve-{k}", graph, s, t, N, T, workdir))
    ops.append(_solve_op("F2", g200, 1, 2, N, 0.005, workdir, fault="F2"))
    return ops


def _solve_op(name, graph: Graph, s, t, N, T, workdir, fault=None) -> Op:
    out = workdir / f"{name}.json"
    argv = ["solve", "--graph", graph.arg, "--from-delta", str(s), "--to-delta", str(t),
            "-N", str(N), "-T", _fmt(T), "--output", out.name]
    return Op(f"{name}: solve {graph.arg} {s}->{t} N={N} T={T:g}", argv, out,
              check_solve(graph.edges, s, t, N, T), fault)


def sweep_large(seed: int, workdir: Path) -> list[Op]:
    """Three CSV sweeps over a 3-temperature grid on a seeded n=1000 graph."""
    N = 30
    graph = Graph("rand1000", *random_graph(np.random.default_rng(seed), 1000, 0.005),
                  workdir)
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k in range(3):
        s, t = _pick_pair(graph.edges, N, rng, 1)
        _, tracked = ref.minimal_path(graph.edges, s, t, N)
        out = workdir / f"sweep-{k}.csv"
        argv = ["sweep", "--graph", graph.arg, "--from-delta", str(s), "--to-delta", str(t),
                "-N", str(N), "--T-grid", ",".join(_fmt(T) for T in SWEEP_GRID),
                "--track", "-".join(map(str, tracked)), "--format", "csv",
                "--output", out.name]
        ops.append(Op(f"sweep-{k}: {graph.arg} {s}->{t} N={N}", argv, out,
                      check_sweep(graph.edges, s, t, N, tracked)))
    return ops


# Seeded calibration instances stay where the solver's first bracket probe,
# T = 1e-2, cannot underflow: the minimal path may exceed N times the
# shortest edge by at most this much (exp(-5 / 1e-2) ~ 1e-217).  Below that
# the probe breaks down, which is fault F3, kept as its own op.
CALIBRATE_SLACK = 5.0
# Enumerating the path family dominates a small calibration, so its size is
# held in a band; n and N are spread evenly over 30..100 and 6..10.
CALIBRATE_PATHS = (4_000, 8_000)
CALIBRATE_INSTANCES = 20


def _calibrate_op(name, graph: Graph, s, t, N, budget, workdir, fault=None) -> Op:
    out = workdir / f"{name}.json"
    argv = ["calibrate", "--graph", graph.arg, "--from-delta", str(s),
            "--to-delta", str(t), "-N", str(N), "--L-bar", _fmt(budget),
            "--output", out.name]
    return Op(f"{name}: calibrate {graph.arg} {s}->{t} N={N} L={budget:.9g}", argv, out,
              check_calibrate(graph.edges, s, t, N, float(_fmt(budget))), fault)


def _budget(g: ref.EdgeList, s, t, N, rng, lo_T, hi_T) -> float:
    """Expected length at a log-uniform temperature, kept clear of both ends
    of the attainable range so that the budget is interior once printed."""
    lmin, _ = ref.minimal_path(g, s, t, N)
    mean = ref.family_mean_length(g, s, t, N)
    margin = 1e-3 * (mean - lmin)
    while True:
        T = float(np.exp(rng.uniform(np.log(lo_T), np.log(hi_T))))
        budget = float(_fmt(ref.bridge_moments(g, s, t, N, T).mean))
        if lmin + margin < budget < mean - margin:
            return budget


def _small_instance(k: int, rng: np.random.Generator, workdir: Path):
    lo, hi = CALIBRATE_PATHS
    n = 30 + round(70 * k / (CALIBRATE_INSTANCES - 1))
    N = 6 + k % 5
    while True:
        # about (degree^N / n) paths join a pair: aim the degree at the band
        degree = (np.sqrt(lo * hi) * n) ** (1 / N) * rng.uniform(0.85, 1.15)
        nn, edges = random_graph(rng, n, min(degree / n, 1.0))
        g = ref.EdgeList.from_edges(nn, edges)
        floor = N * g.length.min()
        for s in (rng.permutation(n) + 1).tolist():
            counts = ref.path_counts_from(g, s, N)
            slack = ref.minimal_lengths_from(g, s, N) - floor
            ok = [t for t in range(1, n + 1) if t != s and lo <= counts[t - 1] <= hi
                  and slack[t - 1] <= CALIBRATE_SLACK]
            if ok:
                t = int(rng.choice(ok))
                return Graph(f"small-{k}", nn, edges, workdir), s, t, N


def calibrate_small(seed: int, workdir: Path) -> list[Op]:
    """Calibrations on g9, g9-long79 and twenty seeded small graphs, verify on
    both g9 variants, and the faults F1, F3 and F4."""
    rng = np.random.default_rng([seed, 3])
    g9 = {name: Graph(name, *BUILTIN[name], workdir, builtin=True) for name in BUILTIN}
    ops = []
    for name, graph in g9.items():
        budget = _budget(graph.edges, 1, 9, 4, rng, 0.2, 5.0)
        ops.append(_calibrate_op(f"cal-{name}", graph, 1, 9, 4, budget, workdir))
    for k in range(CALIBRATE_INSTANCES):
        graph, s, t, N = _small_instance(k, rng, workdir)
        budget = _budget(graph.edges, s, t, N, rng, 0.05, 20.0)
        ops.append(_calibrate_op(f"cal-small-{k}", graph, s, t, N, budget, workdir))
    for name, graph in g9.items():
        T = round(float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))), 3)
        out = workdir / f"verify-{name}.json"
        argv = ["verify", "--graph", graph.arg, "--from-delta", "1", "--to-delta", "9",
                "-N", "4", "-T", _fmt(T), "--format", "json", "--output", out.name]
        ops.append(Op(f"verify-{name}: T={T:g}", argv, out, check_verify(graph.edges, 4)))

    ops.append(_solve_op("F1", g9["g9"], 1, 9, 4, 0.002, workdir, fault="F1"))
    f3 = Graph("f3-rand40", *random_graph(np.random.default_rng(4), 40, 0.08), workdir)
    ops.append(_calibrate_op("F3", f3, 1, 2, 8, 13.5, workdir, fault="F3"))
    g200 = Graph("g200", *random_graph(np.random.default_rng(1), 200, 0.04), workdir)
    lmin, _ = ref.minimal_path(g200.edges, 1, 2, 20)
    mid = 0.5 * (lmin + ref.family_mean_length(g200.edges, 1, 2, 20))
    ops.append(_calibrate_op("F4", g200, 1, 2, 20, mid, workdir, fault="F4"))
    return ops


WORKLOADS = {
    "solve-doc": solve_doc,
    "sweep-large": sweep_large,
    "calibrate-small": calibrate_small,
}
