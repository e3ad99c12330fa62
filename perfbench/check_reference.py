"""Cross-checks of the benchmark's reference against brute-force enumeration.

    python3 perfbench/check_reference.py        # or: python -m pytest perfbench/check_reference.py

Every quantity `reference.py` computes by dynamic programming is recomputed
here by listing the N-step paths of tiny graphs one by one, down to
T = 1e-3 where exp(-l/T) underflows in linear space.  The checks the
workloads apply are then fed documents with one field wrong and must
reject them.  Needs numpy only; netbridge is not imported.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from inputs import BUILTIN, random_graph  # noqa: E402

TEMPERATURES = (1e-3, 0.1, 1.0, 10.0)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def brute_paths(n: int, edges, s: int, t: int, N: int):
    succ = {u: [] for u in range(1, n + 1)}
    for u, v, w in edges:
        succ[u].append((v, w))
    out = []

    def walk(path, length):
        if len(path) == N + 1:
            if path[-1] == t:
                out.append((tuple(path), length))
            return
        for v, w in sorted(succ[path[-1]]):
            walk(path + [v], length + w)

    walk([s], 0.0)
    return out


def brute_moments(paths, T: float):
    logs = [-l / T for _, l in paths]
    top = max(logs)
    log_z = top + math.log(sum(math.exp(x - top) for x in logs))
    p = [math.exp(x - log_z) for x in logs]
    mean = sum(pi * l for pi, (_, l) in zip(p, paths))
    var = sum(pi * (l - mean) ** 2 for pi, (_, l) in zip(p, paths))
    return log_z, mean, var


def tiny_cases():
    for name in BUILTIN:
        n, edges = BUILTIN[name]
        for s, t, N in ((1, 9, 4), (1, 9, 5), (2, 9, 3)):
            yield name, n, edges, s, t, N
    for seed in range(4):
        n, edges = random_graph(np.random.default_rng(seed), 6, 0.4)
        yield f"rand6-{seed}", n, edges, 1, 2, 5


def close(a: float, b: float, rel: float = 1e-11) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def test_moments_count_and_bounds_match_enumeration():
    for name, n, edges, s, t, N in tiny_cases():
        paths = brute_paths(n, edges, s, t, N)
        g = ref.EdgeList.from_edges(n, edges)
        expect(ref.path_count(g, s, t, N) == len(paths), f"{name}: path count")
        if not paths:
            continue
        lengths = [l for _, l in paths]
        best, path = ref.minimal_path(g, s, t, N)
        expect(close(best, min(lengths)), f"{name}: minimal length")
        expect(path == min(p for p, l in paths if close(l, min(lengths), 1e-12)),
               f"{name}: minimal path {path}")
        expect(close(ref.path_length(g, path), best), f"{name}: minimal path length")
        expect(close(ref.family_mean_length(g, s, t, N), sum(lengths) / len(lengths)),
               f"{name}: family mean")
        expect(close(ref.minimal_lengths_from(g, s, N)[t - 1], best), f"{name}: lengths from s")
        for T in TEMPERATURES:
            log_z, mean, var = brute_moments(paths, T)
            m = ref.bridge_moments(g, s, t, N, T)
            expect(close(m.log_z, log_z, 1e-12), f"{name} T={T}: log Z")
            expect(close(m.mean, mean, 1e-10), f"{name} T={T}: mean {m.mean} vs {mean}")
            expect(abs(m.variance - var) <= 1e-10 * max(1.0, var), f"{name} T={T}: variance")
            # S = log Z + L/T cancels at low T: both sides carry ulp(log Z).
            expect(abs(m.entropy - (log_z + mean / T)) <= 1e-10 * max(1.0, abs(log_z)),
                   f"{name} T={T}: entropy")
            for p, l in paths:
                expect(close(m.log_mass(l), -l / T - log_z, 1e-12), f"{name}: mass of {p}")


def test_reachable_pairs_match_enumeration():
    for name, (n, edges) in BUILTIN.items():
        g = ref.EdgeList.from_edges(n, edges)
        for N in (1, 4, 6):
            want = sum(bool(brute_paths(n, edges, i, j, N))
                       for i in range(1, n + 1) for j in range(1, n + 1))
            expect(ref.reachable_pairs(g, N) == want, f"{name} N={N}: reachable pairs")


def _random_graph_one_draw_at_a_time(rng, n, p_edge, max_len=3.0):
    """The test suite's recipe, kept verbatim as the reference for the generator."""
    edges = []
    for i in range(1, n + 1):
        out = [j for j in range(1, n + 1) if rng.random() < p_edge]
        if not out:
            out = [int(rng.integers(1, n + 1))]
        for j in out:
            edges.append((i, j, float(np.round(rng.uniform(0.1, max_len), 3))))
    return n, edges


def test_generator_draws_like_the_one_at_a_time_recipe():
    for seed, n, p in ((1, 200, 0.04), (4, 40, 0.08), (3, 30, 0.01), (9, 100, 0.05)):
        want = _random_graph_one_draw_at_a_time(np.random.default_rng(seed), n, p)
        got = random_graph(np.random.default_rng(seed), n, p)
        expect(got == want, f"random_graph({seed}, {n}, {p}) differs from the recipe")


def test_generator_rebuilds_g200():
    n, edges = random_graph(np.random.default_rng(1), 200, 0.04)
    expect((n, len(edges)) == (200, 1581), f"g200 has {len(edges)} edges")
    g = ref.EdgeList.from_edges(n, edges)
    expect(ref.path_count(g, 1, 2, 20) == 4_162_858_665_283_677, "g200 1->2 path count")


def _solve_doc(n: int, edges, s: int, t: int, N: int, T: float) -> dict:
    """A right solve document for a tiny graph, built by enumeration."""
    m = ref.bridge_moments(ref.EdgeList.from_edges(n, edges), s, t, N, T)
    paths = brute_paths(n, edges, s, t, N)
    flow = np.zeros((N + 1, n))
    for p, l in paths:
        for step, x in enumerate(p):
            flow[step, x - 1] += math.exp(m.log_mass(l))
    return {
        "average_length": m.mean, "entropy": m.entropy, "free_energy": m.free_energy,
        "residual": 0.0, "path_count": len(paths), "marginal_flow": flow.tolist(),
        "path_masses": {"-".join(map(str, p)): math.exp(m.log_mass(l)) for p, l in paths},
    }


def test_checks_reject_wrong_documents():
    n, edges = BUILTIN["g9"]
    check = workloads.check_solve(ref.EdgeList.from_edges(n, edges), 1, 9, 4, 1.0)
    good = _solve_doc(n, edges, 1, 9, 4, 1.0)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "doc.json"
        out.write_text(json.dumps(good))
        expect(check(0, "", out) is None, f"good document rejected: {check(0, '', out)}")
        expect(check(2, "infeasible", out) is not None, "nonzero exit accepted")
        for key, bad in (("average_length", good["average_length"] + 1e-5),
                         ("entropy", good["entropy"] * (1 + 1e-6)),
                         ("free_energy", "nan"), ("residual", "nan"),
                         ("path_count", good["path_count"] + 1), ("path_masses", None)):
            out.write_text(json.dumps(dict(good, **{key: bad})))
            expect(check(0, "", out) is not None, f"wrong {key} accepted")
        flow = np.array(good["marginal_flow"])
        flow[4] = np.roll(flow[4], 1)
        out.write_text(json.dumps(dict(good, marginal_flow=flow.tolist())))
        expect(check(0, "", out) is not None, "wrong terminal marginal accepted")


def test_calibrate_check_wants_the_budget_hit():
    n, edges = BUILTIN["g9"]
    g = ref.EdgeList.from_edges(n, edges)
    T = 0.8
    at = ref.bridge_moments(g, 1, 9, 4, T)
    check = workloads.check_calibrate(g, 1, 9, 4, at.mean)
    good = {"temperature": T, "at_bound": False, "achieved_length": at.mean,
            "entropy": at.entropy, "bounds": [3.0, 25 / 7]}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "doc.json"
        out.write_text(json.dumps(good))
        expect(check(0, "", out) is None, f"good calibration rejected: {check(0, '', out)}")
        for key, bad in (("temperature", "zero"), ("achieved_length", 3.0),
                         ("entropy", at.entropy + 1e-4), ("bounds", [3.0, 3.5])):
            out.write_text(json.dumps(dict(good, **{key: bad})))
            expect(check(0, "", out) is not None, f"wrong {key} accepted")


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
