"""Closed-loop benchmark of the netbridge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client starts one
`python -m netbridge.cli ...` child at a time against the checkout's
`src/`, with BLAS and OpenMP pinned to one thread, and checks every output
against the independent reference in `reference.py`.  The workload's ops
run in whole rounds until the next round would pass `--seconds`.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` every op also runs once more under
`trace_child.py`, and the object holds the per-layer metrics instead.
Exit status: 0 when every output is right or fails only by a known fault
(F1..F4), 1 when an output is wrong, 2 when the checkout has no netbridge.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import FAULTS, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Inclusive time per op in each public function the trace child wraps.
TIMED = ("graph.load_graph", "graph.count_feasible_paths",
         "graph.enumerate_feasible_paths", "prior.boltzmann_prior",
         "prior.ruelle_bowen_chain", "bridge.solve_schrodinger",
         "bridge.path_probability", "metrics.average_path_length", "metrics.entropy",
         "calibrate.length_variance", "oracle.oracle_bridge",
         "oracle.verify_equal_length_masses")
COUNTS = ("bridge.solves", "bridge.sweeps", "calibrate.probes", "graph.paths_enumerated")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    err: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "NETBRIDGE_THREADS")}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(argv: list[str], workdir: Path, env: dict[str, str]) -> Child:
    """Run one child to completion; wall time runs from spawn to exit."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, err_path.read_text(errors="replace"))


def run_check(op: Op, child: Child) -> str | None:
    try:
        return op.check(child.code, child.err, op.output)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer numbers of one traced op."""
    spans = [dict(zip(("id", "parent", "name", "t0", "t1", "tally"), s))
             for s in trace["spans"]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    root = by_name["cli.main"][0]
    covered, edge = 0.0, root["t0"]
    for t0, t1 in sorted((s["t0"], s["t1"]) for s in spans if s["parent"] == root["id"]):
        covered += max(0.0, t1 - max(t0, edge))
        edge = max(edge, t1)
    solves = sorted(by_name["bridge.solve_schrodinger"], key=lambda s: s["t0"])
    out = {
        "cli.self_s": root["t1"] - root["t0"] - covered,
        "cli.import_s": trace["import_s"],
        "bridge.solves": len(solves),
        "bridge.sweeps": sum(s["tally"] for s in solves),
        "calibrate.probes": len(by_name["calibrate.expected_length_at"]),
        "graph.paths_enumerated": sum(s["tally"] for s in
                                      by_name["graph.enumerate_feasible_paths"]),
    }
    if solves:
        out["bridge.solve_schrodinger_first_s"] = solves[0]["t1"] - solves[0]["t0"]
    for name in TIMED:
        out[f"{name}_s"] = sum(s["t1"] - s["t0"] for s in by_name[name])
    return out


def per_layer_metrics(traces: list[dict], overheads: list[float]) -> dict[str, float]:
    """Mean per traced op of each layer number; the first-solve time is
    averaged over the ops that solve at all."""
    values = [layer_values(t) for t in traces]
    names = ["cli.self_s", "cli.import_s", "bridge.solve_schrodinger_first_s",
             *[f"{n}_s" for n in TIMED], *COUNTS]
    out = {}
    for name in names:
        got = [v[name] for v in values if name in v]
        out[name] = statistics.fmean(got) if got else 0.0
    out["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return out


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "netbridge" / "cli.py").is_file():
        print(f"no netbridge sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    py = sys.executable

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = WORKLOADS[args.workload](args.seed, workdir)
        setups.append(time.perf_counter() - t0)

    # Compile the package's bytecode and fill the file cache before timing.
    warm = spawn([py, "-c", "import netbridge.cli"], workdir, env)
    if warm.code != 0:
        print(f"cannot import netbridge.cli:\n{warm.err}", file=sys.stderr)
        return 2

    plain: list[Child] = []
    doc_bytes: list[int] = []
    traces: list[dict] = []
    overheads: list[float] = []
    failed = 0
    wrong: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            op.output.unlink(missing_ok=True)
            child = spawn([py, "-m", "netbridge.cli", *op.argv], workdir, env)
            plain.append(child)
            reason = run_check(op, child)
            print(f"{op.label}: {child.wall:.3f} s, {child.cpu:.3f} s cpu, "
                  f"{child.rss_mib:.0f} MiB, {reason or 'ok'}", file=sys.stderr)
            if reason is None:
                doc_bytes.append(op.output.stat().st_size)
            else:
                failed += 1
                if op.fault is None:
                    wrong.append(f"{op.label}: {reason}")
                elif FAULTS[op.fault] not in reason:
                    print(f"{op.fault} fails differently from its stated reason "
                          f"({FAULTS[op.fault]!r}): {reason}", file=sys.stderr)
            if args.trace:
                op.output.unlink(missing_ok=True)
                spans = workdir / "spans.json"
                spans.unlink(missing_ok=True)
                traced = spawn([py, str(HERE / "trace_child.py"), spans.name, *op.argv],
                               workdir, env)
                if (run_check(op, traced) is None) != (reason is None):
                    wrong.append(f"{op.label}: traced run disagrees with the plain run")
                try:
                    traces.append(json.loads(spans.read_text()))
                except (OSError, ValueError) as exc:
                    wrong.append(f"{op.label}: traced run left no spans ({exc})")
                    continue
                overheads.append(traced.wall - child.wall)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    if args.trace:
        values = per_layer_metrics(traces, overheads)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        walls = [c.wall for c in plain]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s_p50": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
            "doc_bytes": {"value": statistics.median(doc_bytes) if doc_bytes else 0,
                          "unit": "bytes"},
            "peak_rss_mb": {"value": max(c.rss_mib for c in plain), "unit": "MiB"},
            "cpu_s_per_op": {"value": statistics.median(c.cpu for c in plain), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:16s} {'ops attempted / failed':40s} {len(plain):>10d} / {failed}")
    result = {"correct": not wrong, "attempted": len(plain), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
