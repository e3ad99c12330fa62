"""Run one netbridge CLI invocation with its layer functions timed.

    python trace_child.py SPANS_JSON ARG...

Imports `netbridge.cli` (timing the import), wraps the public functions
named in LAYERS on every netbridge module namespace that binds them, calls
`netbridge.cli.main([ARG...])` and exits with its return code.  Each call
of a wrapped function is a span (id, parent id, name, start, end, tally);
spans stay in memory and are written to SPANS_JSON once main returns.
Spans opened on a worker thread with no open span of their own take the
`cli.main` span as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = {
    "cli": ("main",),
    "graph": ("load_graph", "count_feasible_paths", "enumerate_feasible_paths"),
    "prior": ("boltzmann_prior", "ruelle_bowen_chain"),
    "bridge": ("solve_schrodinger", "path_probability"),
    "metrics": ("average_path_length", "entropy"),
    "calibrate": ("length_variance", "expected_length_at"),
    "oracle": ("oracle_bridge", "verify_equal_length_masses"),
}


def _sweeps(outcome, fn, args, kwargs):
    """Fitting sweeps of a solve; a ConvergenceError carries them too."""
    return getattr(outcome, "iterations", None) or 0


def _paths(outcome, fn, args, kwargs):
    """Paths produced by an enumeration; one that hits its cap made `cap`."""
    if isinstance(outcome, list):
        return len(outcome)
    if type(outcome).__name__ == "EnumerationCapError":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["cap"]
    return 0


TALLIES = {
    "bridge.solve_schrodinger": _sweeps,
    "graph.enumerate_feasible_paths": _paths,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            if self.root is None:
                self.root = sid
            stack.append(sid)
            outcome = None
            t0 = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = tally(outcome, fn, args, kwargs) if tally else None
                self.spans.append((sid, parent, name, t0, t1, extra))

        return traced


def install(tracer: Tracer) -> None:
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, names in LAYERS.items():
        module = sys.modules[f"netbridge.{layer}"]
        for name in names:
            fn = getattr(module, name)
            wrapped[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    for modname, module in list(sys.modules.items()):
        if modname != "netbridge" and not modname.startswith("netbridge."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import netbridge.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    try:
        code = netbridge.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
