"""Seeded graph inputs for the benchmark, written as netbridge graph documents.

`random_graph` follows the recipe of the test suite's `random_graph`
helper draw for draw, so `random_graph(default_rng(1), 200, 0.04)` is the
ROADMAP's `g200` (1,581 edges).  The builtin `g9`
networks are spelled out here as plain edge lists so that the reference
never asks netbridge what a graph is.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

Edge = tuple[int, int, float]

_G9_EDGES = (
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (2, 7), (3, 4), (3, 8), (4, 8),
    (5, 6), (5, 7), (6, 9), (7, 9), (8, 9),
)


def g9_edges(l79: float = 1.0) -> tuple[int, list[Edge]]:
    """The bundled 9-node network: unit lengths, a zero-length loop at 9."""
    edges = [(u, v, l79 if (u, v) == (7, 9) else 1.0) for u, v in _G9_EDGES]
    return 9, edges + [(9, 9, 0.0)]


BUILTIN = {"g9": g9_edges(), "g9-long79": g9_edges(2.0)}


def random_graph(rng: np.random.Generator, n: int, p_edge: float,
                 max_len: float = 3.0) -> tuple[int, list[Edge]]:
    """Random directed graph; every node keeps at least one outgoing edge.

    Draws the same numbers in the same order as the test suite's one-draw-
    at-a-time loop, a node's row at a time.
    """
    edges = []
    for i in range(1, n + 1):
        out = (np.flatnonzero(rng.random(n) < p_edge) + 1).tolist()
        if not out:
            out = [int(rng.integers(1, n + 1))]
        lengths = np.round(rng.uniform(0.1, max_len, len(out)), 3).tolist()
        edges.extend((i, j, w) for j, w in zip(out, lengths))
    return n, edges


def write_graph(path: Path, n: int, edges: list[Edge]) -> None:
    doc = {"n": n, "edges": [{"from": u, "to": v, "length": w} for u, v, w in edges]}
    path.write_text(json.dumps(doc))
