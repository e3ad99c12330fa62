"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math

import numpy as np


def hilbert_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Hilbert projective distance between two nonnegative vectors.

    Scale invariant: d(cx, y) = d(x, y) for c > 0.  Vectors with different
    supports are infinitely far apart, and so is a vector holding NaN from
    anything; two all-zero vectors are at distance 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        return float("inf")
    sx = x > 0.0
    sy = y > 0.0
    if not np.array_equal(sx, sy):
        return float("inf")
    if not sx.any():
        return 0.0
    r = np.log(x[sx]) - np.log(y[sy])
    return float(r.max() - r.min())


def sig12(x: float) -> float:
    """Round to 12 significant digits (the fixed output precision)."""
    if not math.isfinite(x):
        return float(x)
    return float(f"{x:.12g}")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over `axis` (all of `a`, as a float, if None) without
    overflow; -inf for an empty or all -inf reduction."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    m = a.max(axis=axis, keepdims=True, initial=-np.inf)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)
    return float(out) if axis is None else out
