"""Deterministic low-discrepancy sampling of box domains."""

from __future__ import annotations

import functools
import itertools

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
MAX_VARIABLES = len(_PRIMES)  # Halton sampling has one prime base per axis


def radical_inverse(base: int, index: int) -> float:
    inv = 0.0
    digit = 1.0 / base
    while index > 0:
        index, rem = divmod(index, base)
        inv += rem * digit
        digit /= base
    return inv


def halton(count: int, dims: int, start: int = 1) -> np.ndarray:
    """First ``count`` Halton points in [0,1)^dims, indices starting at ``start``.

    The table is computed once per ``(count, dims, start)`` and shared
    between callers, so the array is read-only.
    """
    if dims > MAX_VARIABLES:
        raise ValueError(f"halton supports up to {MAX_VARIABLES} dimensions")
    return _halton_table(int(count), int(dims), int(start))


@functools.lru_cache(maxsize=32)
def _halton_table(count, dims, start):
    pts = np.empty((count, dims))
    for i in range(count):
        for d in range(dims):
            pts[i, d] = radical_inverse(_PRIMES[d], start + i)
    pts.flags.writeable = False
    return pts


def box_samples(lows, highs, count: int, margin: float = 0.0) -> np.ndarray:
    """Halton points mapped into the box, optionally inset by a relative margin."""
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    u = halton(count, len(lows))
    if margin:
        u = margin + (1.0 - 2.0 * margin) * u
    return lows + u * (highs - lows)


def box_grid(lows, highs, per_axis: int) -> np.ndarray:
    """Regular grid over the box including the boundary, per_axis points per axis."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def box_corners(lows, highs) -> np.ndarray:
    return np.array(list(itertools.product(*zip(lows, highs))), dtype=float)
