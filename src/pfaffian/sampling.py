"""Deterministic low-discrepancy sampling of box domains: tuples of floats."""

from __future__ import annotations

import functools
import itertools

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


def linspace(start, stop, num: int) -> list:
    """``num >= 1`` evenly spaced floats from ``start`` to ``stop``, both included,
    with ``numpy.linspace``'s operations: ``i * step + start``, or
    ``i / (num - 1) * (stop - start) + start`` where the step rounds to 0."""
    start, stop = float(start), float(stop)
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def halton(count: int, dims: int) -> tuple:
    """First ``count`` Halton points in [0,1)^dims, indices starting at 1.

    A tuple of points, each a tuple of Python floats.  The table is computed
    once per ``(count, dims)`` and shared between callers.
    """
    if dims > MAX_VARIABLES:
        raise ValueError(f"halton supports up to {MAX_VARIABLES} dimensions")
    return _halton_table(int(count), int(dims))


@functools.lru_cache(maxsize=32)
def _halton_table(count, dims):
    return tuple(tuple(radical_inverse(_PRIMES[d], 1 + i) for d in range(dims))
                 for i in range(count))


def box_samples(lows, highs, count: int) -> list:
    """Halton points mapped into the box."""
    units = halton(count, len(lows))
    return [tuple(lo + v * (hi - lo) for v, lo, hi in zip(u, lows, highs))
            for u in units]


def box_grid(lows, highs, per_axis: int) -> list:
    """Regular grid over the box including the boundary, per_axis points per
    axis, the last axis varying fastest."""
    axes = [linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
    return list(itertools.product(*axes))


def box_corners(lows, highs) -> list:
    return list(itertools.product(*((float(lo), float(hi))
                                    for lo, hi in zip(lows, highs))))
