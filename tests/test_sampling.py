import itertools
import random

import numpy as np
import pytest

from conftest import inset_samples
from pfaffian.forms import Box
from pfaffian.sampling import (
    MAX_VARIABLES,
    _PRIMES,
    box_corners,
    box_grid,
    box_samples,
    halton,
    linspace,
    radical_inverse,
)


def _bits(points):
    """Exact text of a sequence of floats or of points."""
    return [float.hex(v) if isinstance(v, float) else tuple(map(float.hex, v))
            for v in points]


def _np_bits(array):
    """``_bits`` of a numpy array's values as Python floats."""
    return _bits([tuple(row) if isinstance(row, list) else row
                  for row in array.tolist()])


@pytest.mark.parametrize("dims", range(1, MAX_VARIABLES + 1))
@pytest.mark.parametrize("count, start", [(64, 1), (256, 1), (7, 20)])
def test_halton_matches_radical_inverse(dims, count, start):
    table = halton(count + start - 1, dims)[start - 1:]
    assert len(table) == count
    for i in range(count):
        assert len(table[i]) == dims
        for d in range(dims):
            want = radical_inverse(_PRIMES[d], start + i)
            assert type(table[i][d]) is float
            assert repr(table[i][d]) == repr(want)


def test_halton_table_is_computed_once_and_read_only():
    table = halton(64, 3)
    assert halton(64, 3) is table
    assert halton(65, 3) is not table
    with pytest.raises(TypeError):
        table[0] = (0.5, 0.5, 0.5)
    with pytest.raises(TypeError):
        table[0][0] = 0.5
    # callers get new lists, not the shared table
    samples = box_samples((-1, -1, -1), (1, 1, 1), 64)
    samples[0] = (7.0, 7.0, 7.0)
    assert halton(64, 3) is table and table[0][0] != 7.0


def test_halton_rejects_too_many_dimensions():
    with pytest.raises(ValueError):
        halton(4, MAX_VARIABLES + 1)


# --- bit identity with the numpy expressions the functions replace -------------

SPANS = [
    (0.0, 1.0),
    (-1.0, 1.0),
    (1.0, -1.0),  # negative span
    (-3.7, -12.25),
    (-0.0, 1.0),  # 0 * step + -0.0 is +0.0, as in numpy
    (-0.0, -2.5),
    (0.1, 0.7),
    (-1e150, 1e150),
    (1.0, 1.0 + 2.0 ** -52),
    (0.0, 5e-324),  # the step rounds to zero: i / div * delta + start
    (-5e-324, 1e-323),
    (1e-310, 1.0000000001e-310),
]


@pytest.mark.parametrize("num", [1, 2, 7, 9, 17, 32])
@pytest.mark.parametrize("start, stop", SPANS)
def test_linspace_matches_numpy(start, stop, num):
    got = linspace(start, stop, num)
    assert all(type(v) is float for v in got)
    assert _bits(got) == _np_bits(np.linspace(start, stop, num))


def test_linspace_zero_step_branch_is_exercised():
    assert (5e-324 - 0.0) / 31 == 0.0
    assert linspace(0.0, 5e-324, 32)[-1] == 5e-324


def test_linspace_matches_numpy_on_random_spans():
    rng = random.Random(7)
    for _ in range(2000):
        scale = 10.0 ** rng.randint(-320, 150)
        start = rng.uniform(-1.0, 1.0) * scale
        stop = start + rng.uniform(-1.0, 1.0) * scale * rng.choice([1.0, 1e-12])
        num = rng.randint(1, 40)
        assert _bits(linspace(start, stop, num)) == _np_bits(
            np.linspace(start, stop, num)), (start, stop, num)


BOXES = [
    ((-1.0, -1.0), (1.0, 1.0)),
    ((0.1, -2.5, 3.0), (0.7, 4.25, 3.5)),
    ((-0.0, 1e-3, -1e150, 2.0), (1.0, 2e-3, 1e150, 2.0 + 2.0 ** -40)),
    ((-1, 0, 2), (1, 3, 5)),  # integer bounds
]


@pytest.mark.parametrize("lows, highs", BOXES)
def test_box_grid_matches_numpy(lows, highs):
    for per_axis in (1, 2, 5, 9):
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        want = np.stack([m.ravel() for m in mesh], axis=-1)
        got = box_grid(lows, highs, per_axis)
        assert all(type(v) is float for p in got for v in p)
        assert _bits(got) == _np_bits(want)


@pytest.mark.parametrize("lows, highs", BOXES)
@pytest.mark.parametrize("margin", [0.0, 0.05, 0.1, 1.0 / 3.0])
def test_box_samples_match_numpy(lows, highs, margin):
    # with a margin: conftest.inset_samples, the points verify tests use
    for count in (1, 5, 64, 256):
        lo = np.asarray(lows, dtype=float)
        hi = np.asarray(highs, dtype=float)
        u = np.array(halton(count, len(lows)))
        if margin:
            u = margin + (1.0 - 2.0 * margin) * u
        want = lo + u * (hi - lo)
        got = (inset_samples(Box(lows, highs), count, margin) if margin
               else box_samples(lows, highs, count))
        assert all(type(v) is float for p in got for v in p)
        assert _bits(got) == _np_bits(want)


@pytest.mark.parametrize("lows, highs", BOXES)
def test_box_corners_match_numpy(lows, highs):
    want = np.array(list(itertools.product(*zip(lows, highs))), dtype=float)
    got = box_corners(lows, highs)
    assert all(type(v) is float for p in got for v in p)
    assert _bits(got) == _np_bits(want)
