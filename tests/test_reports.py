import csv
import io
import math

import numpy as np
import pytest

from pfaffian.reports import csv_text, float_repr, json_text

VALUES = [0.1, 1 / 3, -2.5e-300, 5e-324, 1.7976931348623157e308, 0.0, -0.0, 42.0]


@pytest.mark.parametrize("value", VALUES)
def test_numpy_float_in_a_report_serializes_as_the_float(value):
    want = json_text({"x": value, "row": [value, 1], "nested": {"y": value}})
    got = json_text({"x": np.float64(value), "row": [np.float64(value), 1],
                     "nested": {"y": np.float64(value)}})
    assert got == want
    assert csv_text(["x"], [[np.float64(value)]]) == csv_text(["x"], [[value]])


def test_numpy_integer_and_bool_in_a_report():
    assert json_text({"n": np.int64(7), "b": np.bool_(True)}) == json_text(
        {"n": 7, "b": True})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_numpy_float_is_refused_like_a_float(value):
    with pytest.raises(ValueError, match="non-finite"):
        json_text({"x": value})
    with pytest.raises(ValueError, match="non-finite"):
        json_text({"x": np.float64(value)})


@pytest.mark.parametrize("items, want", [
    ([np.int64(1), 2], [1, 2]),
    ([np.bool_(True)], [True]),
    ([np.float32(0.5), "a", None], [0.5, "a", None]),
])
def test_numpy_scalars_in_a_list_keep_its_layout(items, want):
    # the list is written inline, as the same Python values are
    assert json_text({"a": items}) == json_text({"a": want})
    assert json_text([items]) == json_text([want])


def _writer_csv(header, rows):
    """The rows through ``csv.writer``, floats as ``float_repr``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([float_repr(v) if isinstance(v, float) else v for v in row])
    return out.getvalue()


def _random_cell(rng):
    kind = int(rng.integers(8))
    if kind == 0:
        return -0.0
    if kind == 1:
        # a subnormal: an integer multiple of the smallest one, below 2**-1022
        return float(rng.choice([-1, 1]) * rng.integers(1, 2**52)) * 5e-324
    if kind == 2:
        return int(rng.integers(-10**6, 10**6))
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return np.float64(rng.standard_normal())
    if kind == 5:
        return np.int64(rng.integers(-10**12, 10**12))
    return float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))


def test_csv_rows_match_csv_writer(rng):
    header = ["x", "y", "z", "steps"]
    for _ in range(50):
        rows = [[_random_cell(rng) for _ in range(int(rng.integers(1, 6)))]
                for _ in range(int(rng.integers(0, 20)))]
        assert csv_text(header, rows) == _writer_csv(header, rows)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   np.float64(math.inf), np.float64(math.nan)])
def test_non_finite_csv_cell_is_refused(value):
    with pytest.raises(ValueError, match="non-finite"):
        csv_text(["x", "y"], [[0.5, 1], [value, 2]])
