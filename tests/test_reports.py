import math

import numpy as np
import pytest

from pfaffian.reports import csv_text, json_text

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
