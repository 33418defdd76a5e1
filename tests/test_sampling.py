import numpy as np
import pytest

from pfaffian.sampling import MAX_VARIABLES, _PRIMES, box_samples, halton, radical_inverse


@pytest.mark.parametrize("dims", range(1, MAX_VARIABLES + 1))
@pytest.mark.parametrize("count, start", [(64, 1), (256, 1), (7, 20)])
def test_halton_matches_radical_inverse(dims, count, start):
    table = halton(count, dims, start)
    assert table.shape == (count, dims)
    for i in range(count):
        for d in range(dims):
            want = radical_inverse(_PRIMES[d], start + i)
            assert repr(float(table[i, d])) == repr(want)


def test_halton_table_is_computed_once_and_read_only():
    table = halton(64, 3)
    assert halton(64, 3) is table
    assert halton(64, 3, 2) is not table
    with pytest.raises(ValueError):
        table[0, 0] = 0.5
    # callers get new arrays, not views of the shared table
    samples = box_samples((-1, -1, -1), (1, 1, 1), 64, margin=0.1)
    samples[0, 0] = 7.0
    assert np.array_equal(halton(64, 3), table) and table[0, 0] != 7.0


def test_halton_rejects_too_many_dimensions():
    with pytest.raises(ValueError):
        halton(4, MAX_VARIABLES + 1)
