"""The column fold over a short last axis."""

import numpy as np
import pytest

from sampcap._num import fold_last


def columns(n):
    """Rows of n entries whose sums depend on the order of the additions
    (magnitudes from 2^-60 to 2^60), rows of tied entries, of zeros and of
    infinities, in a [rows, 3, n] batch."""
    rng = np.random.default_rng(n)
    wide = rng.normal(size=(600, n)) * np.exp2(rng.integers(-60, 61, (600, n)))
    tied = np.repeat(rng.normal(size=(60, 1)), n, axis=1)
    zeros = np.zeros((6, n))
    infinite = np.where(rng.random((6, n)) < 0.5, np.inf, -1.0)
    return np.concatenate([wide, tied, zeros, infinite]).reshape(-1, 3, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_sums_are_numpys_below_eight_entries(n):
    a = columns(n)
    assert np.array_equal(fold_last(np.add, a), np.add.reduce(a, axis=-1))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31])
def test_maxima_are_numpys_at_any_length(n):
    a = columns(n)
    assert np.array_equal(fold_last(np.maximum, a),
                          np.maximum.reduce(a, axis=-1))


def test_the_fold_walks_the_columns_in_order():
    # (2^53 + 1) + 1 rounds to 2^53 twice; 1 + 1 + 2^53 does not
    a = np.array([[2.0**53, 1.0, 1.0], [1.0, 1.0, 2.0**53]])
    assert fold_last(np.add, a).tolist() == [2.0**53, 2.0**53 + 2.0]


@pytest.mark.parametrize("op", [np.add, np.maximum])
def test_one_column_gives_a_fresh_array(op):
    a = np.arange(6.0).reshape(3, 2, 1)
    out = fold_last(op, a)
    assert out.shape == (3, 2) and not np.shares_memory(out, a)
    out[...] = -1.0
    assert a.min() == 0.0
