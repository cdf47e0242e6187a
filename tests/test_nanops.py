"""Unit tests for the silent NaN-tolerant reductions in repro.nanops."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nanops import nanmax, nanmean, nanmedian

ALL_FUNCS = [nanmean, nanmedian, nanmax]
NUMPY_EQUIV = {nanmean: np.nanmean, nanmedian: np.nanmedian, nanmax: np.nanmax}


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_matches_numpy_on_finite_input(func):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 5))
    np.testing.assert_allclose(func(values), NUMPY_EQUIV[func](values))
    np.testing.assert_allclose(func(values, axis=0), NUMPY_EQUIV[func](values, axis=0))
    np.testing.assert_allclose(func(values, axis=1), NUMPY_EQUIV[func](values, axis=1))


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_ignores_scattered_nans(func):
    values = np.array([[1.0, np.nan, 3.0], [np.nan, 2.0, 4.0]])
    out = func(values, axis=0)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, NUMPY_EQUIV[func](values, axis=0))


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_all_nan_input_returns_nan_silently(func):
    values = np.full((3, 4), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning becomes a failure
        assert np.isnan(func(values))
        assert np.isnan(func(values, axis=0)).all()
        assert np.isnan(func(values, axis=1)).all()


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_all_nan_slice_along_axis_is_silent(func):
    values = np.array([[1.0, np.nan], [2.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = func(values, axis=0)
    assert np.isfinite(out[0])
    assert np.isnan(out[1])


@pytest.mark.parametrize("func", ALL_FUNCS)
def test_does_not_suppress_warnings_for_caller(func):
    """The warning filter must not leak outside the wrapper."""
    func(np.full(3, np.nan))
    with pytest.warns(RuntimeWarning):
        warnings.warn("still visible", RuntimeWarning)


def test_nanmax_all_nan_no_value_error():
    # Plain np.nanmax warns (not raises) on all-NaN; the wrapper must too.
    assert np.isnan(nanmax(np.array([np.nan, np.nan])))


# Finite values bounded away from overflow (float32 included): at |x|
# near the float max, np.nanmedian's own code paths disagree (it halves
# h + h for odd counts on small slices but not on large ones).
_cells = st.one_of(
    st.just(np.nan),
    st.floats(-1e30, 1e30, allow_nan=False),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0]),
)


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 9),
    axis=st.sampled_from([0, 1, -1]),
    dtype=st.sampled_from([np.float64, np.float32]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_nanmedian_equals_numpy_bit_for_bit(rows, cols, axis, dtype, data):
    """Clean, NaN-carrying and all-NaN slices all give np.nanmedian's bits."""
    cells = data.draw(st.lists(_cells, min_size=rows * cols, max_size=rows * cols))
    values = np.array(cells, dtype=np.float64).reshape(rows, cols).astype(dtype)
    if data.draw(st.booleans()):
        values[data.draw(st.integers(0, rows - 1))] = np.nan  # an all-NaN row
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.nanmedian(values, axis=axis)
    got = nanmedian(values, axis=axis)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_nanmedian_lag_matrix_rows():
    """A streaming-shaped band matrix: most rows carry NaN at the band edge."""
    rng = np.random.default_rng(3)
    values = rng.random((300, 201))
    values[:, :40] = np.nan
    values[::7, 150:] = np.nan
    values[5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.nanmedian(values, axis=1)
    assert nanmedian(values, axis=1).tobytes() == want.tobytes()
