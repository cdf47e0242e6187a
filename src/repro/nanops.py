"""NaN-tolerant reductions that stay silent on all-NaN slices.

``np.nanmean``/``np.nanmedian`` emit RuntimeWarnings when a slice holds no
finite value; lost-packet columns make that a routine, expected condition
here, so these wrappers return NaN quietly instead.
"""

from __future__ import annotations

import warnings

import numpy as np


def nanmean(values: np.ndarray, axis=None) -> np.ndarray:
    """np.nanmean without the all-NaN RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmean(values, axis=axis)


def nanmedian(values: np.ndarray, axis=None) -> np.ndarray:
    """np.nanmedian without the all-NaN RuntimeWarning.

    ``np.nanmedian`` compacts every slice through its NaN-stripping
    masked-array machinery even when a slice holds no NaN at all.
    Clean slices are routed through the partition-based ``np.median``
    instead, and NaN-carrying slices through one vectorized sort
    (:func:`_sorted_nanmedian`).  Every path picks the same middle
    value(s) and averages two of them the same way, so the result is
    equal to calling ``np.nanmedian`` on everything.
    """
    values = np.asarray(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        if (
            not isinstance(axis, int)
            or values.dtype.kind != "f"
            or values.ndim < 1
            or values.size == 0
        ):
            return np.nanmedian(values, axis=axis)
        nan_slices = np.isnan(values).any(axis=axis)
        if not nan_slices.any():
            return np.median(values, axis=axis)
        rows = np.moveaxis(values, axis, -1).reshape(-1, values.shape[axis])
        dirty = nan_slices.ravel()
        if dirty.all():
            return _sorted_nanmedian(rows).reshape(nan_slices.shape)
        out = np.empty(dirty.shape, dtype=values.dtype)
        out[~dirty] = np.median(rows[~dirty], axis=-1)
        out[dirty] = _sorted_nanmedian(rows[dirty])
        return out.reshape(nan_slices.shape)


def _sorted_nanmedian(rows: np.ndarray) -> np.ndarray:
    """Median of each row of a 2-D float array, ignoring NaN.

    ``np.sort`` puts NaN last, so a row's ``n`` non-NaN values are its
    first ``n`` sorted cells.  The two middle cells (one cell twice for
    odd ``n``; a NaN cell when ``n == 0``) are summed from zero and
    halved, exactly the arithmetic of ``np.nanmedian``'s masked-array
    path, so even signed zeros agree.
    """
    ordered = np.sort(rows, axis=-1)
    n = rows.shape[-1] - np.isnan(rows).sum(axis=-1)
    lo = np.take_along_axis(ordered, (np.maximum(n - 1, 0) // 2)[:, None], axis=-1)
    hi = np.take_along_axis(ordered, (n // 2)[:, None], axis=-1)
    return ((lo[:, 0] + hi[:, 0]) + 0.0) / 2


def nanmax(values: np.ndarray, axis=None) -> np.ndarray:
    """np.nanmax without the all-NaN RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmax(values, axis=axis)
