"""Aligned-pair detection (§4.3) and per-sample group selection.

RIM never knows a priori which antenna pair is retracing — that depends on
the (unknown) heading.  Detection runs in two steps:

* **Pre-detection** screens every pair cheaply (strided alignment matrix)
  and keeps only pairs whose matrices show prominent peaks most of the
  time; peak tracking runs on the survivors only.
* **Post-detection** scores each tracked path on continuity, TRRS level,
  and smoothness, and selects — per time sample, with hysteresis — the
  pair group most likely aligned.

Groups are the parallel-isometric pair groups of §4.2: members share the
alignment delay under translation, so their matrices are averaged before
tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arrays.pairs import AntennaPair
from repro.core.alignment import AlignmentMatrix, nan_moving_average
from repro.core.tracking import TrackedPath
from repro.nanops import nanmax, nanmedian


@dataclass
class GroupTrack:
    """A tracked (possibly averaged) pair group.

    Attributes:
        pairs: The parallel isometric pairs sharing this track.
        matrix: The (averaged) alignment matrix.
        path: The DP-tracked peak path.
        quality: (T,) smoothed per-sample path prominence — path TRRS minus
            the column median; near zero for unaligned pairs.
    """

    pairs: List[AntennaPair]
    matrix: AlignmentMatrix
    path: TrackedPath
    quality: np.ndarray

    @property
    def separation(self) -> float:
        return self.pairs[0].separation

    @property
    def axis_angle(self) -> float:
        return self.pairs[0].axis_angle


def peak_prominence_score(
    values: np.ndarray, moving: Optional[np.ndarray] = None
) -> float:
    """Pre-detection score of an alignment matrix (§4.3).

    Per row: the peak prominence max - median; the score is the mean over
    (moving) rows with enough finite lags.  Aligned pairs show prominent
    peaks "most of the time", unaligned pairs do not.
    """
    values = np.asarray(values, dtype=np.float64)
    finite_rows = np.isfinite(values).sum(axis=1) >= max(3, values.shape[1] // 4)
    rows = finite_rows if moving is None else (finite_rows & np.asarray(moving, bool))
    if not rows.any():
        return 0.0
    sel = values[rows]
    peak = nanmax(sel, axis=1)
    median = nanmedian(sel, axis=1)
    prom = peak - median
    prom = prom[np.isfinite(prom)]
    return float(prom.mean()) if prom.size else 0.0


def path_quality(
    matrix: AlignmentMatrix,
    path: TrackedPath,
    smoothing_window: int = 31,
) -> np.ndarray:
    """(T,) per-sample prominence of the tracked path (post-detection input).

    The raw per-sample quality is the path TRRS minus the column median
    (how much the tracked peak stands out of the lag clutter); it is then
    smoothed with a NaN-aware moving average.
    """
    raw = path.path_trrs - matrix.row_median
    raw = np.where(np.isfinite(raw), raw, 0.0)
    return nan_moving_average(raw[:, None], smoothing_window)[:, 0]


@dataclass
class PostCheck:
    """Aggregate post-detection statistics of one tracked group (§4.3)."""

    mean_path_trrs: float
    mean_prominence: float
    lag_jitter: float
    valid_fraction: float

    @property
    def accepted(self) -> bool:
        """Overall accept decision: prominent, reasonably smooth path."""
        return (
            self.mean_prominence > 0.08
            and self.valid_fraction > 0.5
            and self.lag_jitter < 10.0
        )


def post_check(
    matrix: AlignmentMatrix,
    path: TrackedPath,
    moving: Optional[np.ndarray] = None,
) -> PostCheck:
    """Score a tracked path on continuity, TRRS values, and smoothness."""
    sel = (
        np.asarray(moving, bool)
        if moving is not None
        else np.ones(matrix.n_samples, dtype=bool)
    )
    trrs = path.path_trrs[sel]
    finite = np.isfinite(trrs)
    mean_trrs = float(trrs[finite].mean()) if finite.any() else 0.0

    prom = (path.path_trrs - matrix.row_median)[sel]
    prom = prom[np.isfinite(prom)]
    mean_prom = float(prom.mean()) if prom.size else 0.0

    lags = path.lags[sel]
    jitter = float(np.abs(np.diff(lags)).mean()) if lags.size > 1 else 0.0
    return PostCheck(
        mean_path_trrs=mean_trrs,
        mean_prominence=mean_prom,
        lag_jitter=jitter,
        valid_fraction=float(finite.mean()) if finite.size else 0.0,
    )


def select_group_per_sample(
    tracks: Sequence[GroupTrack],
    moving: np.ndarray,
    hysteresis: float = 0.02,
    min_quality: float = 0.01,
) -> np.ndarray:
    """Choose the aligned group for every moving sample, with hysteresis.

    Args:
        tracks: Candidate group tracks (post-detection survivors).
        moving: (T,) movement mask.
        hysteresis: A challenger group must beat the incumbent's quality by
            this margin to take over (prevents flapping near crossovers,
            e.g. at the corners of the Fig. 5 square).
        min_quality: Samples where even the best group is weaker than this
            get no assignment.

    Returns:
        (T,) int array: index into ``tracks`` or -1 when unassigned.
    """
    t = len(moving)
    choice = np.full(t, -1, dtype=np.int64)
    if not tracks:
        return choice
    quality = np.stack([trk.quality for trk in tracks], axis=0)
    quality = np.nan_to_num(quality, nan=0.0)

    current = -1
    for k in range(t):
        if not moving[k]:
            current = -1
            continue
        best = int(np.argmax(quality[:, k]))
        best_q = quality[best, k]
        if best_q < min_quality:
            current = -1
            continue
        if current < 0 or best == current:
            current = best
        elif best_q > quality[current, k] + hysteresis:
            current = best
        choice[k] = current
    return choice
