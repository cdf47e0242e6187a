"""Metric rules shared by the workloads, and the result record.

Every timing is summarised from raw per-call or per-update samples with
:func:`percentile` (nearest rank, no interpolation), never from
``repro.obs`` histogram buckets.  Accuracy is scored against the exact
``repro.motionsim`` ground truth.  A run whose correctness checks fail is
refused: :func:`result_record` then withholds every metric.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


# -- accuracy against ground truth --------------------------------------------


def wrapped_deg(diff_rad: np.ndarray) -> np.ndarray:
    """|angle difference| in degrees, wrapped to [0, 180]."""
    deg = np.rad2deg(np.asarray(diff_rad, dtype=np.float64))
    return np.abs((deg + 180.0) % 360.0 - 180.0)


def distance_error_cm(estimated_m: float, true_m: float) -> float:
    return 100.0 * abs(float(estimated_m) - float(true_m))


def heading_error_deg(
    estimated: np.ndarray, true_world: np.ndarray, orientation: np.ndarray
) -> float:
    """Mean device-frame heading error over the samples where the array
    truly moves.  A sample the estimator left unresolved (NaN) counts as
    90 degrees, the expected error of an uninformed guess.  (The mean,
    because estimates snap to the array's direction grid: on an axis most
    resolved samples are exact, and a median would hide the misses.)"""
    truth = np.asarray(true_world) - np.asarray(orientation)
    est = np.asarray(estimated, dtype=np.float64)
    moving = np.isfinite(truth)
    if not moving.any():
        raise ValueError("heading error of a trace that never moves")
    err = np.full(int(moving.sum()), 90.0)
    resolved = np.isfinite(est[moving])
    err[resolved] = wrapped_deg(est[moving][resolved] - truth[moving][resolved])
    return float(err.mean())


def rotation_error_deg(estimated_rad: float, true_rad: float) -> float:
    """|estimated − true| net rotation, degrees (not wrapped: a 360-degree
    miss is a 360-degree error)."""
    return abs(math.degrees(float(estimated_rad) - float(true_rad)))


# Accuracy is reported no finer than these resolutions: below them the
# difference is float rounding in truth or estimate, and a figure that
# could read 0 has no ratio for a later change to be judged by.
ACCURACY_RESOLUTION = {
    "dist_err_cm_p50": 0.01,
    "dist_err_cm_max": 0.01,
    "heading_err_deg_p50": 0.01,
    "rotation_err_deg": 0.01,
    "stream_batch_gap_mm": 0.01,
}


def at_resolution(metrics: Dict[str, float]) -> Dict[str, float]:
    """``metrics`` with each accuracy figure raised to its resolution."""
    return {
        name: max(value, ACCURACY_RESOLUTION.get(name, value))
        for name, value in metrics.items()
    }


def stream_batch_gap_mm(pairs: Sequence[Tuple[float, float]]) -> float:
    """Largest |streamed − batch| total distance, millimetres."""
    if not pairs:
        raise ValueError("no streamed/batch pairs")
    return max(1000.0 * abs(s - b) for s, b in pairs)


# -- failure accounting -------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed units of one run (units are per workload:
    traces for offline-batch, samples for the streaming workloads)."""

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        self.attempted += int(n)

    def fail(self, reason: str, n: int = 1) -> None:
        if n <= 0:
            return
        self.failed += int(n)
        self.reasons[reason] = self.reasons.get(reason, 0) + int(n)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def count_stream_failures(
    tally: Tally,
    *,
    pushed: int,
    expected_covered: int,
    covered: int,
    refused_pushes: int = 0,
    matches_baseline: Optional[bool] = None,
) -> None:
    """Fold one session's outcome into ``tally``.

    ``pushed`` samples were attempted; ``expected_covered`` of them should
    reach the estimator (fewer than ``pushed`` only where a wire-fault plan
    loses samples by design).  Refused pushes (rejected or shed), samples
    no update covers beyond those losses, and, when a baseline is given,
    every sample of a session whose update stream differs from it, fail.
    """
    tally.attempt(pushed)
    if matches_baseline is False:
        tally.fail("baseline_mismatch", pushed)
        return
    tally.fail("refused_push", refused_pushes)
    tally.fail("uncovered_sample", max(0, expected_covered - refused_pushes - covered))


# -- process accounting -------------------------------------------------------


def process_cpu_s() -> float:
    """User + system CPU of this process (all threads), seconds."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (``ru_maxrss`` is KiB on
    Linux, the platform the ``/proc`` readers below need anyway)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_cpu_s(pid: int) -> float:
    """CPU seconds of a live child process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live child process, MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the result record ----------------------------------------------------------


def result_record(
    checks: Dict[str, bool],
    tally: Tally,
    metrics: Dict[str, float],
    expected: Dict[str, str],
) -> Tuple[int, Dict[str, object]]:
    """The final JSON object and the exit code.

    A run that failed any correctness check, or is missing an expected
    metric or holds a non-finite one, is not a result: it is reported with
    ``correct: false``, no metrics, and exit code 1.  ``expected`` maps
    each metric name to its unit.
    """
    missing = [name for name in expected if name not in metrics]
    bad = [
        name for name, value in metrics.items() if not math.isfinite(float(value))
    ]
    ok = all(checks.values()) and not missing and not bad and tally.attempted > 0
    record: Dict[str, object] = {
        "correct": bool(ok),
        "attempted": max(int(tally.attempted), 1),
        "failed": int(tally.failed),
        "metrics": (
            {name: {"value": float(metrics[name]), "unit": unit}
             for name, unit in expected.items()}
            if ok else {}
        ),
    }
    return (0 if ok else 1), record


@dataclass
class Measurement:
    """What one measured pass of a workload produced.

    ``metrics`` holds end-to-end figures (tracing off) or layer figures
    (tracing on) by name; ``busy_s`` is the wall time
    the pass spent inside the program, which the traced/untraced ratio
    ``obs.overhead_frac`` compares; ``outputs`` is the deterministic part
    of the program's output (update counts and distances) that two runs
    with the same seed must reproduce exactly.
    """

    metrics: Dict[str, float]
    checks: Dict[str, bool]
    tally: Tally
    busy_s: float
    outputs: Dict[str, object]
