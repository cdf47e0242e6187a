"""The benchmark's own metric rules: percentiles, accuracy against truth,
the streamed/batch gap, failure counting and refusal of failed runs."""

import math

import numpy as np
import pytest

from rimbench.metrics import (
    Tally,
    at_resolution,
    count_stream_failures,
    distance_error_cm,
    heading_error_deg,
    median,
    percentile,
    result_record,
    rotation_error_deg,
    stream_batch_gap_mm,
)
from repro.motionsim.trajectory import Trajectory


class TestPercentile:
    def test_nearest_rank_never_interpolates(self):
        values = [float(v) for v in range(1, 11)]  # 1..10
        assert percentile(values, 50) == 5.0
        assert percentile(values, 95) == 10.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 10) == 1.0
        assert percentile(values, 100) == 10.0

    def test_order_of_samples_does_not_matter(self):
        assert percentile([9.0, 1.0, 5.0, 3.0], 50) == 3.0

    def test_p95_of_twenty_samples_is_the_nineteenth(self):
        values = list(range(20))
        assert percentile(values, 95) == 18.0

    def test_single_sample(self):
        assert percentile([4.2], 95) == 4.2
        assert median([4.2]) == 4.2

    @pytest.mark.parametrize("q", [0.0, -5.0, 100.5])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            median([])


def _walk_then_stop() -> Trajectory:
    """1 m along +y at 1 m/s (100 Hz), then 0.5 s at rest, array turned
    by 90 degrees so the device-frame heading of the walk is 0."""
    t = np.arange(151) / 100.0
    y = np.minimum(t, 1.0)
    positions = np.stack([np.zeros_like(y), y], axis=1)
    return Trajectory(times=t, positions=positions, orientations=np.full(151, np.pi / 2))


class TestAccuracy:
    def test_distance_error_against_truth(self):
        truth = _walk_then_stop()
        assert truth.total_distance == pytest.approx(1.0)
        assert distance_error_cm(1.03, truth.total_distance) == pytest.approx(3.0)
        assert distance_error_cm(0.97, truth.total_distance) == pytest.approx(3.0)

    def test_exact_heading_scores_zero(self):
        truth = _walk_then_stop()
        est = np.zeros(truth.n_samples)
        assert heading_error_deg(est, truth.headings(), truth.orientations) == pytest.approx(0.0, abs=1e-9)

    def test_heading_is_device_frame_and_wrapped(self):
        truth = _walk_then_stop()
        # 350 degrees in the device frame is 10 degrees off the true 0.
        est = np.full(truth.n_samples, np.deg2rad(350.0))
        assert heading_error_deg(est, truth.headings(), truth.orientations) == pytest.approx(10.0)

    def test_unresolved_moving_samples_count_as_ninety(self):
        truth = _walk_then_stop()
        moving = np.isfinite(truth.headings())
        est = np.zeros(truth.n_samples)
        first_quarter = np.flatnonzero(moving)[: moving.sum() // 4]
        est[first_quarter] = np.nan
        # Samples at rest are not scored, whatever the estimate says.
        est[~moving] = np.deg2rad(123.0)
        expected = 90.0 * len(first_quarter) / moving.sum()
        assert heading_error_deg(est, truth.headings(), truth.orientations) == pytest.approx(expected)

    def test_trace_without_motion_has_no_heading_error(self):
        t = np.arange(10) / 100.0
        still = Trajectory(times=t, positions=np.zeros((10, 2)), orientations=np.zeros(10))
        with pytest.raises(ValueError):
            heading_error_deg(np.zeros(10), still.headings(), still.orientations)

    def test_rotation_error_is_not_wrapped(self):
        assert rotation_error_deg(math.pi, math.pi / 2) == pytest.approx(90.0)
        assert rotation_error_deg(-math.pi, math.pi) == pytest.approx(360.0)


class TestStreamBatchGap:
    def test_largest_gap_in_millimetres(self):
        pairs = [(3.000, 3.001), (2.950, 3.000), (1.0, 1.0)]
        assert stream_batch_gap_mm(pairs) == pytest.approx(50.0)

    def test_sign_does_not_matter(self):
        assert stream_batch_gap_mm([(1.02, 1.0)]) == stream_batch_gap_mm([(1.0, 1.02)])

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            stream_batch_gap_mm([])


class TestResolution:
    def test_accuracy_reads_no_finer_than_its_resolution(self):
        out = at_resolution({
            "heading_err_deg_p50": 2.3e-11, "stream_batch_gap_mm": 0.0,
            "dist_err_cm_p50": 14.1, "samples_per_s": 0.001,
        })
        assert out == {
            "heading_err_deg_p50": 0.01, "stream_batch_gap_mm": 0.01,
            "dist_err_cm_p50": 14.1, "samples_per_s": 0.001,
        }


class TestFailureCounting:
    def test_clean_session_fails_nothing(self):
        tally = Tally()
        count_stream_failures(tally, pushed=100, expected_covered=100, covered=100)
        assert (tally.attempted, tally.failed, tally.failed_frac) == (100, 0, 0.0)

    def test_refused_pushes_fail_and_are_not_counted_again_as_uncovered(self):
        tally = Tally()
        count_stream_failures(
            tally, pushed=100, expected_covered=100, covered=95, refused_pushes=5
        )
        assert tally.failed == 5
        assert tally.reasons == {"refused_push": 5}

    def test_samples_lost_by_the_fault_plan_are_not_failures(self):
        tally = Tally()
        count_stream_failures(tally, pushed=100, expected_covered=97, covered=97)
        assert tally.failed == 0

    def test_uncovered_samples_beyond_plan_losses_fail(self):
        tally = Tally()
        count_stream_failures(tally, pushed=100, expected_covered=97, covered=90)
        assert tally.failed == 7
        assert tally.reasons == {"uncovered_sample": 7}

    def test_baseline_mismatch_fails_every_sample_of_the_session(self):
        tally = Tally()
        count_stream_failures(
            tally, pushed=100, expected_covered=97, covered=97, matches_baseline=False
        )
        assert tally.failed == 100
        assert tally.failed_frac == 1.0

    def test_fraction_over_sessions(self):
        tally = Tally()
        count_stream_failures(tally, pushed=100, expected_covered=100, covered=100)
        count_stream_failures(tally, pushed=300, expected_covered=300, covered=290)
        assert tally.failed_frac == pytest.approx(10 / 400)


class TestRefusal:
    EXPECTED = {"samples_per_s": "1/s", "setup_s": "s"}

    def _tally(self):
        tally = Tally()
        tally.attempt(10)
        return tally

    def test_passing_run_reports_every_metric_with_its_unit(self):
        code, record = result_record(
            {"a": True}, self._tally(), {"samples_per_s": 1000.5, "setup_s": 0.7},
            self.EXPECTED,
        )
        assert code == 0
        assert record == {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {
                "samples_per_s": {"value": 1000.5, "unit": "1/s"},
                "setup_s": {"value": 0.7, "unit": "s"},
            },
        }

    def test_failed_check_withholds_metrics(self):
        code, record = result_record(
            {"a": True, "b": False}, self._tally(),
            {"samples_per_s": 1000.5, "setup_s": 0.7}, self.EXPECTED,
        )
        assert code == 1
        assert record["correct"] is False
        assert record["metrics"] == {}

    def test_missing_metric_is_refused(self):
        code, record = result_record({}, self._tally(), {"setup_s": 0.7}, self.EXPECTED)
        assert (code, record["correct"], record["metrics"]) == (1, False, {})

    def test_non_finite_metric_is_refused(self):
        code, record = result_record(
            {}, self._tally(), {"samples_per_s": float("nan"), "setup_s": 0.7},
            self.EXPECTED,
        )
        assert (code, record["correct"]) == (1, False)

    def test_run_that_attempted_nothing_is_refused(self):
        code, record = result_record(
            {}, Tally(), {"samples_per_s": 1.0, "setup_s": 0.7}, self.EXPECTED
        )
        assert (code, record["correct"], record["attempted"]) == (1, False, 1)
