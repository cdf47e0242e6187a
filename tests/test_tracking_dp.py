"""Unit tests for DP peak tracking (Eqns. 6-8) and sub-sample refinement."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.alignment import AlignmentMatrix
from repro.core.tracking import greedy_argmax_path, refine_lags, track_peaks
from repro.perf import dptrack
from repro.perf.dptrack import dp_track_batch, native_available


def _matrix(values, fs=100.0):
    values = np.asarray(values, dtype=np.float64)
    w = (values.shape[1] - 1) // 2
    return AlignmentMatrix(
        values=values, lags=np.arange(-w, w + 1), sampling_rate=fs, pair=(0, 1)
    )


def _peaky(t, n_lags, path, peak=1.0, floor=0.1, rng=None):
    """Synthesize a matrix with a known peak path plus optional noise."""
    values = np.full((t, n_lags), floor)
    if rng is not None:
        values += rng.uniform(0, 0.1, (t, n_lags))
    for k, idx in enumerate(path):
        values[k, idx] = peak
    return values


class TestTrackPeaks:
    def test_recovers_constant_path(self):
        path = [7] * 20
        m = _matrix(_peaky(20, 11, path))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lag_indices, path)

    def test_recovers_drifting_path(self):
        path = [2 + k // 4 for k in range(20)]
        m = _matrix(_peaky(20, 11, path))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lag_indices, path)

    def test_rejects_single_outlier(self, rng):
        """A one-sample glitch peak should not yank the path (the point of
        the jump cost ω, §4.2)."""
        path = [5] * 30
        values = _peaky(30, 11, path, rng=rng)
        values[15, 5] = 0.2  # true peak weak at t=15...
        values[15, 0] = 1.0  # ...glitch at a distant lag
        out = track_peaks(_matrix(values), transition_weight=-2.0)
        assert out.lag_indices[15] == 5

    def test_greedy_takes_the_outlier(self, rng):
        path = [5] * 30
        values = _peaky(30, 11, path, rng=rng)
        values[15, 5] = 0.2
        values[15, 0] = 1.0
        out = greedy_argmax_path(_matrix(values))
        assert out.lag_indices[15] == 0

    def test_lags_are_shifted_indices(self):
        path = [8] * 5
        m = _matrix(_peaky(5, 11, path))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lags, np.array(path) - 5)

    def test_sign_flip_tracked(self):
        up = [8] * 15
        down = [2] * 15
        values = np.vstack([_peaky(15, 11, up), _peaky(15, 11, down)])
        out = track_peaks(_matrix(values))
        assert (out.lags[:10] > 0).all()
        assert (out.lags[-10:] < 0).all()

    def test_nan_treated_as_zero_evidence(self):
        path = [5] * 20
        values = _peaky(20, 11, path)
        values[8] = np.nan
        out = track_peaks(_matrix(values))
        # Path continues straight through the hole.
        assert out.lag_indices[8] == 5
        assert np.isnan(out.path_trrs[8])

    def test_requires_negative_weight(self):
        m = _matrix(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            track_peaks(m, transition_weight=0.5)

    def test_empty_matrix(self):
        m = _matrix(np.zeros((0, 5)))
        out = track_peaks(m)
        assert out.lags.size == 0

    def test_score_is_sum_along_path(self):
        path = [3] * 4
        m = _matrix(_peaky(4, 7, path, peak=1.0, floor=0.0))
        out = track_peaks(m, transition_weight=-1.0)
        # 4 e-terms at t plus 3 e-terms at t-1 per transition = e totals:
        # score = e[0] + sum over steps (e[t-1] + e[t]) = 1 + 3*(1+1) = 7.
        assert out.score == pytest.approx(7.0)

    def test_single_time_step(self):
        """t == 1: no transitions, the path is the row argmax."""
        m = _matrix(np.array([[0.1, 0.2, 0.9, 0.3, 0.1]]))
        out = track_peaks(m)
        np.testing.assert_array_equal(out.lag_indices, [2])
        assert out.score == pytest.approx(0.9)

    def test_single_lag_column(self):
        """n_lags == 1: the only path is column 0 at every step."""
        values = np.array([[0.4], [0.5], [0.6]])
        out = track_peaks(_matrix(values))
        np.testing.assert_array_equal(out.lag_indices, [0, 0, 0])
        np.testing.assert_array_equal(out.lags, [0, 0, 0])
        assert out.score == pytest.approx(0.4 + (0.4 + 0.5) + (0.5 + 0.6))

    def test_all_nan_lag_column_never_tracked(self):
        """A lag whose column is all NaN carries zero evidence and loses
        to any positive-evidence column."""
        path = [5] * 12
        values = _peaky(12, 11, path)
        values[:, 8] = np.nan
        out = track_peaks(_matrix(values))
        assert not (out.lag_indices == 8).any()
        np.testing.assert_array_equal(out.lag_indices, path)

    def test_tie_matrix_first_index_wins(self):
        """A constant matrix ties everywhere; np.argmax semantics pick the
        first (lowest-index) column and the zero-jump transition."""
        out = track_peaks(_matrix(np.full((6, 9), 0.5)))
        np.testing.assert_array_equal(out.lag_indices, np.zeros(6, dtype=int))


class TestRefineLags:
    def test_symmetric_peak_unchanged(self):
        values = np.array([[0.2, 1.0, 0.2]])
        out = refine_lags(values, np.array([1]))
        assert out[0] == pytest.approx(1.0)

    def test_asymmetric_peak_shifts_towards_heavier_side(self):
        values = np.array([[0.2, 1.0, 0.6]])
        out = refine_lags(values, np.array([1]))
        assert 1.0 < out[0] < 1.5

    def test_exact_parabola_vertex(self):
        # y = 1 - (x - 0.3)^2 sampled at x = -1, 0, 1 around index 1.
        xs = np.array([-1.0, 0.0, 1.0])
        ys = 1 - (xs - 0.3) ** 2
        out = refine_lags(ys[None, :], np.array([1]))
        assert out[0] == pytest.approx(1.3, abs=1e-9)

    def test_border_peak_not_refined(self):
        values = np.array([[1.0, 0.5, 0.2]])
        out = refine_lags(values, np.array([0]))
        assert out[0] == 0.0

    def test_nan_neighbor_not_refined(self):
        values = np.array([[np.nan, 1.0, 0.5]])
        out = refine_lags(values, np.array([1]))
        assert out[0] == 1.0

    def test_shift_clamped_to_half(self):
        values = np.array([[0.999, 1.0, 0.9999]])
        out = refine_lags(values, np.array([1]))
        assert abs(out[0] - 1.0) <= 0.5


# -- batched DP kernel vs the reference recursion ----------------------------


def _oracle(stack, transition_weight=-2.0):
    """Per-matrix reference answers for an evidence stack (NaNs allowed)."""
    idx, scores = [], []
    for values in stack:
        out = track_peaks(
            _matrix(values), transition_weight=transition_weight, refine=False
        )
        idx.append(out.lag_indices)
        scores.append(out.score)
    return np.asarray(idx), np.asarray(scores)


def _zeroed(stack):
    """NaN -> 0, exactly as track_peaks prepares its evidence."""
    e = np.array(stack, dtype=np.float64)
    np.copyto(e, 0.0, where=np.isnan(e))
    return e


@pytest.fixture(params=["native", "numpy"])
def dp_impl(request, monkeypatch):
    """Run dp_track_batch once with the compiled kernel, once without."""
    if request.param == "native":
        if not native_available():
            pytest.skip("no C compiler available for the native DP kernel")
    else:
        monkeypatch.setattr(dptrack, "_load_native", lambda: None)
    return request.param


class TestBatchedDPMatchesReference:
    """dp_track_batch must be bit-identical to the reference recursion:
    same candidate sums, same first-index tie-breaks, same scores."""

    def _check(self, stack, transition_weight=-2.0):
        want_idx, want_scores = _oracle(stack, transition_weight)
        got_idx, got_scores = dp_track_batch(_zeroed(stack), transition_weight)
        np.testing.assert_array_equal(got_idx, want_idx)
        # Bit-identical, not merely close: the backends share op order.
        np.testing.assert_array_equal(got_scores, want_scores)

    def test_clean_stack(self, dp_impl, rng):
        stack = [
            _peaky(18, 11, [2 + k // 4 for k in range(18)], rng=rng),
            _peaky(18, 11, [9 - k // 3 for k in range(18)], rng=rng),
            _peaky(18, 11, [5] * 18, rng=rng),
        ]
        self._check(stack)

    def test_faulted_stack_with_nan_holes(self, dp_impl, rng):
        stack = np.stack(
            [_peaky(20, 13, [6] * 20, rng=rng) for _ in range(4)]
        )
        stack[0, 4:7] = np.nan  # burst loss: whole rows gone
        stack[1, :, 3] = np.nan  # one lag column dead throughout
        stack[2, 10] = np.nan
        stack[3, :] = np.nan  # every cell lost
        self._check(stack)

    def test_quantized_tie_stack(self, dp_impl, rng):
        """Coarsely quantized evidence forces many exact score ties; the
        batch kernel must break every one the way np.argmax does."""
        stack = rng.integers(0, 4, size=(5, 16, 9)) / 4.0
        self._check(stack)
        self._check(stack, transition_weight=-0.5)

    def test_single_time_step(self, dp_impl, rng):
        self._check(rng.uniform(0, 1, size=(3, 1, 11)))

    def test_single_lag_column(self, dp_impl, rng):
        self._check(rng.uniform(0, 1, size=(3, 6, 1)))

    def test_wide_matrix_beyond_native_stack_cap(self, dp_impl, rng):
        """Wide matrices (L > 512) run natively and stay exact."""
        stack = rng.uniform(0, 1, size=(2, 4, 601))
        self._check(stack)

    def test_float32_mode_matches_float64_on_exact_evidence(self, dp_impl, rng):
        """With evidence and jump costs exactly representable in float32
        (and partial sums well inside 24 bits), the float32 kernel twin
        must produce identical paths and scores — isolating precision
        from logic."""
        stack = rng.integers(0, 65, size=(4, 20, 9)) / 64.0
        e64 = _zeroed(stack)
        idx64, sc64 = dp_track_batch(e64, -2.0)
        idx32, sc32 = dp_track_batch(e64.astype(np.float32), -2.0)
        np.testing.assert_array_equal(idx32, idx64)
        np.testing.assert_array_equal(sc32, sc64)


def _numpy_batch(e, transition_weight):
    with mock.patch.object(dptrack, "_load_native", return_value=None):
        return dp_track_batch(e, transition_weight)


def _forward_pair(e, transition_weight):
    """(backptr, score rows) of the native and the numpy forward pass."""
    n_lags = e.shape[2]
    jump = dptrack._jump_table(n_lags, transition_weight, e.dtype)
    lag = np.arange(n_lags)
    c = -transition_weight / max(1, n_lags - 1)
    bp_n, sc_n, _ = dptrack._forward_native(dptrack._load_native(), e, jump, c)
    bp_f, sc_f = dptrack._forward_numpy(e, jump[np.abs(lag[:, None] - lag[None, :])])
    return (bp_n[1:], sc_n), (bp_f[1:], sc_f)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint8)


@st.composite
def dp_stacks(draw):
    """Evidence stacks that stress the envelope's rounding margin: smooth
    values, a coarse grid (exact ties), all-zero rows, NaN band borders
    and large score offsets, at edge shapes T=1, L=1 and L > 512."""
    kind = draw(st.sampled_from(
        ["continuous", "quantized", "zero_rows", "nan_borders", "offset"]
    ))
    t = draw(st.sampled_from([1, 2, 3, 9, 24]))
    n_lags = draw(st.sampled_from([1, 2, 5, 11, 41, 121, 601]))
    if n_lags > 512:
        t = min(t, 3)  # the reference builds an (L, L) table per step
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.uniform(0, 1, (2, t, n_lags))
    if kind == "quantized":
        stack = rng.integers(0, 4, stack.shape) / 4.0
    elif kind == "zero_rows":
        stack[:, rng.uniform(size=t) < 0.5] = 0.0
    elif kind == "nan_borders":
        # Alignment matrices lose the lags a short window cannot reach.
        for k in range(t):
            cut = int(rng.integers(0, n_lags // 2 + 1))
            stack[:, k, :cut] = np.nan
            stack[:, k, n_lags - cut:] = np.nan
    elif kind == "offset":
        stack += draw(st.sampled_from([1e3, 1e4, 1e5, 1e6]))
    weight = draw(st.sampled_from([-2.0, -0.5, -1e-3, -10.0]))
    return stack, weight


class TestEnvelopeKernelExact:
    """The native upper-envelope pass must agree with the numpy fallback
    and the reference recursion bit for bit: backpointers, score rows,
    lag indices and path scores, in float64 and float32."""

    @given(dp_stacks())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracles(self, case):
        if not native_available():
            pytest.skip("no C compiler available for the native DP kernel")
        stack, weight = case
        for dtype in (np.float64, np.float32):
            e = _zeroed(stack).astype(dtype)
            (bp_n, sc_n), (bp_f, sc_f) = _forward_pair(e, weight)
            np.testing.assert_array_equal(bp_n, bp_f)
            np.testing.assert_array_equal(_bits(sc_n), _bits(sc_f))
            idx, scores = dp_track_batch(e, weight)
            want_idx, want_scores = _numpy_batch(e, weight)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(_bits(scores), _bits(want_scores))
            if dtype is np.float64:
                ref_idx, ref_scores = _oracle(stack, weight)
                np.testing.assert_array_equal(idx, ref_idx)
                np.testing.assert_array_equal(_bits(scores), _bits(ref_scores))

    def _swept(self, e):
        obs.reset()
        obs.enable()
        try:
            dp_track_batch(e, -2.0)
            return obs.METRICS.counter("dp.exact_sweep_columns").value
        finally:
            obs.disable()
            obs.reset()

    def test_ties_take_the_exact_sweep(self, rng):
        if not native_available():
            pytest.skip("no C compiler available for the native DP kernel")
        assert self._swept(rng.integers(0, 4, size=(3, 16, 21)) / 4.0) > 0

    def test_distinct_scores_take_the_envelope(self, rng):
        """Continuous evidence has no near-ties at float64 resolution, so
        no column should pay for the full sweep."""
        if not native_available():
            pytest.skip("no C compiler available for the native DP kernel")
        assert self._swept(rng.uniform(0, 1, size=(3, 40, 121))) == 0


class TestSubSampleAccuracy:
    def test_refinement_beats_integer_quantization(self, rng):
        """Peaks landing between integer lags are recovered to sub-sample
        accuracy — the mechanism behind super-resolution speed (§3.2)."""
        true_lag = 5.37
        lags = np.arange(-10, 11)
        errors_int, errors_ref = [], []
        for _ in range(20):
            row = np.exp(-((lags - true_lag) ** 2) / 4.0) + rng.normal(0, 0.01, lags.size)
            m = _matrix(np.tile(row, (5, 1)))
            out = track_peaks(m)
            errors_int.append(abs(out.lags[2] - true_lag))
            errors_ref.append(abs(out.refined_lags[2] - true_lag))
        assert np.mean(errors_ref) < np.mean(errors_int)
        assert np.mean(errors_ref) < 0.15
