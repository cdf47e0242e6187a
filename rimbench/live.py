"""live-stream: linear-array receivers at 200 Hz through a SessionManager.

Open loop on one thread: every session's samples are due on a fixed
200 Hz schedule, sessions staggered by a seed-drawn offset within one
block.  Each sample is pushed when due; the session is polled as soon as a
pushed sample completes a block (0.25 s), which is when the update is
owed.  ``StreamingRim`` re-runs the batch pipeline over context plus block
on every block, so the ``core.streaming`` and ``serve`` layers dominate;
no net or shard code runs.  Latency runs from when the block's last sample
was due, so a stall also counts against the blocks queued behind it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.core.rim import Rim
from repro.perf import native_available
from repro.serve.session import PUSH_REJECTED, PUSH_SHED_OLDEST, ServeConfig, SessionManager

from rimbench import inputs, layers
from rimbench.metrics import (
    Measurement,
    Tally,
    count_stream_failures,
    distance_error_cm,
    heading_error_deg,
    median,
    percentile,
    process_cpu_s,
    self_peak_rss_mb,
    stream_batch_gap_mm,
)

NAME = "live-stream"
# Each receiver costs the seed code about 0.6 CPU-seconds per second of
# CSI at 0.25 s blocks (BLAS runs two threads), so on a 2-CPU host two
# receivers leave headroom and the backlog does not grow; with three the
# host saturates and a slow spell grows the queue without bound.
N_SESSIONS = 2
BLOCK_S = 0.25
STAGGER_JITTER = 0.2
# Latency percentiles are taken per quarter of the schedule and the median
# of the four is reported, so a spell of host contention that slows one
# quarter does not move the result.
WINDOWS = 4
# Streamed and batch distance on the same samples may differ by block
# seams (the drift stream_batch_gap_mm reports), not by more than this.
GAP_TOLERANCE_FRAC = 0.05
GAP_TOLERANCE_M = 0.05

Sessions = List[Tuple[inputs.TraceSpec, CsiTrace]]


def specs(seconds: float) -> Tuple[inputs.TraceSpec, ...]:
    return inputs.live_specs(N_SESSIONS, seconds)


def schedule(sessions: Sessions, seed: int) -> List[Tuple[float, int, int]]:
    """``(due_s, session, sample)`` events in due order.

    Sessions start evenly spread over one block, each nudged by a
    seed-drawn fifth of the spacing: the spread keeps one session's block
    from completing while the other's is still being processed, which
    would add a whole emit time to its latency in some runs and not in
    others.
    """
    jitter = np.random.default_rng([seed, 7]).uniform(size=len(sessions))
    events = []
    for i, (_spec, trace) in enumerate(sessions):
        offset = (i + STAGGER_JITTER * jitter[i]) * BLOCK_S / len(sessions)
        events.extend((offset + float(t), i, k) for k, t in enumerate(trace.times))
    events.sort()
    return events


def streamed_heading_error(trace: CsiTrace, updates) -> float:
    truth = trace.trajectory
    index = {round(float(t) * trace.sampling_rate): k for k, t in enumerate(trace.times)}
    est = np.full(trace.n_samples, np.nan)
    for u in updates:
        for t, h in zip(u.times, u.heading):
            est[index[round(float(t) * trace.sampling_rate)]] = h
    return heading_error_deg(est, truth.headings(), truth.orientations)


def measure(sessions: Sessions, seed: int, seconds: float, traced: bool) -> Measurement:
    native_available()
    manager = SessionManager(rim_config=RimConfig(), serve_config=ServeConfig(block_seconds=BLOCK_S))
    names = [spec.name for spec, _ in sessions]
    for name, (_spec, trace) in zip(names, sessions):
        manager.create(name, trace.array, trace.sampling_rate,
                       carrier_wavelength=trace.carrier_wavelength)
    block = manager.get(names[0]).stream.block_samples
    events = schedule(sessions, seed)
    window_s = (events[-1][0] + 1e-9) / WINDOWS
    updates: Dict[str, list] = {name: [] for name in names}
    pushed = [0] * len(sessions)
    refused = [0] * len(sessions)
    latency_s: List[List[float]] = [[] for _ in range(WINDOWS)]  # per window
    emit_s: List[float] = []
    lag_s: List[float] = []
    depth_max = 0
    busy = 0.0

    if traced:
        obs.reset()
        obs.enable()
    cpu0 = process_cpu_s()
    start = time.perf_counter() + 0.05
    try:
        for due, i, k in events:
            due_at = start + due
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            t0 = time.perf_counter()
            lag_s.append(t0 - due_at)
            trace = sessions[i][1]
            status = manager.push(names[i], trace.data[k], float(trace.times[k]))
            pushed[i] += 1
            if status in (PUSH_REJECTED, PUSH_SHED_OLDEST):
                refused[i] += 1
            depth_max = max(depth_max, manager.get(names[i]).queue_depth)
            t1 = time.perf_counter()
            busy += t1 - t0
            if pushed[i] % block == 0:
                new = manager.poll(names[i])
                t2 = time.perf_counter()
                busy += t2 - t1
                if new:
                    emit_s.append(t2 - t1)
                    latency_s[int(due / window_s)].extend([t2 - due_at] * len(new))
                    updates[names[i]].extend(new)
        t0 = time.perf_counter()
        for name, final in manager.flush_all().items():
            updates[name].extend(final)
        done = time.perf_counter()
        busy += done - t0
    finally:
        cpu = process_cpu_s() - cpu0
        if traced:
            obs.disable()
    window = done - start

    tally = Tally()
    gaps: List[Tuple[float, float]] = []
    gaps_ok = True
    dist_err: List[float] = []
    heading_err: List[float] = []
    covered_total = 0
    for i, (spec, trace) in enumerate(sessions):
        ups = updates[spec.name]
        covered = sum(len(u.times) for u in ups)
        covered_total += covered
        count_stream_failures(tally, pushed=pushed[i], expected_covered=pushed[i],
                              covered=covered, refused_pushes=refused[i])
        streamed = ups[-1].total_distance if ups else 0.0
        batch = Rim(RimConfig()).process(trace).total_distance
        gaps.append((streamed, batch))
        gaps_ok &= abs(streamed - batch) <= GAP_TOLERANCE_FRAC * batch + GAP_TOLERANCE_M
        dist_err.append(distance_error_cm(streamed, trace.trajectory.total_distance))
        heading_err.append(streamed_heading_error(trace, ups))
    checks = {"live.streamed_matches_batch_oracle": gaps_ok}
    outputs = {
        spec.name: [len(updates[spec.name]), [u.total_distance for u in updates[spec.name]]]
        for spec, _ in sessions
    }

    if traced:
        metrics = layers.pipeline_layers(sum(pushed))
        waits = [
            u.stats["provenance"]["queue_wait_s"]
            for ups in updates.values() for u in ups
            if u.stats and "provenance" in u.stats
        ]
        metrics.update({
            "core.streaming.emit_ms_p95": 1e3 * percentile(emit_s, 95),
            "serve.queue_wait_ms_p95": 1e3 * percentile(waits, 95),
            "serve.queue_depth_max": float(depth_max),
            "bench.gen_lag_ms_p95": 1e3 * percentile(lag_s, 95),
        })
        obs.reset()
        return Measurement(metrics, checks, tally, busy, outputs)

    stream_s = sum(pushed) / sessions[0][1].sampling_rate
    metrics = {
        "samples_per_s": covered_total / window,
        "update_latency_p50_ms": 1e3 * median([median(w) for w in latency_s]),
        "update_latency_p95_ms": 1e3 * median([percentile(w, 95) for w in latency_s]),
        "cpu_ms_per_stream_s": 1e3 * cpu / stream_s,
        "dist_err_cm_p50": median(dist_err),
        "dist_err_cm_max": max(dist_err),
        "heading_err_deg_p50": median(heading_err),
        "stream_batch_gap_mm": stream_batch_gap_mm(gaps),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    return Measurement(metrics, checks, tally, busy, outputs)
