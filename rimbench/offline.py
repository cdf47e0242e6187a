"""offline-batch: ``Rim.process`` over hexagonal-array traces, closed loop.

One thread processes the trace set in a seed-drawn order, pass after pass:
an untimed warm-up pass, then timed passes until the run's seconds are
used up (the pass in progress completes, so every pass carries the same
mix).  The kernels (``perf`` TRRS band GEMM,
DP) and the ``core`` stages do the work; no serving, net or shard code
runs.  Accuracy comes from the warm-up pass against the exact trajectory
truth; every later pass must reproduce it bit for bit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.core.rim import Rim
from repro.core.streaming import StreamingRim
from repro.perf import native_available

from rimbench import inputs, layers
from rimbench.metrics import (
    Measurement,
    Tally,
    distance_error_cm,
    heading_error_deg,
    median,
    percentile,
    process_cpu_s,
    self_peak_rss_mb,
    rotation_error_deg,
    stream_batch_gap_mm,
)

NAME = "offline-batch"
# The trace the streaming path replays for stream_batch_gap_mm here: it
# holds pauses, so the block seams fall on both motion and rest.
STREAMED_TRACE = "stop-and-go"
STREAM_BLOCK_S = 1.0
# Timed passes over the set per run, at least, so each trace's median call
# ignores one call slowed by the host.  An untimed first pass warms the process
# (the first pass runs about a fifth slower) and gives the accuracy.
MIN_PASSES = 3

Traces = List[Tuple[inputs.TraceSpec, CsiTrace]]


def specs(seconds: float) -> Tuple[inputs.TraceSpec, ...]:
    return inputs.OFFLINE_SPECS


def _signature(result) -> Tuple:
    """The exact output a repeat of the same input must reproduce."""
    return (
        float(result.total_distance),
        float(result.total_rotation),
        np.asarray(result.headings()).tobytes(),
        bool(result.health is not None and result.health.degraded),
    )


def accuracy(traces: Traces, results: Dict[str, object]) -> Dict[str, float]:
    """Distance, heading and rotation errors of one pass over the set."""
    moving_err: List[float] = []
    all_err: List[float] = []
    heading_err: List[float] = []
    rotation_err: List[float] = []
    for spec, trace in traces:
        res = results[spec.name]
        truth = trace.trajectory
        err = distance_error_cm(res.total_distance, truth.total_distance)
        all_err.append(err)
        if spec.moves:
            moving_err.append(err)
            heading_err.append(
                heading_error_deg(res.headings(), truth.headings(), truth.orientations)
            )
        if spec.kind == "rotation":
            rotation_err.append(
                rotation_error_deg(res.total_rotation, truth.total_rotation())
            )
    return {
        "dist_err_cm_p50": median(moving_err),
        "dist_err_cm_max": max(all_err),
        "heading_err_deg_p50": median(heading_err),
        "rotation_err_deg": median(rotation_err),
    }


def rotation_probe(factory: inputs.TraceFactory) -> float:
    """Batch rotation error on the offline rotation trace.

    ``MotionUpdate`` carries no rotation, so the streaming workloads report
    the batch estimator's figure for the same code.
    """
    trace = factory.trace(inputs.ROTATION_SPEC)
    res = Rim(RimConfig()).process(trace)
    return rotation_error_deg(res.total_rotation, trace.trajectory.total_rotation())


def streamed_distance(trace: CsiTrace, block_s: float) -> float:
    stream = StreamingRim(
        trace.array, trace.sampling_rate, RimConfig(), block_seconds=block_s,
        carrier_wavelength=trace.carrier_wavelength,
    )
    for k in range(trace.n_samples):
        stream.push(trace.data[k], float(trace.times[k]))
    stream.flush()
    return stream.total_distance


def measure(traces: Traces, seed: int, seconds: float, traced: bool) -> Measurement:
    rim = Rim(RimConfig())
    native_available()  # build/load the DP kernel outside the timed loop
    order = inputs.seeded_order(len(traces), seed)
    pass_samples = sum(trace.n_samples for _, trace in traces)
    tally = Tally()
    first: Dict[str, object] = {}
    signatures: Dict[str, Tuple] = {}
    repeats_match = True
    passes: List[List[float]] = []  # per pass, the wall time of each call
    pass_cpu: List[float] = []

    if traced:
        obs.reset()
        obs.enable()
    try:
        while len(passes) < MIN_PASSES + 1 or sum(map(sum, passes[1:])) < seconds:
            calls: List[float] = []
            cpu0 = process_cpu_s()
            for k in order:
                spec, trace = traces[k]
                tally.attempt()
                t0 = time.perf_counter()
                try:
                    res = rim.process(trace)
                except Exception:
                    tally.fail("raised")
                    continue
                calls.append(time.perf_counter() - t0)
                if res.health is not None and res.health.degraded:
                    tally.fail("degraded")
                sig = _signature(res)
                if spec.name not in signatures:
                    signatures[spec.name] = sig
                    first[spec.name] = res
                elif sig != signatures[spec.name]:
                    repeats_match = False
            pass_cpu.append(process_cpu_s() - cpu0)
            passes.append(calls)
    finally:
        if traced:
            obs.disable()
    passes, pass_cpu = passes[1:], pass_cpu[1:]  # drop the warm-up pass
    busy = sum(map(sum, passes))
    complete = len(first) == len(traces) and tally.failed == 0
    checks = {"offline.all_traces_processed": complete,
              "offline.repeat_passes_identical": repeats_match}
    outputs = {name: [sig[0], sig[1], sig[3]] for name, sig in sorted(signatures.items())}

    if traced:
        metrics = layers.pipeline_layers(pass_samples * (len(passes) + 1))
        obs.reset()
        return Measurement(metrics, checks, tally, busy, outputs)

    metrics: Dict[str, float] = {}
    if not complete:
        return Measurement(metrics, checks, tally, busy, outputs)
    metrics.update(accuracy(traces, first))
    streamed = {spec.name: trace for spec, trace in traces}[STREAMED_TRACE]
    metrics["stream_batch_gap_mm"] = stream_batch_gap_mm([(
        streamed_distance(streamed, STREAM_BLOCK_S),
        first[STREAMED_TRACE].total_distance,
    )])
    # The run's typical pass takes, for each trace, the median of its
    # timed calls, so a call slowed by the host does not move the result.
    typical = [median([calls[i] for calls in passes]) for i in range(len(traces))]
    pass_csi_s = pass_samples / traces[0][1].sampling_rate
    metrics.update({
        "samples_per_s": pass_samples / sum(typical),
        "update_latency_p50_ms": 1e3 * median(typical),
        "update_latency_p95_ms": 1e3 * percentile(typical, 95),
        "cpu_ms_per_stream_s": 1e3 * median(pass_cpu) / pass_csi_s,
        "peak_rss_mb": self_peak_rss_mb(),
    })
    return Measurement(metrics, checks, tally, busy, outputs)
