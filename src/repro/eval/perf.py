"""Performance baseline harness: measure the pipeline, emit ``BENCH_perf.json``.

The paper reports RIM's runtime cost directly (§6.2.9: ~6% CPU on a
Surface Pro running in real time at 200 Hz).  This harness is our
equivalent measuring stick: it runs the batch estimator and the streaming
estimator over a standard testbed workload with :mod:`repro.obs` enabled
and packages per-stage wall-time spans, work counters, and the per-block
streaming latency distribution into one JSON payload.  Optimisation PRs
regenerate the file and diff it against the committed baseline — the
trajectory to beat.

Entry points:

* :func:`run_perf_baseline` — library API (used by tests and the CLI).
* ``python -m repro.cli profile`` — writes ``BENCH_perf.json``.
* ``python benchmarks/perf_baseline.py`` — the same harness as a script
  (what CI's perf-smoke job runs).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro import obs

SCHEMA = "rim-perf-baseline/v9"

# Best-of-N repeats for the obs-overhead A/B: single wall-clock samples
# of a ~100 ms workload are scheduler-jitter noisy, and the overhead gate
# compares the two directly.
OBS_OVERHEAD_REPEATS = 3

# Absolute slack on the reconnect-recovery gate, seconds: recovery times
# are a few milliseconds, so a purely fractional budget would make the
# gate a scheduler-jitter lottery on loaded CI runners.
RECOVERY_GATE_SLACK_S = 0.25

# Stage spans every baseline must contain (the pipeline of §4.4): without
# them the file cannot answer "where did the time go".
REQUIRED_BATCH_SPANS = (
    "rim.process",
    "rim.sanitize",
    "rim.movement_detect",
    "rim.pre_screen",
    "alignment_matrix",
    "dp_tracking",
    "rim.integrate",
)

# Kernel backends every baseline profiles (see ``repro.perf``); the
# primary one feeds the top-level batch/streaming sections.
PROFILED_BACKENDS = ("reference", "batched")
PRIMARY_BACKEND = "batched"

# Kernel precisions the per-dtype section profiles (schema v7): float64
# is the default/oracle mode, float32 the opt-in reduced-precision mode.
PROFILED_KERNEL_DTYPES = ("float64", "float32")

# Batch spans that get their own +25% regression row (schema v7), on top
# of the whole-pipeline rim.process gate: the second kernel campaign's
# tentpole stages, watched individually so a regression inside one stage
# cannot hide behind an improvement in another.
GATED_BATCH_SPANS = ("dp_tracking", "rim.sanitize")

# Shard counts the fleet-scaling section measures (schema v8).  The
# absolute-throughput gate only reads the 1-shard row; efficiency at the
# larger counts is hardware-dependent and belongs to the CI shard-scaling
# job, which knows how many cores its runner has.
PROFILED_SHARD_COUNTS = (1, 2, 4)

# Reference kernel precision named by the capacity reference cell
# (schema v9): the default/oracle mode, matching AXIS_DEFAULTS in
# repro.bench.spec.
REFERENCE_DTYPE = "float64"


def _span_total(spans, name: str) -> float:
    return float(sum(s["total_s"] for s in spans if s.get("name") == name))


def _profile_backend(
    backend: str,
    trace,
    array,
    block_seconds: float,
) -> Dict[str, Any]:
    """Time batch + streaming runs of one kernel backend (obs enabled)."""
    from repro import Rim, RimConfig, StreamingRim

    cfg = RimConfig(max_lag=60, kernel_backend=backend)

    obs.reset()
    # -- batch -------------------------------------------------------------
    t0 = time.perf_counter()
    result = Rim(cfg).process(trace)
    batch_wall = time.perf_counter() - t0

    # -- streaming ---------------------------------------------------------
    stream = StreamingRim(
        array,
        trace.sampling_rate,
        cfg,
        block_seconds=block_seconds,
        carrier_wavelength=trace.carrier_wavelength,
    )
    t0 = time.perf_counter()
    n_updates = 0
    for k in range(trace.n_samples):
        if stream.push(trace.data[k], float(trace.times[k])) is not None:
            n_updates += 1
    if stream.flush() is not None:
        n_updates += 1
    stream_wall = time.perf_counter() - t0

    latency = obs.METRICS.get("stream.block_latency_s")
    spans = result.stats["spans"] if result.stats else []
    samples_per_second = trace.n_samples / stream_wall if stream_wall > 0 else 0.0
    return {
        "batch": {
            "wall_s": batch_wall,
            "alignment_total_s": _span_total(spans, "alignment_matrix"),
            "total_distance_m": float(result.total_distance),
            "spans": spans,
        },
        "streaming": {
            "wall_s": stream_wall,
            "n_blocks": n_updates,
            "samples_per_second": samples_per_second,
            "real_time_at_rate": bool(
                samples_per_second >= float(trace.sampling_rate)
            ),
            "total_distance_m": float(stream.total_distance),
            "block_latency": latency.snapshot() if latency is not None else None,
            "block_latency_p50_s": (
                latency.percentile(0.5) if latency and latency.count else None
            ),
            "block_latency_p95_s": (
                latency.percentile(0.95) if latency and latency.count else None
            ),
        },
        "metrics": obs.METRICS.snapshot(),
    }


def _profile_kernel_dtypes(trace) -> Dict[str, Any]:
    """Batch-profile the primary backend at each kernel precision.

    One batch run per dtype in :data:`PROFILED_KERNEL_DTYPES` with obs
    enabled, recording the wall time and the tentpole stage spans
    (alignment, DP tracking, sanitize) so the baseline documents what
    the opt-in float32 mode actually buys on this hardware.  The
    float64 leg duplicates the primary profile by design: it is the
    within-section comparison point, measured back to back with the
    float32 leg so the speedup ratio is not cross-contaminated by
    machine drift between sections.
    """
    from repro import Rim, RimConfig

    dtypes: Dict[str, Any] = {}
    for dtype in PROFILED_KERNEL_DTYPES:
        cfg = RimConfig(
            max_lag=60, kernel_backend=PRIMARY_BACKEND, kernel_dtype=dtype
        )
        obs.reset()
        t0 = time.perf_counter()
        result = Rim(cfg).process(trace)
        wall = time.perf_counter() - t0
        spans = result.stats["spans"] if result.stats else []
        dtypes[dtype] = {
            "batch_wall_s": wall,
            "alignment_total_s": _span_total(spans, "alignment_matrix"),
            "dp_tracking_s": _span_total(spans, "dp_tracking"),
            "sanitize_s": _span_total(spans, "rim.sanitize"),
            "total_distance_m": float(result.total_distance),
        }

    def _ratio(old: float, new: float) -> Optional[float]:
        return old / new if new > 0 else None

    f64, f32 = dtypes["float64"], dtypes["float32"]
    return {
        "dtypes": dtypes,
        "speedup_float32": {
            "batch_wall": _ratio(f64["batch_wall_s"], f32["batch_wall_s"]),
            "alignment_total": _ratio(
                f64["alignment_total_s"], f32["alignment_total_s"]
            ),
            "dp_tracking": _ratio(f64["dp_tracking_s"], f32["dp_tracking_s"]),
        },
    }


def _profile_serving(
    trace,
    n_sessions: int,
    n_workers: int,
    block_seconds: float,
) -> Dict[str, Any]:
    """Multi-session throughput: N identical sessions, serial vs pooled.

    The same trace is replayed as ``n_sessions`` independent sessions
    through :class:`~repro.serve.runner.ParallelRunner`, once serially
    and once over a thread pool.  Per-session results must be
    bit-identical between the two schedules (recorded in the payload and
    asserted by the test suite); the wall-clock ratio is the
    multi-session speedup.

    The effective pool width and any serial-fallback reason come from
    the runner itself (``n_workers_effective`` / ``fallback_reason``,
    schema v8) rather than being re-derived here, so the baseline records
    what actually executed — on a 1-core host the "parallel" schedule
    legitimately degenerates to serial and the payload says so.
    """
    from repro import RimConfig
    from repro.perf.threads import usable_cpus
    from repro.serve.runner import ParallelRunner

    cfg = RimConfig(max_lag=60, kernel_backend=PRIMARY_BACKEND)
    traces = [trace] * n_sessions

    def _measure(runner: ParallelRunner):
        t0 = time.perf_counter()
        results = runner.run(traces, rim_config=cfg, block_seconds=block_seconds)
        wall = time.perf_counter() - t0
        return results, wall

    serial_results, serial_wall = _measure(ParallelRunner(mode="serial"))
    parallel_runner = ParallelRunner(n_workers=n_workers, mode="thread")
    parallel_results, parallel_wall = _measure(parallel_runner)
    identical = all(
        a.same_estimates(b) for a, b in zip(serial_results, parallel_results)
    )
    total_samples = int(trace.n_samples) * n_sessions

    def _throughput(wall: float) -> Dict[str, Any]:
        return {
            "wall_s": wall,
            "sessions_per_second": n_sessions / wall if wall > 0 else 0.0,
            "samples_per_second": total_samples / wall if wall > 0 else 0.0,
        }

    return {
        "n_sessions": n_sessions,
        "n_workers": n_workers,
        "n_workers_effective": parallel_runner.n_workers_effective,
        "fallback_reason": parallel_runner.fallback_reason,
        "n_cpus": usable_cpus(),
        "mode": "thread",
        "total_samples": total_samples,
        "serial": _throughput(serial_wall),
        "parallel": _throughput(parallel_wall),
        "parallel_speedup": (
            serial_wall / parallel_wall if parallel_wall > 0 else None
        ),
        "bit_identical": bool(identical),
        "total_distance_m": float(
            sum(r.total_distance for r in parallel_results)
        ),
    }


def _profile_shards(
    n_sessions: int,
    duration_s: float,
    seed: int,
) -> Dict[str, Any]:
    """Fleet scaling: sessions/sec at each shard count (schema v8).

    Replays one pre-sampled receiver workload through fresh
    :class:`~repro.shard.router.ShardRouter` fleets at every count in
    :data:`PROFILED_SHARD_COUNTS` via
    :func:`repro.shard.fleet.measure_shard_scaling`.  The derived
    efficiency column is recorded but **not** gated here — whether 4
    shards can actually run 4x faster depends on the host's core count,
    which is why the CI ``shard-scaling`` job owns the ≥ 0.7x-linear
    gate and this payload only feeds the 1-shard absolute-throughput
    regression row.
    """
    from repro import RimConfig
    from repro.shard.fleet import measure_shard_scaling

    cfg = RimConfig(max_lag=60, kernel_backend=PRIMARY_BACKEND)
    return measure_shard_scaling(
        shard_counts=PROFILED_SHARD_COUNTS,
        n_sessions=n_sessions,
        seed=seed,
        duration_s=duration_s,
        rim_config=cfg,
    )


def _capacity_section(
    shard_scaling: Dict[str, Any], streaming: Dict[str, Any]
) -> Dict[str, Any]:
    """Fit the capacity model over the shard-scaling rows (schema v9).

    The fitted slope (sessions/sec per shard) and knee position feed the
    matrix-aware regression gates; the ``reference_cell`` block names
    the canonical single-shard configuration with its measured
    throughput and block-latency percentiles, and is what the CI
    ``bench-matrix`` job gates a fresh run table against
    (:func:`repro.bench.gates.gate_reference_cell`).
    """
    from repro.bench.capacity import fit_capacity
    from repro.bench.spec import AXIS_DEFAULTS, Cell

    rows = shard_scaling.get("rows") or []
    points = sorted(
        (int(row["shards"]), float(row["sessions_per_second"])) for row in rows
    )
    fit = fit_capacity([p[0] for p in points], [p[1] for p in points])
    n_sessions = int(shard_scaling.get("n_sessions", 0))
    one_shard = next((p for p in points if p[0] == 1), None)
    reference = Cell(
        sessions=n_sessions,
        shards=1,
        kernel=PRIMARY_BACKEND,
        dtype=REFERENCE_DTYPE,
        fault_plan=AXIS_DEFAULTS["fault_plan"],
        backpressure=AXIS_DEFAULTS["backpressure"],
    )
    return {
        "source": "shard_scaling",
        "fit": fit,
        "reference_cell": {
            "key": reference.key,
            "sessions": n_sessions,
            "shards": 1,
            "kernel": PRIMARY_BACKEND,
            "dtype": REFERENCE_DTYPE,
            "sessions_per_second": (
                one_shard[1] if one_shard is not None else None
            ),
            "block_latency_p50_s": streaming.get("block_latency_p50_s"),
            "block_latency_p95_s": streaming.get("block_latency_p95_s"),
        },
    }


def _profile_store(trace, block_seconds: float) -> Dict[str, Any]:
    """Store throughput: chunked write, integrity-checked read, replay.

    Measures the three data-path costs of :mod:`repro.store` on the same
    workload trace the estimator profiles use: sequential chunked write
    (CRC computation included), full CRC-verified read-back, and an
    end-to-end :class:`~repro.store.checkpoint.CheckpointedReplayer` pass
    through the streaming estimator.  Write/read are reported in MB/s of
    on-disk bytes, replay in samples/sec — the v4 quantities the perf
    gate watches.
    """
    import shutil
    import tempfile

    from repro import RimConfig
    from repro.store import CheckpointedReplayer, TraceReader, write_trace

    root = Path(tempfile.mkdtemp(prefix="rim-perf-store-")) / "store"
    try:
        t0 = time.perf_counter()
        writer = write_trace(root, trace, chunk_samples=256)
        write_wall = time.perf_counter() - t0
        mb = writer.bytes_written / 1e6

        t0 = time.perf_counter()
        with TraceReader(root, policy="raise") as reader:
            n_read = sum(r.times.size for r in reader.iter_chunks())
        read_wall = time.perf_counter() - t0

        cfg = RimConfig(max_lag=60, kernel_backend=PRIMARY_BACKEND)
        reader = TraceReader(root, policy="repair")
        t0 = time.perf_counter()
        replayer = CheckpointedReplayer(
            reader, config=cfg, block_seconds=block_seconds
        )
        updates = replayer.run()
        replay_wall = time.perf_counter() - t0
        return {
            "n_chunks": writer.n_chunks,
            "n_samples": n_read,
            "bytes": writer.bytes_written,
            "write_wall_s": write_wall,
            "read_wall_s": read_wall,
            "replay_wall_s": replay_wall,
            "write_mb_per_s": mb / write_wall if write_wall > 0 else 0.0,
            "read_mb_per_s": mb / read_wall if read_wall > 0 else 0.0,
            "replay_samples_per_second": (
                n_read / replay_wall if replay_wall > 0 else 0.0
            ),
            "replay_n_updates": len(updates),
            "replay_total_distance_m": float(replayer.stream.total_distance),
        }
    finally:
        shutil.rmtree(root.parent, ignore_errors=True)


def _profile_net(trace, block_seconds: float) -> Dict[str, Any]:
    """Network front-end throughput: loopback ingest + reconnect recovery.

    Two measured runs over the same workload trace through a real
    ``repro.net`` loopback server (framing, CRC, seq tracking, and the
    serving layer all on the clock):

    * a **clean** run — net ingest samples/sec, the v5 throughput the
      perf gate watches;
    * a **faulted** run with one forced mid-stream disconnect — the
      reconnect-recovery time (detection to WELCOME) the availability
      gate watches.

    Baseline bit-identity is deliberately not re-checked here (the test
    suite and the CI network-soak job own that assertion); the harness
    measures cost only.
    """
    from repro.net import NetClientConfig, NetFaultPlan, run_net_load
    from repro.serve.session import ServeConfig

    serve_config = ServeConfig(block_seconds=block_seconds)
    clean = run_net_load(
        [("net00", trace)],
        serve_config=serve_config,
        check_baseline=False,
    )
    disconnect_after = max(2, int(trace.n_samples) // 2)
    faulted = run_net_load(
        [("net00", trace)],
        fault_plan=NetFaultPlan(disconnect_after=disconnect_after),
        serve_config=serve_config,
        client_config=NetClientConfig(backoff_base_s=0.02),
        check_baseline=False,
    )
    agg = clean["aggregate"]
    fagg = faulted["aggregate"]
    return {
        "n_samples": int(agg["n_samples"]),
        "n_frames_sent": int(agg["n_frames_sent"]),
        "ingest_wall_s": float(agg["wall_s"]),
        "ingest_samples_per_second": float(agg["samples_per_second"]),
        "reconnect": {
            "disconnect_after": disconnect_after,
            "reconnects": int(fagg["reconnects"]),
            "recovery_s": float(fagg["recovery_s_max"]),
            "wall_s": float(fagg["wall_s"]),
        },
    }


def _profile_obs_overhead(trace, block_seconds: float) -> Dict[str, Any]:
    """Telemetry cost: the same workload with instrumentation off vs on.

    Runs the batch estimator and a provenance-stamped serve-session
    replay twice — once with :mod:`repro.obs` disabled, once enabled
    (spans, metrics, per-sample provenance all live) — and reports the
    best-of-N walls plus the fractional overhead the perf gate watches.
    Estimates must be bit-identical between the two modes (tracing
    invariance); the flag is recorded and asserted by the test suite.
    """
    from repro import Rim, RimConfig
    from repro.serve.session import ServeConfig, ServeSession

    cfg = RimConfig(max_lag=60, kernel_backend=PRIMARY_BACKEND)
    serve_cfg = ServeConfig(block_seconds=block_seconds)

    def _batch_once():
        t0 = time.perf_counter()
        result = Rim(cfg).process(trace)
        return time.perf_counter() - t0, result

    def _serve_once() -> float:
        session = ServeSession(
            "obs-overhead",
            trace.array,
            trace.sampling_rate,
            rim_config=cfg,
            serve_config=serve_cfg,
            carrier_wavelength=trace.carrier_wavelength,
        )
        t0 = time.perf_counter()
        for k in range(trace.n_samples):
            session.offer(trace.data[k], float(trace.times[k]))
            session.drain()
        session.flush()
        return time.perf_counter() - t0

    def _measure():
        batch_walls, serve_walls, result = [], [], None
        for _ in range(OBS_OVERHEAD_REPEATS):
            wall, result = _batch_once()
            batch_walls.append(wall)
            serve_walls.append(_serve_once())
        return min(batch_walls), min(serve_walls), result

    was_enabled = obs.enabled()
    try:
        obs.disable()
        batch_off, serve_off, result_off = _measure()
        obs.enable()
        obs.reset()
        batch_on, serve_on, result_on = _measure()
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()

    def _frac(off: float, on: float) -> Optional[float]:
        return on / off - 1.0 if off > 0 else None

    return {
        "repeats": OBS_OVERHEAD_REPEATS,
        "tracing_off_wall_s": batch_off,
        "tracing_on_wall_s": batch_on,
        "overhead_frac": _frac(batch_off, batch_on),
        "serve_off_wall_s": serve_off,
        "serve_on_wall_s": serve_on,
        "serve_overhead_frac": _frac(serve_off, serve_on),
        "bit_identical": bool(
            result_off.total_distance == result_on.total_distance
            and result_off.total_rotation == result_on.total_rotation
        ),
    }


def run_perf_baseline(
    seed: int = 0,
    quick: bool = True,
    duration_s: Optional[float] = None,
    block_seconds: float = 1.0,
    n_sessions: int = 8,
    n_workers: int = 4,
) -> Dict[str, Any]:
    """Profile the batch and streaming pipelines on the standard testbed.

    Every kernel backend in :data:`PROFILED_BACKENDS` is timed over the
    same trace; the primary (``batched``) backend fills the top-level
    ``batch``/``streaming``/``metrics`` sections, per-backend digests land
    under ``backends``, and ``speedup_vs_reference`` holds the wall-time
    ratios the optimisation PRs are judged on.

    The ``serving`` section additionally replays the workload as
    ``n_sessions`` concurrent sessions through
    :class:`~repro.serve.runner.ParallelRunner` (serial vs a
    ``n_workers``-wide thread pool) and records the aggregate
    multi-session throughput the serving-regression gate watches.  The
    ``shard_scaling`` section (schema v8) replays a sharded workload at
    1/2/4 shards through :mod:`repro.shard` and records sessions/sec
    plus derived linear-scaling efficiency per count; the ``capacity``
    section (schema v9) fits those rows into a capacity model
    (:mod:`repro.bench.capacity`) and names the reference cell the
    matrix-aware gates watch.

    Args:
        seed: Scenario seed (scatterers, noise).
        quick: Short workload for CI smoke runs; full is paper-scale-ish.
        duration_s: Trajectory duration override, seconds.
        block_seconds: Streaming emission cadence.
        n_sessions: Session count for the multi-session serving profile.
        n_workers: Thread-pool width for the parallel serving run.

    Returns:
        The ``BENCH_perf.json`` payload (see :func:`validate_perf_payload`
        for the schema).  Instrumentation state is restored on exit; the
        run itself executes with :mod:`repro.obs` enabled and reset.
    """
    from repro import linear_array
    from repro.eval.setup import MEASUREMENT_SPOTS, make_testbed
    from repro.motionsim.profiles import line_trajectory
    from repro.perf.threads import thread_facts

    if duration_s is None:
        duration_s = 3.0 if quick else 10.0
    bed = make_testbed(seed=seed)
    truth = line_trajectory(MEASUREMENT_SPOTS[0], 0.0, 0.5, duration_s)
    array = linear_array(3)
    trace = bed.sampler.sample(truth, array)

    # Build/load the native DP kernel before any timed region: on a cold
    # cache the one-off C compile would otherwise land inside the first
    # backend's batch wall and read as a phantom regression.
    from repro.perf.dptrack import native_available

    native_available()

    was_enabled = obs.enabled()
    obs.enable()
    try:
        profiles = {
            backend: _profile_backend(backend, trace, array, block_seconds)
            for backend in PROFILED_BACKENDS
        }
        kernel_dtypes = _profile_kernel_dtypes(trace)
    finally:
        if not was_enabled:
            obs.disable()

    # Serving, shard-fleet, store, and network throughput are measured
    # with instrumentation off — the gate watches raw throughput, not
    # span bookkeeping.
    serving = _profile_serving(trace, n_sessions, n_workers, block_seconds)
    shard_scaling = _profile_shards(
        n_sessions=4 if quick else 8,
        duration_s=min(duration_s, 1.0) if quick else duration_s,
        seed=seed,
    )
    store = _profile_store(trace, block_seconds)
    net = _profile_net(trace, block_seconds)
    obs_overhead = _profile_obs_overhead(trace, block_seconds)

    primary = profiles[PRIMARY_BACKEND]
    ref = profiles["reference"]

    def _ratio(old: float, new: float) -> Optional[float]:
        return old / new if new > 0 else None

    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "quick": quick,
        "host": thread_facts(),
        "primary_backend": PRIMARY_BACKEND,
        "workload": {
            "duration_s": duration_s,
            "sampling_rate_hz": float(trace.sampling_rate),
            "n_samples": int(trace.n_samples),
            "n_rx": int(trace.n_rx),
            "block_seconds": block_seconds,
            "truth_distance_m": float(truth.total_distance),
        },
        "batch": primary["batch"],
        "streaming": primary["streaming"],
        "kernel_dtypes": kernel_dtypes,
        "serving": serving,
        "shard_scaling": shard_scaling,
        "capacity": _capacity_section(shard_scaling, primary["streaming"]),
        "store": store,
        "net": net,
        "obs_overhead": obs_overhead,
        "metrics": primary["metrics"],
        "backends": {
            name: {
                "batch_wall_s": p["batch"]["wall_s"],
                "alignment_total_s": p["batch"]["alignment_total_s"],
                "stream_wall_s": p["streaming"]["wall_s"],
                "block_latency_p50_s": p["streaming"]["block_latency_p50_s"],
                "block_latency_p95_s": p["streaming"]["block_latency_p95_s"],
                "total_distance_m": p["batch"]["total_distance_m"],
            }
            for name, p in profiles.items()
        },
        "speedup_vs_reference": {
            "batch_wall": _ratio(
                ref["batch"]["wall_s"], primary["batch"]["wall_s"]
            ),
            "stream_wall": _ratio(
                ref["streaming"]["wall_s"], primary["streaming"]["wall_s"]
            ),
            "alignment_total": _ratio(
                ref["batch"]["alignment_total_s"],
                primary["batch"]["alignment_total_s"],
            ),
        },
    }
    return payload


def validate_perf_payload(payload: Dict[str, Any]) -> None:
    """Assert the structural schema of a ``BENCH_perf.json`` payload.

    Checks structure only — never timing thresholds, so CI stays
    hardware-independent.

    Raises:
        ValueError: When a required section, stage span, or the streaming
            latency histogram is missing.
    """
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"schema mismatch: want {SCHEMA!r}, got {payload.get('schema')!r}"
        )
    sections = (
        "workload", "batch", "streaming", "kernel_dtypes", "serving",
        "shard_scaling", "capacity", "store", "net", "obs_overhead", "metrics",
    )
    for section in sections:
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"missing or malformed section {section!r}")
    overhead = payload["obs_overhead"]
    for metric in (
        "tracing_off_wall_s", "tracing_on_wall_s", "overhead_frac"
    ):
        if not isinstance(overhead.get(metric), (int, float)):
            raise ValueError(f"obs_overhead section lacks {metric}")
    if not overhead.get("bit_identical"):
        raise ValueError(
            "obs_overhead.bit_identical is false: enabling telemetry "
            "changed the estimates"
        )
    store = payload["store"]
    for metric in (
        "write_mb_per_s", "read_mb_per_s", "replay_samples_per_second"
    ):
        if not isinstance(store.get(metric), (int, float)):
            raise ValueError(f"store section lacks {metric}")
    net = payload["net"]
    if not isinstance(net.get("ingest_samples_per_second"), (int, float)):
        raise ValueError("net section lacks ingest_samples_per_second")
    reconnect = net.get("reconnect")
    if not isinstance(reconnect, dict):
        raise ValueError("net.reconnect is missing or malformed")
    if not isinstance(reconnect.get("recovery_s"), (int, float)):
        raise ValueError("net.reconnect lacks recovery_s")
    if not int(reconnect.get("reconnects", 0)) >= 1:
        raise ValueError(
            "net.reconnect.reconnects is zero: the forced disconnect never "
            "exercised reconnect-resume"
        )
    serving = payload["serving"]
    for key in ("serial", "parallel"):
        schedule = serving.get(key)
        if not isinstance(schedule, dict):
            raise ValueError(f"serving.{key} is missing or malformed")
        for metric in ("wall_s", "sessions_per_second", "samples_per_second"):
            if not isinstance(schedule.get(metric), (int, float)):
                raise ValueError(f"serving.{key} lacks {metric}")
    if not serving.get("bit_identical"):
        raise ValueError(
            "serving.bit_identical is false: pooled sessions diverged from "
            "serial execution"
        )
    if not isinstance(serving.get("n_workers_effective"), int):
        raise ValueError("serving lacks n_workers_effective")
    scaling = payload["shard_scaling"]
    rows = scaling.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError("shard_scaling.rows is missing or empty")
    for row in rows:
        for metric in ("shards", "wall_s", "sessions_per_second"):
            if not isinstance(row.get(metric), (int, float)):
                raise ValueError(
                    f"shard_scaling row (shards={row.get('shards')}) "
                    f"lacks {metric}"
                )
    if not any(int(row["shards"]) == 1 for row in rows):
        raise ValueError(
            "shard_scaling has no 1-shard row: the scaling baseline "
            "needs the single-shard reference rate"
        )
    if not isinstance(scaling.get("n_cpus"), int):
        raise ValueError("shard_scaling lacks n_cpus")
    capacity = payload["capacity"]
    fit = capacity.get("fit")
    if not isinstance(fit, dict) or fit.get("model") not in ("linear", "kneed"):
        raise ValueError("capacity.fit is missing or malformed")
    for key in ("slope", "intercept", "r2"):
        if not isinstance(fit.get(key), (int, float)):
            raise ValueError(f"capacity.fit lacks {key}")
    reference = capacity.get("reference_cell")
    if not isinstance(reference, dict):
        raise ValueError("capacity.reference_cell is missing or malformed")
    for key in ("key", "sessions", "shards", "kernel", "dtype"):
        if key not in reference:
            raise ValueError(f"capacity.reference_cell lacks {key}")
    if not isinstance(reference.get("sessions_per_second"), (int, float)):
        raise ValueError(
            "capacity.reference_cell lacks sessions_per_second: the "
            "shard-scaling profile carried no 1-shard row"
        )
    dtypes = payload["kernel_dtypes"].get("dtypes")
    if not isinstance(dtypes, dict):
        raise ValueError("kernel_dtypes.dtypes is missing or malformed")
    absent_dtypes = [d for d in PROFILED_KERNEL_DTYPES if d not in dtypes]
    if absent_dtypes:
        raise ValueError(f"kernel_dtypes section missing: {absent_dtypes}")
    for dtype, digest in dtypes.items():
        for key in ("batch_wall_s", "alignment_total_s", "dp_tracking_s"):
            if not isinstance(digest.get(key), (int, float)):
                raise ValueError(f"kernel_dtypes[{dtype!r}] lacks {key}")
    if not isinstance(payload["kernel_dtypes"].get("speedup_float32"), dict):
        raise ValueError("kernel_dtypes lacks speedup_float32")
    spans = payload["batch"].get("spans") or []
    names = {s.get("name") for s in spans}
    missing = [n for n in REQUIRED_BATCH_SPANS if n not in names]
    if missing:
        raise ValueError(f"batch spans missing required stages: {missing}")
    for span in spans:
        if not isinstance(span.get("total_s"), (int, float)):
            raise ValueError(f"span {span.get('name')!r} lacks total_s")
    latency = payload["streaming"].get("block_latency")
    if not latency or latency.get("type") != "histogram":
        raise ValueError("streaming.block_latency histogram is missing")
    if not latency.get("count"):
        raise ValueError("streaming.block_latency histogram is empty")
    backends = payload.get("backends")
    if not isinstance(backends, dict):
        raise ValueError("missing or malformed section 'backends'")
    absent = [n for n in PROFILED_BACKENDS if n not in backends]
    if absent:
        raise ValueError(f"backends section missing kernels: {absent}")
    for name, digest in backends.items():
        for key in ("batch_wall_s", "alignment_total_s", "stream_wall_s"):
            if not isinstance(digest.get(key), (int, float)):
                raise ValueError(f"backends[{name!r}] lacks {key}")
    speedups = payload.get("speedup_vs_reference")
    if not isinstance(speedups, dict):
        raise ValueError("missing or malformed section 'speedup_vs_reference'")
    for key in ("batch_wall", "stream_wall", "alignment_total"):
        if key not in speedups:
            raise ValueError(f"speedup_vs_reference lacks {key}")


def check_perf_regression(
    payload: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.25,
) -> list:
    """Compare a fresh run against the committed baseline (the perf gate).

    The gate watches the quick-baseline ``rim.process`` wall time: a fresh
    run may not be more than ``max_regression`` (fractional) slower than
    the committed ``BENCH_perf.json``.  The batched/reference speedup
    ratios are also checked — they are hardware-independent, so a drop
    below 1.0 means the "fast" backend stopped being fast regardless of
    how slow the CI runner is.  When both payloads carry a v3 ``serving``
    section, multi-session throughput (sessions/sec over the pooled
    schedule) gets the same ``max_regression`` budget, and a pooled run
    that diverged from serial execution fails outright.  v9 payloads
    additionally gate scaling *behaviour* through the fitted capacity
    model: the sessions/sec-per-shard slope, the knee position (scaling
    may not stop earlier than the baseline says it does), and the
    reference cell's block-latency p95.

    Every failure string follows the uniform gate format
    (:func:`repro.bench.gates.format_gate_failure`): the gate name,
    measured vs baseline values, and the budget applied.

    Args:
        payload: Freshly measured baseline payload.
        baseline: Previously committed baseline payload.
        max_regression: Allowed fractional slowdown (0.25 = +25%).

    Returns:
        A list of human-readable failure strings; empty means the gate
        passes.
    """
    from repro.bench.gates import LATENCY_GATE_SLACK_S, format_gate_failure

    drop_budget = f"-{max_regression / (1.0 + max_regression):.0%}"
    grow_budget = f"+{max_regression:.0%}"

    def _process_wall(p: Dict[str, Any]) -> float:
        spans = p.get("batch", {}).get("spans") or []
        total = _span_total(spans, "rim.process")
        return total if total > 0 else float(p.get("batch", {}).get("wall_s", 0.0))

    failures = []
    new_wall = _process_wall(payload)
    old_wall = _process_wall(baseline)
    if old_wall > 0 and new_wall > old_wall * (1.0 + max_regression):
        failures.append(
            format_gate_failure(
                "batch.rim.process.wall_s",
                measured=f"{new_wall * 1e3:.1f} ms "
                f"({new_wall / old_wall - 1.0:+.0%})",
                baseline=f"{old_wall * 1e3:.1f} ms",
                budget=grow_budget,
            )
        )
    # Per-stage span gates (schema v7): the tentpole stages are watched
    # individually with the same fractional budget, so a regression in
    # DP tracking or sanitize cannot hide behind an improvement
    # elsewhere.  A v6 baseline without the span simply skips that row.
    new_spans = payload.get("batch", {}).get("spans") or []
    old_spans = baseline.get("batch", {}).get("spans") or []
    for span_name in GATED_BATCH_SPANS:
        new_span = _span_total(new_spans, span_name)
        old_span = _span_total(old_spans, span_name)
        if old_span > 0 and new_span > old_span * (1.0 + max_regression):
            failures.append(
                format_gate_failure(
                    f"batch.{span_name}.wall_s",
                    measured=f"{new_span * 1e3:.1f} ms "
                    f"({new_span / old_span - 1.0:+.0%})",
                    baseline=f"{old_span * 1e3:.1f} ms",
                    budget=grow_budget,
                )
            )
    speedups = payload.get("speedup_vs_reference") or {}
    for key in ("batch_wall", "alignment_total"):
        ratio = speedups.get(key)
        if ratio is not None and ratio < 1.0:
            failures.append(
                format_gate_failure(
                    f"speedup_vs_reference.{key}",
                    measured=f"{ratio:.2f}x",
                    baseline="1.00x",
                    budget="must stay >= 1.0x",
                    note=f"the {payload.get('primary_backend', 'primary')} "
                    "backend is slower than the reference kernel",
                )
            )
    # Float32 kernel-mode gate (schema v7): the opt-in reduced-precision
    # mode must not be slower than float64 beyond the regression budget —
    # a within-run A/B, hardware-independent by construction.
    f32_ratio = (
        (payload.get("kernel_dtypes") or {}).get("speedup_float32") or {}
    ).get("batch_wall")
    if isinstance(f32_ratio, (int, float)) and f32_ratio < 1.0 / (
        1.0 + max_regression
    ):
        failures.append(
            format_gate_failure(
                "kernel_dtypes.speedup_float32.batch_wall",
                measured=f"{f32_ratio:.2f}x",
                baseline="1.00x (float64)",
                budget=f">= {1.0 / (1.0 + max_regression):.2f}x",
                note="the opt-in fast mode stopped being fast",
            )
        )

    # Multi-session serving gate (schema v3): compare pooled sessions/sec
    # against the committed baseline with the same fractional budget.
    new_serving = payload.get("serving") or {}
    old_serving = baseline.get("serving") or {}
    if new_serving and not new_serving.get("bit_identical", True):
        failures.append(
            format_gate_failure(
                "serving.bit_identical",
                measured="false",
                baseline="true",
                budget="must hold",
                note="pooled multi-session results diverged from serial "
                "execution",
            )
        )
    new_rate = (new_serving.get("parallel") or {}).get("sessions_per_second")
    old_rate = (old_serving.get("parallel") or {}).get("sessions_per_second")
    if (
        isinstance(new_rate, (int, float))
        and isinstance(old_rate, (int, float))
        and old_rate > 0
        and new_rate < old_rate / (1.0 + max_regression)
    ):
        failures.append(
            format_gate_failure(
                "serving.parallel.sessions_per_second",
                measured=f"{new_rate:.2f}/s ({new_rate / old_rate - 1.0:+.0%} "
                f"at {new_serving.get('n_sessions')} sessions)",
                baseline=f"{old_rate:.2f}/s",
                budget=drop_budget,
            )
        )

    # Shard-fleet gate (schema v8): single-shard sessions/sec against
    # the committed baseline under the same fractional budget.  Only the
    # 1-shard row is gated here — it measures router + worker + pipe
    # overhead without needing spare cores, so it is as
    # hardware-portable as the other throughput rows.  The multi-shard
    # efficiency columns are recorded but deliberately not gated: linear
    # scaling needs as many cores as shards, which only the CI
    # shard-scaling job (pinned to a known runner) can assert.
    def _one_shard_rate(p: Dict[str, Any]) -> Optional[float]:
        for row in (p.get("shard_scaling") or {}).get("rows") or []:
            if int(row.get("shards", 0)) == 1:
                rate = row.get("sessions_per_second")
                return float(rate) if isinstance(rate, (int, float)) else None
        return None

    new_rate = _one_shard_rate(payload)
    old_rate = _one_shard_rate(baseline)
    if (
        new_rate is not None
        and old_rate is not None
        and old_rate > 0
        and new_rate < old_rate / (1.0 + max_regression)
    ):
        failures.append(
            format_gate_failure(
                "shard_scaling.1_shard.sessions_per_second",
                measured=f"{new_rate:.2f}/s",
                baseline=f"{old_rate:.2f}/s",
                budget=drop_budget,
            )
        )

    # Capacity-model gates (schema v9): scaling behaviour, not just
    # point speed.  The fitted sessions/sec-per-shard slope gets the
    # fractional budget (both slopes must be positive for the ratio to
    # mean anything); a knee appearing where the baseline had none — or
    # moving to a smaller shard count beyond the budget — means scaling
    # now saturates earlier than the committed baseline claims.  A v8
    # baseline carries no capacity section and skips these gates.
    new_capacity = payload.get("capacity") or {}
    old_capacity = baseline.get("capacity") or {}
    new_fit = new_capacity.get("fit") or {}
    old_fit = old_capacity.get("fit") or {}
    new_slope = new_fit.get("slope")
    old_slope = old_fit.get("slope")
    if (
        isinstance(new_slope, (int, float))
        and isinstance(old_slope, (int, float))
        and old_slope > 0
        and new_slope > 0
        and new_slope < old_slope / (1.0 + max_regression)
    ):
        failures.append(
            format_gate_failure(
                "capacity.fit.slope",
                measured=f"{new_slope:.2f} sessions/s per shard",
                baseline=f"{old_slope:.2f} sessions/s per shard",
                budget=drop_budget,
            )
        )
    if old_fit and new_fit:
        new_knee = new_fit.get("knee")
        old_knee = old_fit.get("knee")
        if old_knee is None and new_knee is not None:
            failures.append(
                format_gate_failure(
                    "capacity.fit.knee",
                    measured=f"knee at {new_knee:g} shards",
                    baseline="no knee (linear scaling)",
                    budget="scaling may not start saturating",
                )
            )
        elif (
            isinstance(old_knee, (int, float))
            and isinstance(new_knee, (int, float))
            and new_knee < old_knee / (1.0 + max_regression)
        ):
            failures.append(
                format_gate_failure(
                    "capacity.fit.knee",
                    measured=f"knee at {new_knee:g} shards",
                    baseline=f"knee at {old_knee:g} shards",
                    budget=drop_budget,
                )
            )
    new_ref = new_capacity.get("reference_cell") or {}
    old_ref = old_capacity.get("reference_cell") or {}
    new_p95 = new_ref.get("block_latency_p95_s")
    old_p95 = old_ref.get("block_latency_p95_s")
    if (
        isinstance(new_p95, (int, float))
        and isinstance(old_p95, (int, float))
        and new_p95 > old_p95 * (1.0 + max_regression) + LATENCY_GATE_SLACK_S
    ):
        failures.append(
            format_gate_failure(
                "capacity.reference_cell.block_latency_p95_s",
                measured=f"{new_p95 * 1e3:.1f} ms",
                baseline=f"{old_p95 * 1e3:.1f} ms",
                budget=f"{grow_budget} plus "
                f"{LATENCY_GATE_SLACK_S * 1e3:.0f} ms slack",
            )
        )

    # Store throughput gate (schema v4): write/read MB/s and replay
    # samples/sec under the same fractional budget, when both payloads
    # carry a store section (a v3 baseline simply skips this gate).
    new_store = payload.get("store") or {}
    old_store = baseline.get("store") or {}
    for metric, unit in (
        ("write_mb_per_s", "MB/s"),
        ("read_mb_per_s", "MB/s"),
        ("replay_samples_per_second", "samples/s"),
    ):
        new_value = new_store.get(metric)
        old_value = old_store.get(metric)
        if (
            isinstance(new_value, (int, float))
            and isinstance(old_value, (int, float))
            and old_value > 0
            and new_value < old_value / (1.0 + max_regression)
        ):
            failures.append(
                format_gate_failure(
                    f"store.{metric}",
                    measured=f"{new_value:.1f} {unit}",
                    baseline=f"{old_value:.1f} {unit}",
                    budget=drop_budget,
                )
            )

    # Network front-end gate (schema v5): loopback ingest samples/sec
    # under the same fractional budget, and reconnect-recovery time under
    # the budget plus an absolute slack (recovery is milliseconds-scale,
    # so a bare fractional bound would fail on scheduler jitter alone).
    # A v4 baseline carries no net section and simply skips this gate.
    new_net = payload.get("net") or {}
    old_net = baseline.get("net") or {}
    new_rate = new_net.get("ingest_samples_per_second")
    old_rate = old_net.get("ingest_samples_per_second")
    if (
        isinstance(new_rate, (int, float))
        and isinstance(old_rate, (int, float))
        and old_rate > 0
        and new_rate < old_rate / (1.0 + max_regression)
    ):
        failures.append(
            format_gate_failure(
                "net.ingest_samples_per_second",
                measured=f"{new_rate:.0f} samples/s",
                baseline=f"{old_rate:.0f} samples/s",
                budget=drop_budget,
            )
        )
    # Telemetry overhead gate (schema v6): tracing-on may not cost more
    # than the regression budget over tracing-off on the same run — this
    # is a within-run A/B, so it is hardware-independent by construction.
    # A v5 baseline carries no obs_overhead section; the gate reads the
    # fresh payload only, so it still applies.
    overhead = (payload.get("obs_overhead") or {}).get("overhead_frac")
    if isinstance(overhead, (int, float)) and overhead > max_regression:
        failures.append(
            format_gate_failure(
                "obs_overhead.overhead_frac",
                measured=f"{overhead:+.0%} of the batch wall",
                baseline="tracing off",
                budget=grow_budget,
                note="tracing is no longer cheap enough to leave on",
            )
        )

    new_rec = (new_net.get("reconnect") or {}).get("recovery_s")
    old_rec = (old_net.get("reconnect") or {}).get("recovery_s")
    if (
        isinstance(new_rec, (int, float))
        and isinstance(old_rec, (int, float))
        and new_rec > old_rec * (1.0 + max_regression) + RECOVERY_GATE_SLACK_S
    ):
        failures.append(
            format_gate_failure(
                "net.reconnect.recovery_s",
                measured=f"{new_rec * 1e3:.1f} ms",
                baseline=f"{old_rec * 1e3:.1f} ms",
                budget=f"{grow_budget} plus "
                f"{RECOVERY_GATE_SLACK_S * 1e3:.0f} ms slack",
            )
        )
    return failures


def write_perf_baseline(path, payload: Dict[str, Any]) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_perf_summary(payload: Dict[str, Any]) -> str:
    """Human-readable digest of a perf payload (CLI output)."""
    from repro.obs.trace import render_span_table

    work = payload["workload"]
    batch = payload["batch"]
    stream = payload["streaming"]
    lines = [
        f"== perf baseline ({'quick' if payload['quick'] else 'full'}, "
        f"seed {payload['seed']}) ==",
        f"workload: {work['n_samples']} samples @ {work['sampling_rate_hz']:g} Hz "
        f"({work['duration_s']:g} s, {work['n_rx']} antennas)",
        "",
        "batch pipeline:",
        f"  wall time        {batch['wall_s'] * 1e3:.1f} ms "
        f"({work['n_samples'] / batch['wall_s']:.0f} samples/s)",
        f"  distance         {batch['total_distance_m']:.3f} m "
        f"(truth {work['truth_distance_m']:.3f} m)",
        "",
        render_span_table(batch["spans"]),
        "",
        "streaming pipeline:",
        f"  wall time        {stream['wall_s'] * 1e3:.1f} ms over "
        f"{stream['n_blocks']} blocks "
        f"({stream['samples_per_second']:.0f} samples/s, "
        f"real-time: {'yes' if stream['real_time_at_rate'] else 'NO'})",
    ]
    if stream.get("block_latency_p50_s") is not None:
        lines.append(
            f"  block latency    p50 {stream['block_latency_p50_s'] * 1e3:.1f} ms, "
            f"p95 {stream['block_latency_p95_s'] * 1e3:.1f} ms"
        )
    kernel_dtypes = payload.get("kernel_dtypes")
    if kernel_dtypes:
        lines += ["", "kernel precision (batched backend):"]
        for dtype, digest in kernel_dtypes.get("dtypes", {}).items():
            lines.append(
                f"  {dtype:<9} batch {digest['batch_wall_s'] * 1e3:6.1f} ms "
                f"(alignment {digest['alignment_total_s'] * 1e3:.1f} ms, "
                f"dp {digest['dp_tracking_s'] * 1e3:.1f} ms)"
            )
        ratio = kernel_dtypes.get("speedup_float32", {}).get("batch_wall")
        if ratio is not None:
            lines.append(f"  float32 speedup  {ratio:.2f}x")
    serving = payload.get("serving")
    if serving:
        speedup = serving.get("parallel_speedup")
        lines += [
            "",
            f"serving ({serving['n_sessions']} sessions, "
            f"{serving.get('n_workers_effective', serving['n_workers'])}"
            f"/{serving['n_workers']} thread workers, "
            f"{serving.get('n_cpus', '?')} cpus):",
            f"  serial           {serving['serial']['wall_s'] * 1e3:.1f} ms "
            f"({serving['serial']['sessions_per_second']:.2f} sessions/s, "
            f"{serving['serial']['samples_per_second']:.0f} samples/s)",
            f"  parallel         {serving['parallel']['wall_s'] * 1e3:.1f} ms "
            f"({serving['parallel']['sessions_per_second']:.2f} sessions/s, "
            f"{serving['parallel']['samples_per_second']:.0f} samples/s)",
            f"  speedup          "
            f"{'n/a' if speedup is None else format(speedup, '.2f') + 'x'}, "
            f"bit-identical: {'yes' if serving.get('bit_identical') else 'NO'}",
        ]
        if serving.get("fallback_reason"):
            lines.append(
                f"  pool fallback    serial ({serving['fallback_reason']})"
            )
    scaling = payload.get("shard_scaling")
    if scaling:
        from repro.shard.fleet import render_scaling_table

        lines += ["", render_scaling_table(scaling)]
    capacity = payload.get("capacity")
    if capacity:
        fit = capacity.get("fit") or {}
        reference = capacity.get("reference_cell") or {}
        knee = fit.get("knee")
        lines += [
            "",
            f"capacity model ({fit.get('model', '?')} fit, "
            f"r² {fit.get('r2', 0.0):.4f}):",
            f"  slope            {fit.get('slope', 0.0):.2f} sessions/s "
            f"per shard"
            + (f", knee at {knee:g} shards" if knee is not None else ""),
        ]
        rate = reference.get("sessions_per_second")
        p95 = reference.get("block_latency_p95_s")
        if rate is not None:
            lines.append(
                f"  reference cell   {reference.get('key', '?')}: "
                f"{rate:.2f} sessions/s"
                + (f", p95 {p95 * 1e3:.1f} ms" if p95 is not None else "")
            )
    store = payload.get("store")
    if store:
        lines += [
            "",
            f"store ({store['n_chunks']} chunks, "
            f"{store['bytes'] / 1e6:.1f} MB):",
            f"  write            {store['write_wall_s'] * 1e3:.1f} ms "
            f"({store['write_mb_per_s']:.0f} MB/s)",
            f"  verified read    {store['read_wall_s'] * 1e3:.1f} ms "
            f"({store['read_mb_per_s']:.0f} MB/s)",
            f"  replay           {store['replay_wall_s'] * 1e3:.1f} ms "
            f"({store['replay_samples_per_second']:.0f} samples/s over "
            f"{store['replay_n_updates']} updates)",
        ]
    net = payload.get("net")
    if net:
        reconnect = net.get("reconnect") or {}
        lines += [
            "",
            f"network front-end ({net['n_samples']} samples over loopback):",
            f"  ingest           {net['ingest_wall_s'] * 1e3:.1f} ms "
            f"({net['ingest_samples_per_second']:.0f} samples/s)",
            f"  reconnect        {reconnect.get('reconnects', 0)} forced, "
            f"recovery {reconnect.get('recovery_s', 0.0) * 1e3:.1f} ms",
        ]
    overhead = payload.get("obs_overhead")
    if overhead:
        frac = overhead.get("overhead_frac")
        serve_frac = overhead.get("serve_overhead_frac")
        lines += [
            "",
            f"telemetry overhead (best of {overhead.get('repeats', '?')}):",
            f"  batch            {overhead['tracing_off_wall_s'] * 1e3:.1f} ms off "
            f"-> {overhead['tracing_on_wall_s'] * 1e3:.1f} ms on "
            f"({'n/a' if frac is None else format(frac, '+.1%')})",
            f"  serve session    {overhead['serve_off_wall_s'] * 1e3:.1f} ms off "
            f"-> {overhead['serve_on_wall_s'] * 1e3:.1f} ms on "
            f"({'n/a' if serve_frac is None else format(serve_frac, '+.1%')}), "
            f"bit-identical: {'yes' if overhead.get('bit_identical') else 'NO'}",
        ]
    backends = payload.get("backends")
    if backends:
        lines += ["", "kernel backends:"]
        for name, b in backends.items():
            tag = " (primary)" if name == payload.get("primary_backend") else ""
            lines.append(
                f"  {name:<10} batch {b['batch_wall_s'] * 1e3:7.1f} ms  "
                f"alignment {b['alignment_total_s'] * 1e3:7.1f} ms  "
                f"stream {b['stream_wall_s'] * 1e3:7.1f} ms{tag}"
            )
        speedups = payload.get("speedup_vs_reference") or {}
        parts = [
            f"{key} {value:.2f}x"
            for key, value in speedups.items()
            if value is not None
        ]
        if parts:
            lines.append(f"  speedup vs reference: {', '.join(parts)}")
    return "\n".join(lines)
