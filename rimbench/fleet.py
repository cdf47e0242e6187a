"""fleet-ingest: NetServer over a 2-shard ShardRouter, faulted wire.

Closed loop on one thread driving two ``NetClient`` connections round
robin: sessions go out in pairs (each moving session beside an idle one,
then the other idle sessions in a seed-drawn order), one sample per
connection in turn, as fast as the front end takes them.  The router
records ingest (the failover-ready configuration), sessions use 1 s
blocks, and a fixed wire-fault plan drops, duplicates, reorders and
corrupts frames (no delay, no forced disconnect).  Most sessions are
idle, so the estimator short-circuits at movement detection and framing,
CRC, reorder, router, shard pipe and store writer do most of the work.
"""

from __future__ import annotations

import multiprocessing
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.core.rim import Rim
from repro.net.client import NetClient
from repro.net.faults import NetFaultPlan
from repro.net.loadgen import baseline_updates, updates_equal
from repro.net.server import NetServer, NetServerConfig
from repro.serve.session import ServeConfig
from repro.shard.router import ShardRouter

from rimbench import inputs, layers
from rimbench.live import streamed_heading_error
from rimbench.metrics import (
    Measurement,
    Tally,
    child_cpu_s,
    child_peak_rss_mb,
    count_stream_failures,
    distance_error_cm,
    median,
    percentile,
    process_cpu_s,
    self_peak_rss_mb,
    stream_batch_gap_mm,
)

NAME = "fleet-ingest"
N_SHARDS = 2
N_CONNECTIONS = 2
N_MOVING = 2
N_IDLE = 6
BLOCK_S = 1.0
# Session length as a share of the run's seconds: at the seed code's
# ~1,400 samples/s the eight sessions fill about the requested window.
SESSION_SHARE = 0.8

Sessions = List[Tuple[inputs.TraceSpec, CsiTrace]]


def fault_plan() -> NetFaultPlan:
    """The fixed wire-fault plan: the same frames fail in every run, so the
    delivered samples, and with them the estimates, are the same."""
    return NetFaultPlan(
        seed=0,
        drop_fraction=0.01,
        duplicate_fraction=0.01,
        reorder_fraction=0.02,
        corrupt_fraction=0.005,
    )


def serve_config() -> ServeConfig:
    return ServeConfig(block_seconds=BLOCK_S)


def specs(seconds: float) -> Tuple[inputs.TraceSpec, ...]:
    return inputs.fleet_specs(N_MOVING, N_IDLE, max(2.0, SESSION_SHARE * seconds))


class _TimedSession:
    """Session proxy whose poll/flush calls the manager times."""

    def __init__(self, owner: "TimedManager", name: str, inner):
        self._owner = owner
        self._name = name
        self._inner = inner

    def poll(self):
        return self._owner.timed_updates(self._name, self._inner.poll)

    def flush(self):
        return self._owner.timed_updates(self._name, self._inner.flush)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedManager:
    """Times the router calls ``NetServer`` makes, from outside the router.

    Besides the call durations it keeps the time each sample entered the
    router, so an update's latency through the fleet runs from the push
    of its block's last sample to the poll that returned it.
    """

    def __init__(self, router: ShardRouter):
        self.router = router
        self.push_s: List[float] = []
        self.poll_s: List[float] = []
        self.update_latency_s: List[float] = []
        self.untraceable_updates = 0  # last sample never pushed as stamped
        self._pushed_at: Dict[Tuple[str, float], float] = {}

    def create(self, name, *args, **kwargs):
        return _TimedSession(self, name, self.router.create(name, *args, **kwargs))

    def push(self, name, packet, timestamp=None, **kwargs):
        t0 = time.perf_counter()
        status = self.router.push(name, packet, timestamp, **kwargs)
        t1 = time.perf_counter()
        self.push_s.append(t1 - t0)
        self._pushed_at[(name, timestamp)] = t0
        return status

    def timed_updates(self, name: str, call):
        t0 = time.perf_counter()
        updates = call()
        t1 = time.perf_counter()
        self.poll_s.append(t1 - t0)
        for u in updates:
            pushed = self._pushed_at.get((name, float(u.times[-1])))
            if pushed is None:
                self.untraceable_updates += 1
            else:
                self.update_latency_s.append(t1 - pushed)
        return updates

    def __getattr__(self, name):
        return getattr(self.router, name)


def connection_pairs(n_sessions: int, seed: int) -> List[List[int]]:
    """Sessions streamed together, one per connection.

    Each moving session shares the front end with an idle one, and these
    pairs go first in a fixed order: the router places sessions as they
    are created, so a fixed creation order keeps the moving sessions on
    the same shards in every run (with a seed-drawn order, throughput
    swung by 30% between seeds).  The remaining idle sessions pair up in
    a seed-drawn order.  ``specs`` lists the moving sessions first.
    """
    pairs = [[k, N_MOVING + k] for k in range(N_MOVING)]
    rng = np.random.default_rng([seed, 11])
    idle = [int(k) for k in 2 * N_MOVING + rng.permutation(n_sessions - 2 * N_MOVING)]
    return pairs + [idle[j:j + N_CONNECTIONS] for j in range(0, len(idle), N_CONNECTIONS)]


def start_fleet(record_dir: Path) -> Tuple[ShardRouter, NetServer, TimedManager]:
    """Spawn the shards, wait until they answer, start the server."""
    router = ShardRouter(
        N_SHARDS, rim_config=RimConfig(), serve_config=serve_config(),
        record_dir=record_dir,
    )
    try:
        router.wait_ready()
        manager = TimedManager(router)
        server = NetServer(
            manager=manager, config=NetServerConfig(port=0),
            rim_config=RimConfig(), serve_config=serve_config(),
        ).start()
    except BaseException:
        router.close()
        raise
    return router, server, manager


def new_client(server: NetServer, name: str, trace: CsiTrace, plan) -> NetClient:
    return NetClient(
        server.config.host, server.port, name, trace.array, trace.sampling_rate,
        sample_shape=tuple(trace.data.shape[1:]),
        carrier_wavelength=trace.carrier_wavelength, fault_plan=plan,
    )


def resent_frames(client: NetClient, n_samples: int) -> int:
    """Frames the client wrote beyond its first pass (resends after a
    reconnect): the first pass writes every sample the fault plan does not
    drop, once more for each duplicate, and one BYE."""
    faults = client.injector.counters()
    first_pass = n_samples - faults["dropped"] + faults["duplicated"] + 1
    return client.n_sent_frames - first_pass


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _stream_pair(server, pair, plan, clients, updates, send_s, finish_s) -> None:
    """Stream two sessions round robin on their own connections, then BYE."""
    active = []
    for spec, trace in pair:
        name = spec.name
        client = new_client(server, name, trace, plan)
        client.connect()
        clients[name] = client
        active.append((name, trace, client))
    for k in range(max(trace.n_samples for _, trace, _ in active)):
        for _name, trace, client in active:
            if k < trace.n_samples:
                t0 = time.perf_counter()
                client.send(float(trace.times[k]), trace.data[k])
                send_s.append(time.perf_counter() - t0)
    for name, _trace, client in active:
        t0 = time.perf_counter()
        updates[name] = list(client.finish())
        finish_s.append(time.perf_counter() - t0)
        client.close()


def measure(
    sessions: Sessions, seed: int, seconds: float, traced: bool, record_dir: Path
) -> Measurement:
    plan = fault_plan()
    pairs = connection_pairs(len(sessions), seed)
    if record_dir.exists():
        shutil.rmtree(record_dir)
    if traced:
        obs.reset()
        obs.enable()
    router, server, manager = start_fleet(record_dir)
    pids = [child.pid for child in multiprocessing.active_children()]  # the shards
    updates: Dict[str, list] = {}
    clients: Dict[str, NetClient] = {}
    send_s: List[float] = []
    finish_s: List[float] = []
    try:
        shard_cpu0 = sum(child_cpu_s(pid) for pid in pids)
        cpu0 = process_cpu_s()
        start = time.perf_counter()
        for pair in pairs:
            _stream_pair(server, [sessions[k] for k in pair], plan, clients, updates,
                         send_s, finish_s)
        window = time.perf_counter() - start
        frontend_cpu = process_cpu_s() - cpu0
        shard_cpu = sum(child_cpu_s(pid) for pid in pids) - shard_cpu0
        placement: Dict[str, int] = {}
        for spec, trace in sessions:
            shard = router.shard_of(spec.name)
            placement[shard] = placement.get(shard, 0) + trace.n_samples
        if traced:
            router.refresh_metrics()
        peak_rss = self_peak_rss_mb() + sum(child_peak_rss_mb(pid) for pid in pids)
    finally:
        for client in clients.values():
            client.close()
        try:
            server.close()
            router.close()
        finally:
            if traced:
                obs.disable()
            store_bytes = _dir_bytes(record_dir)
            shutil.rmtree(record_dir, ignore_errors=True)

    tally = Tally()
    all_match = True
    dist_err: List[float] = []
    moving_err: List[float] = []
    heading_err: List[float] = []
    gaps: List[Tuple[float, float]] = []
    covered_total = 0
    for spec, trace in sessions:
        ups = updates[spec.name]
        covered = sum(len(u.times) for u in ups)
        covered_total += covered
        delivered = sorted(plan.delivered_seqs(trace.n_samples))
        match = updates_equal(
            ups, baseline_updates(spec.name, trace, plan, RimConfig(), serve_config())
        )
        all_match &= match
        count_stream_failures(
            tally, pushed=trace.n_samples, expected_covered=len(delivered),
            covered=covered, matches_baseline=match,
        )
        streamed = ups[-1].total_distance if ups else 0.0
        err = distance_error_cm(streamed, trace.trajectory.total_distance)
        dist_err.append(err)
        if spec.moves:
            moving_err.append(err)
            heading_err.append(streamed_heading_error(trace, ups))
            on_wire = CsiTrace(
                data=trace.data[delivered], times=trace.times[delivered],
                array=trace.array, trajectory=trace.trajectory,
                tx_positions=trace.tx_positions,
                carrier_wavelength=trace.carrier_wavelength,
            )
            gaps.append((streamed, Rim(RimConfig()).process(on_wire).total_distance))
    checks = {
        "fleet.sessions_equal_baseline_updates": all_match,
        "fleet.updates_end_on_a_pushed_sample": manager.untraceable_updates == 0,
    }
    outputs = {
        name: [len(ups), [u.total_distance for u in ups]]
        for name, ups in sorted(updates.items())
    }
    samples = sum(trace.n_samples for _, trace in sessions)

    if traced:
        metrics = layers.pipeline_layers(samples)
        retransmits = sum(
            resent_frames(clients[spec.name], trace.n_samples) for spec, trace in sessions
        )
        metrics.update({
            "net.client.send_us_p50": 1e6 * median(send_s),
            "net.client.finish_ms_p50": 1e3 * median(finish_s),
            "shard.router.push_us_p50": 1e6 * median(manager.push_s),
            "shard.router.poll_ms_p95": 1e3 * percentile(manager.poll_s, 95),
            "frontend.cpu_ms_per_ksample": 1e6 * frontend_cpu / samples,
            "shard.worker.cpu_ms_per_ksample": 1e6 * shard_cpu / samples,
            "shard.skew": max(placement.values()) / (samples / N_SHARDS),
            "store.bytes_written_per_sample": store_bytes / samples,
            "net.crc_dropped": layers.counter("net.crc_dropped"),
            "net.resyncs": layers.counter("net.resyncs"),
            "net.client.retransmits": float(retransmits),
        })
        obs.reset()
        return Measurement(metrics, checks, tally, window, outputs)

    stream_s = samples / sessions[0][1].sampling_rate
    metrics = {
        "samples_per_s": covered_total / window,
        "update_latency_p50_ms": 1e3 * median(manager.update_latency_s),
        "update_latency_p95_ms": 1e3 * percentile(manager.update_latency_s, 95),
        "cpu_ms_per_stream_s": 1e3 * (frontend_cpu + shard_cpu) / stream_s,
        "dist_err_cm_p50": median(moving_err),
        "dist_err_cm_max": max(dist_err),
        "heading_err_deg_p50": median(heading_err),
        "stream_batch_gap_mm": stream_batch_gap_mm(gaps),
        "peak_rss_mb": peak_rss,
    }
    return Measurement(metrics, checks, tally, window, outputs)
