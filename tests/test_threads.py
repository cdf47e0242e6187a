"""Thread ownership (repro.perf.threads): pinned BLAS, sized job pool.

The estimator pins every loaded BLAS library to one thread when its
kernel backend is built, so its outputs cannot depend on the BLAS
thread count the process started with, nor on the kernel job-pool width.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RimConfig
from repro.core.rim import Rim
from repro.motionsim.profiles import line_trajectory
from repro.perf import (
    get_backend,
    loaded_blas,
    resolve_kernel_threads,
    thread_facts,
    usable_cpus,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Child body: process the saved trace in batch and streaming at each
# kernel job-pool width and print one digest per width plus the BLAS
# thread counts seen after the first Rim was built.
_CHILD = r"""
import hashlib, json, sys
import numpy as np
from repro.arrays.geometry import linear_array
from repro.channel.sampler import CsiTrace
from repro.core.config import RimConfig
from repro.core.rim import Rim
from repro.core.streaming import StreamingRim
from repro.motionsim.profiles import line_trajectory
from repro.perf import loaded_blas

saved = np.load(sys.argv[1])
trace = CsiTrace(
    data=saved["data"], times=saved["times"], array=linear_array(3),
    trajectory=line_trajectory((10.0, 8.0), 0.0, 0.5, 1.5),
    tx_positions=saved["tx"], carrier_wavelength=float(saved["wavelength"]),
)
digests, blas = {}, None
for threads in (1, 2):
    cfg = RimConfig(max_lag=50, kernel_threads=threads)
    h = hashlib.sha256()
    motion = Rim(cfg).process(trace).motion
    blas = blas or [lib.num_threads() for lib in loaded_blas()]
    for a in (motion.speed, motion.heading, motion.moving):
        h.update(np.ascontiguousarray(a).tobytes())
    stream = StreamingRim(
        trace.array, trace.sampling_rate, cfg, block_seconds=0.25,
        carrier_wavelength=trace.carrier_wavelength,
    )
    updates = [stream.push(trace.data[k], float(trace.times[k]))
               for k in range(trace.n_samples)] + [stream.flush()]
    for u in updates:
        if u is not None:
            for a in (u.times, u.speed, u.heading, u.moving):
                h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.float64(stream.total_distance).tobytes())
    digests[threads] = h.hexdigest()
print(json.dumps({"digests": digests, "blas_threads": blas}))
"""


@pytest.fixture(scope="module")
def saved_trace(tmp_path_factory, fast_sampler, three_antenna):
    trace = fast_sampler.sample(
        line_trajectory((10.0, 8.0), 0.0, 0.5, 1.5), three_antenna
    )
    path = tmp_path_factory.mktemp("threads") / "trace.npz"
    np.savez(
        path, data=trace.data, times=trace.times, tx=trace.tx_positions,
        wavelength=trace.carrier_wavelength,
    )
    return path


def _run_child(trace_path: Path, blas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(trace_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_outputs_do_not_depend_on_blas_or_pool_threads(saved_trace):
    """Batch + streaming bits are equal for OPENBLAS_NUM_THREADS unset/1/4
    and for kernel_threads 1/2."""
    runs = {n: _run_child(saved_trace, n) for n in (None, 1, 4)}
    digests = {(n, k): d for n, run in runs.items() for k, d in run["digests"].items()}
    assert len(set(digests.values())) == 1, digests
    for n, run in runs.items():
        assert all(t == 1 for t in run["blas_threads"]), (n, run["blas_threads"])


def test_blas_reports_one_thread_after_rim_is_built():
    if not loaded_blas():
        pytest.skip("no known BLAS library loaded in this process")
    Rim(RimConfig())
    assert [lib.num_threads() for lib in loaded_blas()] == [1] * len(loaded_blas())
    assert thread_facts()["blas_threads"] == 1


def test_kernel_threads_resolution():
    assert resolve_kernel_threads(RimConfig()) == usable_cpus()
    assert resolve_kernel_threads(RimConfig(kernel_threads=1)) == 1
    assert resolve_kernel_threads(RimConfig(kernel_threads=3)) == 3
    assert get_backend(RimConfig(kernel_backend="batched")).threads == usable_cpus()
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))


def test_thread_facts_shape():
    facts = thread_facts(RimConfig(kernel_threads=2))
    assert facts["usable_cpus"] == usable_cpus()
    assert facts["kernel_threads"] == 2
    assert set(facts) == {"usable_cpus", "blas_vendor", "blas_threads", "kernel_threads"}


def test_shared_job_pool_under_concurrent_callers(line_trace):
    """Callers on several threads share the job pools (wider than the
    host) and still get the serial bits, with frequent thread switches."""
    want = Rim(RimConfig(max_lag=25, kernel_threads=1)).process(line_trace).motion
    rims = [Rim(RimConfig(max_lag=25, kernel_threads=8)) for _ in range(4)]
    results = [None] * len(rims)

    def run(k: int) -> None:
        results[k] = rims[k].process(line_trace).motion

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(len(rims))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for got in results:
        assert got is not None
        assert got.speed.tobytes() == want.speed.tobytes()
        assert got.heading.tobytes() == want.heading.tobytes()
        assert np.array_equal(got.moving, want.moving)
