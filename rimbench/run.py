"""Run one RIM benchmark workload and print its result.

Usage, from the repository root::

    python3 rimbench/run.py --workload offline-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with ``repro.obs`` off and prints every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` measures the same work
untraced and then traced, and prints every per-layer metric plus
``obs.overhead_frac``.  The last stdout line is the JSON result; the line
before it records the host, the configuration, the checks and the failure
count.  A run that fails a correctness check prints ``"correct": false``
with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("offline-batch", "live-stream", "fleet-ingest")
SETUP_REPEATS = 5
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _use_checkout() -> None:
    """Import the program from this checkout and keep its files inside it.

    The compiled DP kernel is cached under ``.bench_build``; BLAS thread
    variables are left exactly as found.
    """
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["RIM_DP_CACHE_DIR"] = str(BUILD / "dp")


def _module(workload: str):
    from rimbench import fleet, live, offline

    return {offline.NAME: offline, live.NAME: live, fleet.NAME: fleet}[workload]


# -- set-up time ---------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """Child-process body: set the workload's program up from a cold
    interpreter until it accepts its first sample, print the monotonic
    clock, then tear down (untimed)."""
    import numpy as np

    from repro.arrays.geometry import linear_array
    from repro.core.config import RimConfig
    from repro.core.rim import Rim
    from repro.perf import native_available

    if workload == "offline-batch":
        Rim(RimConfig())
        native_available()
        print(f"READY {time.monotonic()!r}", flush=True)
        return
    array = linear_array(3)
    packet = np.ones((array.n_antennas, 3, 114), dtype=np.complex64)
    if workload == "live-stream":
        from rimbench import live
        from repro.serve.session import ServeConfig, SessionManager

        manager = SessionManager(
            rim_config=RimConfig(), serve_config=ServeConfig(block_seconds=live.BLOCK_S)
        )
        native_available()
        manager.create("probe", array, 200.0)
        manager.push("probe", packet, 0.0)
        print(f"READY {time.monotonic()!r}", flush=True)
        return
    import shutil

    from rimbench import fleet
    from repro.net.client import NetClient

    record_dir = BUILD / "fleet" / f"probe-{os.getpid()}"
    router, server, _ = fleet.start_fleet(record_dir)
    try:
        client = NetClient(
            server.config.host, server.port, "probe", array, 200.0,
            sample_shape=packet.shape,
        )
        client.connect()
        client.send(0.0, packet)
        print(f"READY {time.monotonic()!r}", flush=True)
        # A one-sample stream cannot be flushed (the estimator needs two
        # timestamps for a sampling rate), so send a second before BYE.
        client.send(0.005, packet)
        client.finish()
        client.close()
    finally:
        try:
            server.close()
            router.close()
        finally:
            shutil.rmtree(record_dir, ignore_errors=True)


def measure_setup(workload: str, repeats: int) -> List[float]:
    """Set-up seconds of ``repeats`` cold starts, each in its own process."""
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
        times.append(float(ready[-1].split()[1]) - t0)
    return times


def make_inputs(workload: str, seconds: float) -> None:
    """Simulate and cache the workload's traces in a child process, so the
    simulator's memory never counts toward the run's peak RSS."""
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--make-inputs", workload,
         "--seconds", repr(seconds)],
        check=True, timeout=900, cwd=str(ROOT),
    )


# -- host facts and run-to-run determinism --------------------------------------


def host_facts() -> Dict[str, object]:
    import platform

    import numpy as np

    from repro.core.config import RimConfig
    from repro.core.rim import Rim
    from repro.perf import native_available
    from repro.perf.registry import resolve_kernel_dtype

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cfg = RimConfig()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "native_dp_kernel": native_available(),
        "kernel_backend": Rim(cfg).kernel_backend,
        "kernel_dtype": resolve_kernel_dtype(cfg),
        "machine": platform.machine(),
    }


def code_digest() -> str:
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH_DIR):
        for f in sorted(base.rglob("*")):
            if f.suffix in (".py", ".c") and f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def same_as_earlier_run(workload: str, seed: int, seconds: float, outputs) -> bool:
    """Compare with the outputs an earlier run of the same code, workload
    and seed left in this checkout (the first such run records them)."""
    path = BUILD / "outputs" / f"{workload}-seed{seed}-s{seconds:g}-{code_digest()}.json"
    text = json.dumps(outputs, sort_keys=True)
    if path.is_file():
        return path.read_text() == text
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(text)
    tmp.replace(path)
    return True


# -- one run ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from rimbench import inputs, offline
    from rimbench.metrics import at_resolution, median, result_record

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    mod = _module(workload)
    factory = inputs.TraceFactory(BUILD / "inputs", SRC / "repro")
    specs = mod.specs(seconds)
    if factory.missing(list(specs) + [inputs.ROTATION_SPEC]):
        make_inputs(workload, seconds)
    prepared = factory.traces(specs)
    kwargs = {"record_dir": BUILD / "fleet" / f"run-{os.getpid()}"} if workload == "fleet-ingest" else {}

    first = mod.measure(prepared, seed, seconds, False, **kwargs)
    checks = dict(first.checks)
    checks["same_seed_outputs_identical"] = same_as_earlier_run(
        workload, seed, seconds, first.outputs
    )
    tally = first.tally
    if trace:
        traced = mod.measure(prepared, seed, seconds, True, **kwargs)
        checks.update({f"traced.{k}": v for k, v in traced.checks.items()})
        checks["tracing_leaves_outputs_unchanged"] = traced.outputs == first.outputs
        metrics = dict(traced.metrics)
        metrics["obs.overhead_frac"] = traced.busy_s / first.busy_s - 1.0
        not_exercised = sorted(set(expected) - set(metrics))
        for name in not_exercised:
            metrics[name] = 0.0
    else:
        metrics = dict(first.metrics)
        not_exercised = []
        if "rotation_err_deg" not in metrics:
            metrics["rotation_err_deg"] = offline.rotation_probe(factory)
        metrics = at_resolution(metrics)
        setups = measure_setup(workload, SETUP_REPEATS)
        metrics["setup_s"] = median(setups)

    code, record = result_record(checks, tally, metrics, expected)
    print(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host_facts(),
        "checks": checks,
        "failed_checks": sorted(name for name, ok in checks.items() if not ok),
        "failed_frac": tally.failed_frac,
        "failure_reasons": tally.reasons,
        "layers_not_exercised": not_exercised,
        "unexpected_metrics": sorted(set(metrics) - set(expected)),
    }, sort_keys=True))
    for name in expected:
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:14.6g} {expected[name]}", file=sys.stderr)
    print(json.dumps(record), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--make-inputs", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"rimbench: no program sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    _use_checkout()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.make_inputs:
        from rimbench import inputs

        factory = inputs.TraceFactory(BUILD / "inputs", SRC / "repro")
        factory.traces(list(_module(args.make_inputs).specs(args.seconds)) + [inputs.ROTATION_SPEC])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
