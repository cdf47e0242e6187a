"""Benchmark inputs: fixed trajectory sets sampled in the §6.1 testbed.

Every trace is built from a :class:`TraceSpec` in one fixed office
environment (``make_testbed(seed=ENVIRONMENT_SEED)``) with the default
impairment model.  The impairment draw of each trace is keyed by the
trace name alone, so a trace is the same CSI in every run: the
estimator's accuracy swings several-fold between noise draws (see
``README.md``), and only fixed inputs make the accuracy figures exact and
comparable between runs.  The run's ``--seed`` drives the load instead:
processing order, session stagger and the wire-fault plan.

Channel simulation costs seconds per trace, so impaired traces are cached
under the checkout's ``.bench_build/inputs`` keyed by the spec and a hash
of the simulator sources.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from repro.arrays.geometry import AntennaArray, hexagonal_array, linear_array
from repro.channel.impairments import CsiImpairer, ImpairmentConfig, clean
from repro.channel.sampler import CsiTrace
from repro.eval.setup import MEASUREMENT_SPOTS, make_testbed
from repro.motionsim import profiles
from repro.motionsim.trajectory import Trajectory

ENVIRONMENT_SEED = 0
SAMPLING_RATE = 200.0
# Sources whose change alters the generated CSI (cache key).
_SIMULATOR_SOURCES = ("channel", "motionsim", "arrays", "env", "eval/setup.py")


@dataclass(frozen=True)
class TraceSpec:
    """One benchmark trace: array, motion profile and its parameters.

    ``kind`` names a :mod:`repro.motionsim.profiles` builder (``line``,
    ``square``, ``stop_and_go``, ``rotation``, ``shuttle`` — back and forth
    along one line — or ``still``); ``spot`` indexes ``MEASUREMENT_SPOTS``.
    """

    name: str
    array: str  # "hexagonal" or "linear"
    kind: str
    spot: int
    heading_deg: float = 0.0
    speed: float = 0.5
    duration_s: float = 6.0
    leg_m: float = 1.5

    @property
    def moves(self) -> bool:
        """Does the array translate (as opposed to rotating or resting)?"""
        return self.kind not in ("rotation", "still")


def build_array(kind: str) -> AntennaArray:
    if kind == "hexagonal":
        return hexagonal_array()
    if kind == "linear":
        return linear_array(3)
    raise ValueError(f"unknown array kind {kind!r}")


def trajectory(spec: TraceSpec) -> Trajectory:
    """The ground-truth trajectory of a spec (cheap, never cached)."""
    start = MEASUREMENT_SPOTS[spec.spot % len(MEASUREMENT_SPOTS)]
    fs = SAMPLING_RATE
    if spec.kind == "line":
        return profiles.line_trajectory(
            start, spec.heading_deg, spec.speed, spec.duration_s, fs
        )
    if spec.kind == "square":
        return profiles.square_trajectory(start, spec.leg_m, spec.speed, fs)
    if spec.kind == "stop_and_go":
        return profiles.stop_and_go_trajectory(
            start, spec.heading_deg, spec.speed, [1.5, 1.5], [1.0, 1.0], fs
        )
    if spec.kind == "rotation":
        return profiles.rotation_trajectory(
            start, spec.heading_deg, angular_speed_deg=120.0, sampling_rate=fs
        )
    if spec.kind == "shuttle":
        # Back and forth along the array axis (a pushed cart), so the
        # linear array sees its pairs retrace in both directions.
        theta = np.deg2rad(spec.heading_deg)
        end = np.asarray(start) + spec.leg_m * np.array([np.cos(theta), np.sin(theta)])
        n_legs = int(np.ceil(spec.duration_s * spec.speed / spec.leg_m)) + 1
        waypoints = [start if k % 2 == 0 else end for k in range(n_legs + 1)]
        full = profiles.polyline_trajectory(
            waypoints, spec.speed, fs, orientation_deg=spec.heading_deg
        )
        return full.slice(0, int(round(spec.duration_s * fs)) + 1)
    if spec.kind == "still":
        return profiles.still_trajectory(
            start, spec.duration_s, fs, orientation_deg=spec.heading_deg
        )
    raise ValueError(f"unknown trajectory kind {spec.kind!r}")


def _source_digest(src_root: Path) -> str:
    digest = hashlib.sha256()
    for rel in _SIMULATOR_SOURCES:
        path = src_root / rel
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            digest.update(str(f.relative_to(src_root)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


class TraceFactory:
    """Builds (or loads from cache) the impaired trace of each spec."""

    def __init__(self, cache_dir: Path, src_root: Path):
        self.cache_dir = Path(cache_dir)
        self._source_key = _source_digest(Path(src_root))
        self._testbed = None

    def _bed(self):
        if self._testbed is None:
            self._testbed = make_testbed(seed=ENVIRONMENT_SEED, impairments=clean())
        return self._testbed

    def _impair(self, spec: TraceSpec, data: np.ndarray, array) -> np.ndarray:
        """One impairment chain per NIC, drawn from the trace name."""
        rng = np.random.default_rng([ENVIRONMENT_SEED, zlib.crc32(spec.name.encode())])
        grid = self._bed().channel.grid
        out = np.empty_like(data)
        for nic in range(array.n_nics):
            members = np.nonzero(array.nic_assignment == nic)[0]
            impairer = CsiImpairer(ImpairmentConfig(), grid, len(members), rng)
            out[:, members] = impairer.apply(data[:, members])
        return out

    def _cache_path(self, spec: TraceSpec) -> Path:
        key = hashlib.sha256(f"{spec!r}|{self._source_key}".encode()).hexdigest()[:16]
        return self.cache_dir / f"{spec.name}-{key}.npz"

    def trace(self, spec: TraceSpec) -> CsiTrace:
        array = build_array(spec.array)
        traj = trajectory(spec)
        path = self._cache_path(spec)
        if path.is_file():
            with np.load(path) as f:
                data = f["data"]
                meta = f["meta"]
        else:
            sampler = self._bed().sampler
            data = self._impair(spec, sampler.sample(traj, array).data, array)
            wavelength = 299_792_458.0 / sampler.channel.grid.carrier_frequency
            meta = np.array([wavelength, *sampler.tx_positions.ravel()])
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.stem + ".tmp.npz")
            np.savez(tmp, data=data, meta=meta)
            tmp.replace(path)
        return CsiTrace(
            data=data,
            times=traj.times.copy(),
            array=array,
            trajectory=traj,
            tx_positions=np.asarray(meta[1:]).reshape(-1, 2),
            carrier_wavelength=float(meta[0]),
        )

    def missing(self, specs: Sequence[TraceSpec]) -> List[TraceSpec]:
        """Specs whose trace is not cached yet."""
        return [spec for spec in specs if not self._cache_path(spec).is_file()]

    def traces(self, specs: Sequence[TraceSpec]) -> List[Tuple[TraceSpec, CsiTrace]]:
        return [(spec, self.trace(spec)) for spec in specs]


def seeded_order(n: int, seed: int) -> List[int]:
    """A permutation of ``range(n)`` drawn from the run's seed."""
    return [int(k) for k in np.random.default_rng([seed, n]).permutation(n)]


# -- workload trace sets ------------------------------------------------------

# offline-batch: paper-style hexagonal-array traces at 200 Hz.  Pair axes
# of the hexagon lie every 30 degrees, so 0 and 60 degree walks are on an
# axis and 45 and 105 degree walks are 15 degrees off one (the case the
# 30-degree direction grid resolves worst, Fig. 12).
OFFLINE_SPECS: Tuple[TraceSpec, ...] = (
    TraceSpec("walk-000", "hexagonal", "line", 0, heading_deg=0.0),
    TraceSpec("walk-060", "hexagonal", "line", 1, heading_deg=60.0),
    TraceSpec("walk-045", "hexagonal", "line", 2, heading_deg=45.0),
    TraceSpec("walk-105", "hexagonal", "line", 3, heading_deg=105.0, duration_s=5.0),
    TraceSpec("square", "hexagonal", "square", 4, leg_m=1.0),
    TraceSpec("stop-and-go", "hexagonal", "stop_and_go", 5, heading_deg=150.0),
    TraceSpec("rotate-180", "hexagonal", "rotation", 6, heading_deg=180.0),
)

ROTATION_SPEC = OFFLINE_SPECS[-1]


def live_specs(n_sessions: int, duration_s: float) -> Tuple[TraceSpec, ...]:
    """Linear-array carts shuttling along their array axis."""
    return tuple(
        TraceSpec(
            f"live-{k}", "linear", "shuttle", k, heading_deg=(37.0 * k) % 180.0,
            duration_s=duration_s,
        )
        for k in range(n_sessions)
    )


def fleet_specs(n_moving: int, n_still: int, duration_s: float) -> Tuple[TraceSpec, ...]:
    """Mostly idle receivers plus a minority of moving carts."""
    moving = [
        TraceSpec(
            f"fleet-move-{k}", "linear", "shuttle", 2 * k + 1,
            heading_deg=(53.0 * k + 20.0) % 180.0, duration_s=duration_s,
        )
        for k in range(n_moving)
    ]
    still = [
        TraceSpec(
            f"fleet-idle-{k}", "linear", "still", 2 * k, heading_deg=30.0 * k,
            duration_s=duration_s,
        )
        for k in range(n_still)
    ]
    return tuple(moving + still)

