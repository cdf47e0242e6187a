"""Per-layer figures read from the spans and counters ``repro.obs`` already
records; nothing here adds tracing to the program."""

from __future__ import annotations

from typing import Dict, Iterable

from repro import obs
from repro.obs.trace import Span

# Pipeline stages of Rim.process (child spans of "rim.process") and the
# layer each belongs to.  DP time is split out of every stage into
# perf.dptrack so the shares add up to at most one.
STAGE_LAYERS = {
    "rim.guard": "robustness.guard",
    "rim.sanitize": "core.sanitize",
    "rim.movement_detect": "core.movement",
    "rim.pre_screen": "perf.alignment",
    "rim.track_groups": "perf.alignment",
    "rim.rotation_detect": "core.rotation",
    "rim.integrate": "core.integrate",
}
DP_SPAN = "dp_tracking"


def counter(name: str) -> float:
    """Current value of a ``repro.obs`` counter (0 when never touched)."""
    metric = obs.METRICS.get(name)
    return float(metric.value) if metric is not None else 0.0


def _dp_seconds(span: Span) -> float:
    return sum(s.duration for s in span.walk() if s.name == DP_SPAN)


def _process_roots(roots: Iterable[Span]) -> Iterable[Span]:
    for root in roots:
        for span in root.walk():
            if span.name == "rim.process":
                yield span


def stage_busy_fracs(roots: Iterable[Span]) -> Dict[str, float]:
    """Share of ``Rim.process`` wall time spent in each layer."""
    total = 0.0
    busy = {layer: 0.0 for layer in set(STAGE_LAYERS.values())}
    busy["perf.dptrack"] = 0.0
    for proc in _process_roots(roots):
        total += proc.duration
        busy["perf.dptrack"] += _dp_seconds(proc)
        for child in proc.children:
            layer = STAGE_LAYERS.get(child.name)
            if layer is not None:
                busy[layer] += child.duration - _dp_seconds(child)
    if total <= 0:
        raise RuntimeError("no rim.process spans were recorded")
    return {f"{layer}.busy_frac": value / total for layer, value in busy.items()}


def pipeline_layers(samples_in: int) -> Dict[str, float]:
    """Estimator-layer figures from the current ``repro.obs`` state.

    ``samples_in`` is how many samples the benchmark handed the program;
    work counts are per input sample, so re-processing shows in them.
    Stage shares need the ``rim.process`` spans, which exist only when the
    estimator runs in this process.
    """
    roots = list(obs.TRACER.roots)
    out: Dict[str, float] = {}
    if any(True for _ in _process_roots(roots)):
        out.update(stage_busy_fracs(roots))
    computed = counter("alignment.cells")
    seeded = counter("stream.cache_seeded_cells")
    prescreened = counter("rim.groups_prescreened")
    out["perf.alignment.cells_per_sample"] = computed / samples_in
    out["perf.dptrack.cells_per_sample"] = counter("dp.cells") / samples_in
    out["core.prescreen.confirm_ratio"] = (
        counter("rim.groups_confirmed") / prescreened if prescreened else 0.0
    )
    out["core.streaming.reprocess_ratio"] = counter("rim.samples_processed") / samples_in
    out["perf.streamcache.hit_frac"] = (
        seeded / (seeded + computed) if seeded + computed else 0.0
    )
    return out
