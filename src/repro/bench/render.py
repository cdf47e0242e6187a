"""Run-table renderers: Markdown and CSV, following the repo's
``render_*`` conventions (pure function of the payload, returns a
string, no I/O)."""

from __future__ import annotations

import io
from typing import Any, Dict, List

from repro.bench.spec import AXES


def _fmt_ms(value: Any) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value * 1e3:.1f}"


def _health_summary(health: Dict[str, Any]) -> str:
    parts = [
        f"{key[:4]}={int(health[key])}"
        for key in ("blocked", "shed", "rejected", "degraded_blocks", "reconnects")
        if int(health.get(key, 0))
    ]
    return " ".join(parts) if parts else "clean"


def render_bench_table(payload: Dict[str, Any]) -> str:
    """Markdown run table: one row per cell with spread and latency."""
    lines = [
        f"# bench run table — {payload['name']}",
        "",
        f"- cells: {payload['n_cells']} × {payload['repetitions']} reps"
        f" on {payload['n_cpus']} cpus",
        f"- digest: `{payload['digest']}`",
    ]
    host = payload.get("host")
    if host:
        lines.append(
            f"- threads: BLAS {host['blas_vendor']} × {host['blas_threads']}, "
            f"kernel job pool {host['kernel_threads']}"
        )
    if payload.get("filters"):
        lines.append(f"- filters: `{' '.join(payload['filters'])}`")
    if payload.get("stopped_early"):
        lines.append("- **stopped early** — table covers finished cells only")
    lines += [
        "",
        "| cell | sess/s | spread | samples/s | p50 ms | p95 ms | p99 ms "
        "| updates | health |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---|",
    ]
    for row in payload["rows"]:
        rate = row["sessions_per_second"]
        lines.append(
            f"| `{row['key']}` "
            f"| {rate['mean']:.2f} "
            f"| {rate['spread_frac']:.1%} "
            f"| {row['samples_per_second']['mean']:.0f} "
            f"| {_fmt_ms(row.get('latency_p50_s'))} "
            f"| {_fmt_ms(row.get('latency_p95_s'))} "
            f"| {_fmt_ms(row.get('latency_p99_s'))} "
            f"| {row['n_updates']} "
            f"| {_health_summary(row['health'])} |"
        )
    capacity = payload.get("capacity") or []
    if capacity:
        lines += ["", render_capacity_table(capacity)]
    return "\n".join(lines) + "\n"


def render_capacity_table(models: List[Dict[str, Any]]) -> str:
    """Markdown capacity-model table: one row per fitted group."""
    lines = [
        "## capacity model (sessions/s vs shards)",
        "",
        "| group | model | slope | intercept | r² | knee | slope after |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    for model in models:
        fit = model["fit"]
        knee = fit.get("knee")
        slope_after = fit.get("slope_after")
        lines.append(
            f"| `{model['group']}` "
            f"| {fit['model']} "
            f"| {fit['slope']:.3f} "
            f"| {fit['intercept']:.3f} "
            f"| {fit['r2']:.4f} "
            f"| {knee if knee is not None else '-'} "
            f"| {f'{slope_after:.3f}' if slope_after is not None else '-'} |"
        )
    return "\n".join(lines) + "\n"


def render_bench_csv(payload: Dict[str, Any]) -> str:
    """CSV run table: one row per cell, axes split into columns."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        list(AXES)
        + [
            "seed",
            "reps",
            "sessions_per_second_mean",
            "sessions_per_second_stdev",
            "sessions_per_second_spread_frac",
            "samples_per_second_mean",
            "wall_s_mean",
            "latency_p50_s",
            "latency_p95_s",
            "latency_p99_s",
            "n_updates",
            "total_distance_m",
            "blocked",
            "shed",
            "rejected",
            "degraded_blocks",
            "reconnects",
        ]
    )
    for row in payload["rows"]:
        cell = row["cell"]
        health = row["health"]
        writer.writerow(
            [cell[axis] for axis in AXES]
            + [
                row["seed"],
                len(row["reps"]),
                f"{row['sessions_per_second']['mean']:.6f}",
                f"{row['sessions_per_second']['stdev']:.6f}",
                f"{row['sessions_per_second']['spread_frac']:.6f}",
                f"{row['samples_per_second']['mean']:.6f}",
                f"{row['wall_s']['mean']:.6f}",
                row.get("latency_p50_s"),
                row.get("latency_p95_s"),
                row.get("latency_p99_s"),
                row["n_updates"],
                f"{row['total_distance_m']!r}",
                health.get("blocked", 0),
                health.get("shed", 0),
                health.get("rejected", 0),
                health.get("degraded_blocks", 0),
                health.get("reconnects", 0),
            ]
        )
    return buf.getvalue()
