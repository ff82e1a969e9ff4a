"""Metric names, units and the statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` list every metric a run prints, in the
order ``BENCHMARK.json`` declares them (a self-test keeps the two in
step).  Every workload reports every metric; a layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = [
    "END_TO_END", "PER_LAYER", "FIGURES", "percentile", "median",
    "zero_layer_metrics", "store_metrics", "metrics_doc",
]

FIGURES = ("fig01", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
           "fig12", "fig13", "fig14")

#: name -> unit
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sweep_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "sim.event_loop_s": "s",
    "sim.world_build_s": "s",
    "sim.world_runs": "count",
    "sim.event_loop_points": "count",
    "sim.internode_messages": "count",
    "sched.plan_s": "s",
    "sched.plan_calls": "count",
    "sched.dag_s": "s",
    "sched.dag_points": "count",
    "sched.batch_s": "s",
    "sched.batch_columns": "count",
    "sched.batch_sizes": "count",
    "sched.batch_fallback_sizes": "count",
    "sched.batch_fallback_s": "s",
    "sched.batch_accept_ratio": "ratio",
    "sched.lowering_hits": "count",
    "sched.lowering_misses": "count",
    "runner.point_units": "count",
    "runner.column_units": "count",
    "runner.column_route_share": "ratio",
    "runner.self_s": "s",
    "runner.pool_map_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.flush_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "store.shards": "count",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.coalesced": "count",
    "serve.evaluations": "count",
    "serve.errors": "count",
    "serve.timeouts": "count",
    "serve.rejected": "count",
    "serve.client_codec_s": "s",
    "serve.repeat_latency_p50_ms": "ms",
    "serve.novel_latency_p50_ms": "ms",
    "serve.repeat_point_share": "ratio",
    "serve.daemon_tracebacks": "count",
    "serve.daemon_exit_code": "code",
    **{f"figures.{name}_s": "s" for name in FIGURES},
    "figures.self_s": "s",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def zero_layer_metrics() -> Dict[str, float]:
    return {name: 0 for name in PER_LAYER}


def store_metrics(cache: dict, own: Dict[str, float]) -> Dict[str, float]:
    """The ``store.*`` metrics from ``ResultCache.stats()`` and the self
    times of the ``store.*`` spans."""
    lookups = cache["hits"] + cache["misses"]
    return {
        "store.get_s": own.get("store.get", 0.0),
        "store.put_s": own.get("store.put", 0.0),
        "store.flush_s": own.get("store.flush", 0.0),
        "store.hits": cache["hits"],
        "store.misses": cache["misses"],
        "store.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "store.bytes_read": cache["bytes_read"],
        "store.bytes_written": cache["bytes_written"],
        "store.shards": cache["shards"],
    }


def metrics_doc(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    """``{name: {"value": v, "unit": u}}`` for exactly the names in
    ``units``; a missing value is an error, not a silent 0."""
    missing: List[str] = [n for n in units if n not in values]
    extra = [n for n in values if n not in units]
    if missing or extra:
        raise KeyError(f"metrics missing {missing}, unknown {extra}")
    return {n: {"value": values[n], "unit": units[n]} for n in units}
