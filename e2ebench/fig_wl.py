"""The figure workloads: cold ``--scale small`` sweeps of all ten figures.

Each repetition is a fresh interpreter running ``figrun.py`` on an empty
store directory.  The figure grid is fixed, so the seed does not change
these workloads' inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

from check import figure_mismatches
from metrics import (FIGURES, median, percentile, store_metrics,
                     zero_layer_metrics)
from spans import durations, self_times

__all__ = ["run_sweep", "check_sweep", "measure", "traced"]

_FIGRUN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "figrun.py")
#: pool width of the measured sweeps, fixed so that runs on machines with
#: other CPU counts do the same work
JOBS = 2
SWEEP_TIMEOUT_S = 150


def run_sweep(workdir: str, tag: str, engine: str, jobs: int, env: dict,
              trace: str = "none") -> dict:
    """Run ``figrun.py`` once and return its document, plus ``setup_s``
    (spawn until the runner exists) and, when traced, its spans."""
    store = os.path.join(workdir, f"store-{tag}")
    out = os.path.join(workdir, f"sweep-{tag}.json")
    spans_path = os.path.join(workdir, f"spans-{tag}.json")
    cmd = [sys.executable, _FIGRUN, "--engine", engine, "--jobs", str(jobs),
           "--store", store, "--out", out, "--trace", trace]
    if trace != "none":
        cmd += ["--spans", spans_path]
    t_spawn = time.monotonic()
    subprocess.run(cmd, env=env, check=True, timeout=SWEEP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(out) as fh:
        doc = json.load(fh)
    doc["setup_s"] = doc["t_ready"] - t_spawn
    if trace != "none":
        with open(spans_path) as fh:
            doc.update(json.load(fh))
    shutil.rmtree(store, ignore_errors=True)
    return doc


def check_sweep(doc: dict, reference: dict) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)``: one operation per figure."""
    problems: List[str] = []
    failed = 0
    for name in FIGURES:
        fig = doc["figures"].get(name)
        if fig is None:
            found = [f"{name}: missing"]
        else:
            found = figure_mismatches(reference, name, fig["series"],
                                      fig["internode_messages"])
        if found:
            failed += 1
            problems.extend(found)
    return len(FIGURES), failed, problems


def measure(workdir: str, engine: str, env: dict, seconds: float,
            reference: dict) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Untraced repetitions until the next one would end after
    ``seconds``; end-to-end metrics are medians over repetitions."""
    docs: List[dict] = []
    attempted = failed = 0
    problems: List[str] = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        try:
            doc = run_sweep(workdir, f"r{len(docs)}", engine, JOBS, env)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            attempted += len(FIGURES)
            failed += len(FIGURES)
            problems.append(f"sweep failed: {exc!r}")
            break
        a, f, p = check_sweep(doc, reference)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        docs.append(doc)
        rep = time.monotonic() - start
        if time.monotonic() - t0 + rep > seconds:
            break
    if not docs:
        return {}, attempted, failed, problems
    # a request is one cold regeneration of the figure set, as one
    # ``record`` invocation: from process spawn to the last figure
    latencies = [d["setup_s"] + d["sweep_s"] for d in docs]
    values = {
        "setup_s": median([d["setup_s"] for d in docs]),
        "sweep_s": median([d["sweep_s"] for d in docs]),
        "req_per_s": median([1.0 / t for t in latencies]),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": median([d["peak_rss_kb"] / 1024 for d in docs]),
    }
    return values, attempted, failed, problems


def traced(workdir: str, engine: str, env: dict,
           reference: dict) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Per-layer metrics: a traced ``jobs=1`` sweep between two untraced
    ones (the tracing overhead is its difference from their mean, so a
    drift in machine speed cancels) plus a ``jobs=2`` sweep that times
    the pool map from the parent."""
    attempted = failed = 0
    problems: List[str] = []
    docs = {}
    for tag, jobs, trace in (("plain", 1, "none"), ("layers", 1, "layers"),
                             ("plain2", 1, "none"), ("pool", JOBS, "pool")):
        docs[tag] = run_sweep(workdir, tag, engine, jobs, env, trace)
        a, f, p = check_sweep(docs[tag], reference)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)

    doc = docs["layers"]
    spans = doc["spans"]
    own = self_times(spans)
    calls = Counter(name for _, _, name, _, _ in spans)
    inclusive = durations(spans)
    counters = doc["counters"]
    cache = doc["cache"]

    m = zero_layer_metrics()
    m["sim.event_loop_s"] = own.get("sim.event_loop", 0.0)
    m["sim.world_build_s"] = own.get("sim.world_build", 0.0)
    m["sim.world_runs"] = calls["sim.event_loop"]
    m["sim.event_loop_points"] = calls["sim.world_build"]
    m["sim.internode_messages"] = doc["event_loop_internode"]
    m["sched.plan_s"] = own.get("sched.plan", 0.0)
    m["sched.plan_calls"] = calls["sched.plan"]
    m["sched.dag_s"] = own.get("sched.dag", 0.0)
    m["sched.dag_points"] = calls["sched.dag"]
    m["sched.batch_s"] = own.get("sched.batch", 0.0)
    m["sched.batch_columns"] = calls["sched.batch"]
    sizes = counters.get("sched.batch", 0)
    m["sched.batch_sizes"] = sizes
    m["sched.batch_fallback_sizes"] = calls["sched.batch_fallback"]
    m["sched.batch_fallback_s"] = own.get("sched.batch_fallback", 0.0)
    m["sched.batch_accept_ratio"] = (
        1.0 - calls["sched.batch_fallback"] / sizes if sizes else 0.0)
    m["sched.lowering_hits"] = doc["lowering"]["hits"]
    m["sched.lowering_misses"] = doc["lowering"]["misses"]
    m["runner.point_units"] = calls["runner.point"]
    m["runner.column_units"] = calls["runner.column"]
    column_points = counters.get("runner.column", 0)
    evaluated = column_points + calls["runner.point"]
    m["runner.column_route_share"] = (
        column_points / evaluated if evaluated else 0.0)
    m["runner.self_s"] = sum(own.get(n, 0.0) for n in (
        "runner.run", "runner.point", "runner.column"))
    m["runner.pool_map_s"] = durations(docs["pool"]["spans"]).get(
        "runner.pool_map", 0.0)
    m.update(store_metrics(cache, own))
    for name in FIGURES:
        m[f"figures.{name}_s"] = inclusive.get(f"figures.{name}", 0.0)
    attributed = sum(v for n, v in own.items()
                     if not n.startswith("figures."))
    m["figures.self_s"] = doc["sweep_s"] - attributed
    m["trace.sweep_s"] = doc["sweep_s"]
    m["trace.overhead_s"] = doc["sweep_s"] - median(
        [docs["plain"]["sweep_s"], docs["plain2"]["sweep_s"]])
    return m, attempted, failed, problems
