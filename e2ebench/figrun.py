"""One cold figure sweep in a fresh interpreter.

``run.py`` starts this file once per repetition, so the planner, lowering
and result caches start empty every time, as they do for a user running
``python -m repro.bench.record``.  It makes the same calls ``record``
makes: ``ALL_FIGURES[name](scale, runner)`` on a ``SweepRunner``, then
``format_table``/``format_normalized``.  It writes one JSON document with
its timings, the figures' series and simulated internode-message totals,
and, in a traced run, the spans it recorded.

Usage (from the repository root)::

    python e2ebench/figrun.py --engine auto --jobs 2 --store DIR \\
        --out result.json [--trace layers|pool --spans spans.json]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Spans  # noqa: E402


def _install_layer_spans(spans: Spans) -> None:
    """Spans around the calls into each layer (see README.md)."""
    import repro.bench.microbench as microbench
    import repro.bench.runner.pool as pool
    import repro.sched.batch as batch
    import repro.sched.fastpath as fastpath
    import repro.sched.registry as registry
    from repro.bench.runner.cache import ResultCache
    from repro.mpi.runtime import World

    for owner in (registry, batch, fastpath):
        spans.wrap(owner, "plan_for", "sched.plan")
    spans.wrap(microbench, "_dag_evaluate_point", "sched.dag")
    spans.wrap(batch, "evaluate_column", "sched.batch",
               count=lambda args, kwargs: len(args[4]))
    spans.wrap(batch, "_dag_evaluate_point", "sched.batch_fallback")
    spans.wrap(World, "__init__", "sim.world_build")
    spans.wrap(World, "run", "sim.event_loop")
    spans.wrap(pool, "run_point_spec", "runner.point")
    spans.wrap(pool, "run_sweep_column_stats", "runner.column",
               count=lambda args, kwargs: len(args[0]))
    spans.wrap(pool.SweepRunner, "run", "runner.run")
    for attr in ("get", "get_many"):
        spans.wrap(ResultCache, attr, "store.get")
    for attr in ("put", "put_many"):
        spans.wrap(ResultCache, attr, "store.put")
    spans.wrap(ResultCache, "flush", "store.flush")


def _install_world_counter(counter: dict) -> None:
    """Count simulated internode messages of every event-loop world run
    in this process (fig01 builds its worlds outside the runner)."""
    from repro.mpi.runtime import World

    original = World.run

    def run(self, body):
        before = self.hw.total_internode_messages()
        try:
            return original(self, body)
        finally:
            counter["internode"] += (
                self.hw.total_internode_messages() - before)

    World.run = run


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", choices=("none", "layers", "pool"),
                        default="none")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.bench.config import SCALES
    from repro.bench.figures import ALL_FIGURES
    from repro.bench.report import format_normalized, format_table
    from repro.bench.runner import ResultCache, SweepRunner

    recorded = []

    class RecordingRunner(SweepRunner):
        """Keeps every result the figures' sweeps return."""

        def run(self, points):
            results = super().run(points)
            recorded.extend(results)
            return results

    spans = Spans()
    if args.trace == "layers":
        _install_layer_spans(spans)
    elif args.trace == "pool":
        import repro.bench.runner.pool as pool

        spans.wrap(pool.SweepRunner, "_map_pool", "runner.pool_map")
    world_counter = {"internode": 0}
    _install_world_counter(world_counter)

    scale = SCALES["small"]
    runner = RecordingRunner(
        jobs=args.jobs, use_cache=True, cache=ResultCache(args.store),
        engine=args.engine,
    )
    t_ready = time.monotonic()

    figures = {}
    t0 = time.perf_counter()
    for name, make in ALL_FIGURES.items():
        recorded.clear()
        before = world_counter["internode"]
        with spans.span(f"figures.{name}"):
            # what ``record`` prints; run.py sends it to /dev/null
            result = make(scale=scale, runner=runner)
            print(format_table(result))
            if "PiP-MColl" in result.series:
                print(format_normalized(result))
                print(f"   best speedup vs fastest other library: "
                      f"{result.best_speedup_vs_fastest_other():.2f}x")
        if recorded:
            internode = sum(r.internode_messages for r in recorded)
        else:
            internode = world_counter["internode"] - before
        figures[name] = {
            "series": result.series,
            "internode_messages": internode,
        }
    sweep_s = time.perf_counter() - t0

    doc = {
        "t_ready": t_ready,
        "sweep_s": sweep_s,
        "figures": figures,
        "cache": runner.cache.stats(),
        "lowering": runner.lowering_cache_totals(),
        "event_loop_internode": world_counter["internode"],
        "peak_rss_kb": _peak_rss_kb(),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    if args.spans:
        spans.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
