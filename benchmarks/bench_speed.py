"""Engine speed benchmark: event loop vs DAG fast path vs batch engine.

Times ``repro.bench.microbench.run_point`` wall-clock for both scalar
engines on a fixed planner-backed grid, asserts the results are
bit-identical, and records per-point and aggregate speedups in
``BENCH_fastpath.json`` at the repository root — the provenance for the
numbers quoted in DESIGN.md.

``--batch`` switches to the column benchmark: full message-size axes
(eighth-octave, 16 B to 512 KB — 121 sizes) on representative registry
columns, timed through the event loop (per point), the DAG engine (per
point) and the batch engine (one ``evaluate_column`` call), with
bit-identity asserted per (point, size).  Per-column and aggregate
points/sec land in ``BENCH_batch.json``.

Every rep is a complete fresh evaluation (world construction included);
``best-of-N`` wall times are reported because the shared CI boxes are
noisy.  Planner ``lru_cache``s — and, for the batch engine, the lowering
cache — are warm after the first rep on both sides, the same steady state
a figure sweep runs in.

Usage::

    python benchmarks/bench_speed.py                 # full grid -> JSON
    python benchmarks/bench_speed.py --smoke         # CI gate: tiny grid,
                                                     # exit 1 unless the DAG
                                                     # engine is faster
    python benchmarks/bench_speed.py --batch         # column grid -> JSON
    python benchmarks/bench_speed.py --batch --smoke # CI gate: one column,
                                                     # exit 1 unless batch
                                                     # beats dag
    python benchmarks/bench_speed.py --store         # cached-column read
                                                     # throughput, shards vs
                                                     # per-file JSON ->
                                                     # BENCH_store.json
    python benchmarks/bench_speed.py --store --smoke # CI gate: exit 1
                                                     # unless store >= 2x
    python benchmarks/bench_speed.py --serve         # warm daemon vs cold
                                                     # CLI latency ->
                                                     # BENCH_serve.json
    python benchmarks/bench_speed.py --serve --smoke # CI gate: exit 1
                                                     # unless warm >= 2x

(The file matches the ``bench_*.py`` pytest glob but defines no tests; it
is a command-line tool.)
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.bench.microbench import run_point

#: (library, collective, nodes, ppn, msg_bytes) — a representative slice of
#: the planner-backed surface: every registry library, all three
#: collectives, small/medium/large sizes, two node shapes.
GRID = (
    ("PiP-MColl", "scatter", 4, 8, 16384),
    ("PiP-MColl", "allgather", 4, 8, 512),
    ("PiP-MColl", "allgather", 4, 8, 65536),
    ("PiP-MColl", "allreduce", 4, 8, 512),
    ("PiP-MColl", "allreduce", 4, 8, 65536),
    ("PiP-MColl", "allreduce", 4, 8, 262144),
    ("PiP-MColl-small", "allreduce", 4, 8, 32768),
    ("PiP-MColl-small", "allgather", 2, 16, 8192),
    ("PiP-MPICH", "allgather", 4, 8, 512),
    ("PiP-MPICH", "allgather", 4, 8, 131072),
    ("OpenMPI", "allgather", 4, 8, 65536),
    ("OpenMPI", "allgather", 2, 16, 4096),
)

SMOKE_GRID = (
    ("PiP-MColl", "allreduce", 2, 4, 512),
    ("PiP-MColl", "allgather", 2, 4, 32768),
    ("PiP-MPICH", "allgather", 2, 4, 4096),
)

#: (library, collective, nodes, ppn) — the column benchmark sweeps the
#: full size axis for each of these.  One column per registry library,
#: plus the collective spread on the paper's own library.
BATCH_COLUMNS = (
    ("PiP-MColl", "scatter", 4, 8),
    ("PiP-MColl", "allgather", 4, 8),
    ("PiP-MColl", "allreduce", 4, 8),
    ("PiP-MPICH", "allgather", 2, 8),
    ("OpenMPI", "allgather", 2, 16),
)

#: eighth-octave axis, 16 B .. 512 KB — denser than any figure needs, the
#: regime the batch engine exists for (121 sizes, one pass)
BATCH_AXIS = tuple(sorted({int(16 * 2 ** (k / 8)) for k in range(121)}))

BATCH_SMOKE_COLUMNS = (("PiP-MColl", "allgather", 2, 4),)
BATCH_SMOKE_AXIS = tuple(sorted({int(16 * 2 ** (k / 4)) for k in range(33)}))


def parse_columns(text: str):
    """Parse ``--columns "PiP-MColl/allgather/2x4,..."`` into column specs."""
    specs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split("/")
        if len(parts) != 3 or "x" not in parts[2]:
            raise ValueError(
                f"bad column spec {item!r}; expected LIB/COLLECTIVE/NxP"
            )
        lib, coll, shape = parts
        nodes_text, ppn_text = shape.split("x", 1)
        specs.append((lib, coll, int(nodes_text), int(ppn_text)))
    if not specs:
        raise ValueError("--columns selected no columns")
    return tuple(specs)


def _time_point(spec, engine: str, reps: int) -> tuple[float, object]:
    """Best-of-``reps`` wall seconds for one fresh-world evaluation."""
    lib, coll, nodes, ppn, nbytes = spec
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_point(lib, coll, nodes, ppn, nbytes, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_grid(grid, reps: int):
    """Measure every point on both engines; returns (rows, mismatches)."""
    rows = []
    mismatches = []
    for spec in grid:
        event_s, event_res = _time_point(spec, "event", reps)
        dag_s, dag_res = _time_point(spec, "dag", reps)
        if event_res != dag_res:
            mismatches.append(spec)
        lib, coll, nodes, ppn, nbytes = spec
        rows.append({
            "library": lib,
            "collective": coll,
            "nodes": nodes,
            "ppn": ppn,
            "msg_bytes": nbytes,
            "event_s": event_s,
            "dag_s": dag_s,
            "speedup": event_s / dag_s,
        })
        print(
            f"  {lib:>15} {coll:<9} {nodes}x{ppn:<2} {nbytes:>6}B  "
            f"event {event_s * 1e3:8.2f}ms  dag {dag_s * 1e3:8.2f}ms  "
            f"{event_s / dag_s:5.2f}x",
            flush=True,
        )
    return rows, mismatches


def _time_column(spec, axis, engine: str, reps: int):
    """Best-of-``reps`` wall seconds for one full-axis column sweep."""
    from repro.sched.batch import evaluate_column

    lib, coll, nodes, ppn = spec
    best = float("inf")
    results = None
    for _ in range(reps):
        t0 = time.perf_counter()
        if engine == "batch":
            col = evaluate_column(lib, coll, nodes, ppn, axis)
            results = {
                s: (r.samples, r.internode_messages)
                for s, r in col.results.items()
            }
        else:
            results = {}
            for s in axis:
                r = run_point(lib, coll, nodes, ppn, s, engine=engine)
                results[s] = (r.samples, r.internode_messages)
        best = min(best, time.perf_counter() - t0)
    return best, results


def run_batch_grid(columns, axis, reps: int, with_event: bool):
    """Time every column on each engine; returns (rows, mismatch specs)."""
    rows = []
    mismatches = []
    for spec in columns:
        lib, coll, nodes, ppn = spec
        dag_s, dag_res = _time_column(spec, axis, "dag", reps)
        batch_s, batch_res = _time_column(spec, axis, "batch", reps)
        bad = [s for s in axis if batch_res[s] != dag_res[s]]
        if bad:
            mismatches.append((spec, bad))
        row = {
            "library": lib,
            "collective": coll,
            "nodes": nodes,
            "ppn": ppn,
            "sizes": len(axis),
            "dag_s": dag_s,
            "batch_s": batch_s,
            "batch_vs_dag": dag_s / batch_s,
        }
        line = (
            f"  {lib:>15} {coll:<9} {nodes}x{ppn:<2} {len(axis)} sizes  "
            f"dag {dag_s * 1e3:8.1f}ms  batch {batch_s * 1e3:8.1f}ms  "
            f"{dag_s / batch_s:5.2f}x"
        )
        if with_event:
            event_s, event_res = _time_column(spec, axis, "event", reps)
            if any(event_res[s] != dag_res[s] for s in axis):
                mismatches.append((spec, ["event-vs-dag"]))
            row["event_s"] = event_s
            row["batch_vs_event"] = event_s / batch_s
            line += f"  ({event_s / batch_s:5.1f}x vs event)"
        rows.append(row)
        print(line, flush=True)
    return rows, mismatches


def _time_analytic_column(spec, axis, reps: int):
    """Best-of-``reps`` wall seconds for one closed-form axis evaluation."""
    from repro.sched.analytic import evaluate_axis

    lib, coll, nodes, ppn = spec
    best = float("inf")
    col = None
    for _ in range(reps):
        t0 = time.perf_counter()
        col = evaluate_axis(lib, coll, nodes, ppn, axis)
        best = min(best, time.perf_counter() - t0)
    return best, col


def run_analytic_mode(args) -> int:
    """``--analytic``: closed-form tier vs the DAG engine on full axes.

    No bit-identity (the analytic tier is approximate); instead the
    per-column maximum relative error vs DAG is recorded and checked
    against the documented bound.
    """
    from repro.sched.analytic import ERROR_BOUND

    if args.columns:
        columns = parse_columns(args.columns)
    else:
        columns = BATCH_SMOKE_COLUMNS if args.smoke else BATCH_COLUMNS
    axis = BATCH_SMOKE_AXIS if args.smoke else BATCH_AXIS
    reps = args.reps if args.reps is not None else (2 if args.smoke else 3)
    print(
        f"analytic speed: {len(columns)} columns x {len(axis)} sizes, "
        f"best of {reps} reps each"
    )
    rows = []
    violations = []
    for spec in columns:
        lib, coll, nodes, ppn = spec
        dag_s, dag_res = _time_column(spec, axis, "dag", reps)
        an_s, col = _time_analytic_column(spec, axis, reps)
        errs = [
            abs(col.results[s].time / dag_res[s][0][-1] - 1.0) for s in axis
        ]
        max_err = max(errs)
        if max_err >= ERROR_BOUND:
            violations.append((spec, max_err))
        rows.append({
            "library": lib,
            "collective": coll,
            "nodes": nodes,
            "ppn": ppn,
            "sizes": len(axis),
            "dag_s": dag_s,
            "analytic_s": an_s,
            "analytic_vs_dag": dag_s / an_s,
            "max_rel_err": max_err,
            "median_rel_err": statistics.median(errs),
        })
        print(
            f"  {lib:>15} {coll:<9} {nodes}x{ppn:<2} {len(axis)} sizes  "
            f"dag {dag_s * 1e3:8.1f}ms  analytic {an_s * 1e3:8.3f}ms  "
            f"{dag_s / an_s:7.0f}x  (max err {max_err:.1%})",
            flush=True,
        )
    if violations:
        print(f"FAIL: error bound ({ERROR_BOUND:.0%}) violated:")
        for spec, err in violations:
            print(f"  {spec}: {err:.1%}")
        return 1

    npoints = sum(r["sizes"] for r in rows)
    dag_total = sum(r["dag_s"] for r in rows)
    an_total = sum(r["analytic_s"] for r in rows)
    aggregate = {
        "points": npoints,
        "dag_points_per_sec": npoints / dag_total,
        "analytic_points_per_sec": npoints / an_total,
        "analytic_vs_dag": dag_total / an_total,
        "max_rel_err": max(r["max_rel_err"] for r in rows),
        "error_bound": ERROR_BOUND,
    }
    print(
        f"aggregate: dag {aggregate['dag_points_per_sec']:.1f} pts/s, "
        f"analytic {aggregate['analytic_points_per_sec']:.0f} pts/s -> "
        f"{aggregate['analytic_vs_dag']:.0f}x vs dag "
        f"(max rel err {aggregate['max_rel_err']:.1%})"
    )

    if args.smoke:
        if aggregate["analytic_vs_dag"] < 50:
            print("FAIL: analytic tier under 50x vs dag")
            return 1
        print("smoke ok: analytic within error bound and >= 50x vs dag")
        return 0

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_analytic.json"
    )
    doc = {
        "benchmark": "analytic-closed-form-vs-dag-engine",
        "python": sys.version.split()[0],
        "reps": reps,
        "protocol": (
            "best-of-reps wall time per column; axis = eighth-octave "
            "16B..512KB (121 sizes); dag = one fresh run_point per size, "
            "analytic = one vectorized evaluate_axis call; approximate "
            "tier - per-size relative error vs dag recorded and gated at "
            "the documented bound instead of bit-identity"
        ),
        "columns": rows,
        "aggregate": aggregate,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


#: the column the store benchmark reads back (any planner-backed column
#: works; the measurement is pure cache I/O, not simulation)
STORE_COLUMN = ("PiP-MColl", "allgather", 4, 8)
STORE_SMOKE_COLUMN = ("PiP-MColl", "allgather", 2, 4)


def run_store_mode(args) -> int:
    """``--store``: cached-column read throughput, shards vs per-file JSON.

    Evaluates one full-axis column once (batch engine), persists it both
    ways — the columnar shard store and the pre-1.4.0 one-JSON-file-per-
    point layout (reconstructed locally as the baseline; the production
    JSON fallback was removed in 1.5.0) — then times reading every point
    back from cold cache objects.  Bit-identity of both read paths is
    asserted; the points/sec ratio lands in ``BENCH_store.json`` (the
    provenance for the >= 5x store-vs-JSON figure in DESIGN.md).
    """
    import shutil
    import tempfile

    from repro.bench.runner.cache import (
        CACHE_EPOCH,
        ResultCache,
        cache_key,
        result_from_doc,
        result_to_doc,
    )
    from repro.bench.runner.points import Point
    from repro.bench.runner.pool import run_sweep_column

    def json_point_path(root, key):
        return root / key[:2] / f"{key}.json"

    def write_json_point(root, point, result):
        # the pre-1.4.0 per-point layout, byte for byte
        path = json_point_path(root, cache_key(point))
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"version": CACHE_EPOCH, **result_to_doc(result)}
        path.write_bytes(json.dumps(doc, separators=(",", ":")).encode())

    spec = STORE_SMOKE_COLUMN if args.smoke else STORE_COLUMN
    axis = BATCH_SMOKE_AXIS if args.smoke else BATCH_AXIS
    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)
    lib, coll, nodes, ppn = spec
    points = [
        Point(lib, coll, nodes, ppn, s, engine="batch") for s in axis
    ]
    print(
        f"store speed: {lib} {coll} {nodes}x{ppn}, {len(axis)}-size axis, "
        f"best of {reps} reps each"
    )
    results = run_sweep_column(points)

    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        # populate both layouts (timed once each: write-side comparison)
        json_root = workdir / "json"
        t0 = time.perf_counter()
        for p, r in zip(points, results):
            write_json_point(json_root, p, r)
        json_write_s = time.perf_counter() - t0

        store_root = workdir / "store"
        writer = ResultCache(store_root)
        t0 = time.perf_counter()
        writer.put_many(points, results)
        store_write_s = time.perf_counter() - t0

        # read-side: fresh cache objects per rep (cold in-memory index;
        # the OS page cache is warm on both sides).  The JSON loop is the
        # faithful pre-1.4.0 ``ResultCache.get`` path: hash the point spec
        # into its key, then stat+open+parse that point's file — the old
        # layout had no column grouping, so it paid the spec hash on
        # every point of every read.  The store path pays its (memoized)
        # column hash inside ``get_many`` just like real sweeps do.
        json_read_s = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            json_back = [
                result_from_doc(
                    json.loads(
                        json_point_path(json_root, cache_key(p)).read_bytes()
                    )
                )
                for p in points
            ]
            json_read_s = min(json_read_s, time.perf_counter() - t0)

        store_read_s = float("inf")
        for _ in range(reps):
            reader = ResultCache(store_root)
            t0 = time.perf_counter()
            store_back = reader.get_many(points)
            store_read_s = min(store_read_s, time.perf_counter() - t0)

        if json_back != results or store_back != results:
            print("FAIL: read-back is not bit-identical to the computed "
                  "column")
            return 1
        shard_count = ResultCache(store_root).store.shard_count()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    npoints = len(axis)
    aggregate = {
        "points": npoints,
        "json_points_per_sec": npoints / json_read_s,
        "store_points_per_sec": npoints / store_read_s,
        "store_vs_json": json_read_s / store_read_s,
        "json_write_s": json_write_s,
        "store_write_s": store_write_s,
    }
    print(
        f"  json   read {json_read_s * 1e3:8.2f}ms "
        f"({aggregate['json_points_per_sec']:10.0f} pts/s, "
        f"{npoints} files)  write {json_write_s * 1e3:8.2f}ms"
    )
    print(
        f"  store  read {store_read_s * 1e3:8.2f}ms "
        f"({aggregate['store_points_per_sec']:10.0f} pts/s, "
        f"{shard_count} shards)  write {store_write_s * 1e3:8.2f}ms"
    )
    print(
        f"aggregate: store {aggregate['store_vs_json']:.1f}x vs per-file "
        f"JSON on cached-column reads"
    )

    if args.smoke:
        # the full-axis committed figure is >= 5x; the smoke axis is
        # shorter (fixed per-read overheads weigh more), so gate lower —
        # high enough that a real layout regression still fails
        if aggregate["store_vs_json"] < 2.0:
            print("FAIL: store reads under 2x the per-file JSON baseline")
            return 1
        print("smoke ok: read-back bit-identical, store faster than JSON")
        return 0

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_store.json"
    )
    doc = {
        "benchmark": "columnar-store-vs-per-file-json-cache",
        "python": sys.version.split()[0],
        "reps": reps,
        "protocol": (
            "one full-axis column evaluated once (batch engine), persisted "
            "as columnar npz shards and as the legacy one-JSON-file-per-"
            "point layout; best-of-reps wall time reading every point back "
            "through a cold cache object per rep; bit-identical read-back "
            "asserted on both paths"
        ),
        "column": {
            "library": lib, "collective": coll, "nodes": nodes, "ppn": ppn,
            "sizes": npoints,
        },
        "aggregate": aggregate,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


#: the column the serve benchmark sweeps — reuse the store benchmark's
#: planner-backed column; the measurement is daemon amortization, not
#: simulation speed
SERVE_COLUMN = STORE_COLUMN
SERVE_SMOKE_COLUMN = STORE_SMOKE_COLUMN

#: the cold baseline: what one CLI invocation of the sweep actually costs —
#: interpreter start, imports, world construction, evaluation — run as a
#: real child process, results printed for the bit-identity check
_COLD_CHILD = """\
import json, sys
from repro.bench.runner import Point, SweepRunner
from repro.serve.protocol import result_to_doc
lib, coll = sys.argv[1], sys.argv[2]
nodes, ppn = int(sys.argv[3]), int(sys.argv[4])
points = [
    Point(lib, coll, nodes, ppn, int(s), engine="batch")
    for s in sys.argv[5].split(",")
]
results = SweepRunner(jobs=1, use_cache=False).run(points)
json.dump([result_to_doc(r) for r in results], sys.stdout)
"""


def run_serve_mode(args) -> int:
    """``--serve``: warm-daemon sweep latency vs the cold-CLI baseline.

    Cold = a fresh ``python`` child per rep running the column through
    ``SweepRunner`` (the pre-daemon workflow: every invocation pays
    interpreter start, imports and evaluation).  Warm = one resident
    ``python -m repro.serve`` daemon on a unix socket, already warmed by
    a first sweep, answering the same column over the wire from its
    in-memory cache.  Bit-identity of cold child, warm daemon and the
    in-process runner is asserted; the latency ratio lands in
    ``BENCH_serve.json``.
    """
    import os
    import shutil
    import subprocess
    import tempfile

    from repro.bench.runner import Point, SweepRunner
    from repro.serve import SweepClient, wait_until_ready
    from repro.serve.protocol import result_from_doc

    spec = SERVE_SMOKE_COLUMN if args.smoke else SERVE_COLUMN
    axis = BATCH_SMOKE_AXIS if args.smoke else BATCH_AXIS
    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)
    lib, coll, nodes, ppn = spec
    points = [
        Point(lib, coll, nodes, ppn, s, engine="batch") for s in axis
    ]
    print(
        f"serve speed: {lib} {coll} {nodes}x{ppn}, {len(axis)}-size axis, "
        f"best of {reps} reps each"
    )
    reference = SweepRunner(jobs=1, use_cache=False).run(points)

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    sizes_arg = ",".join(str(s) for s in axis)

    cold_s = float("inf")
    cold_back = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _COLD_CHILD,
             lib, coll, str(nodes), str(ppn), sizes_arg],
            env=env, cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        cold_s = min(cold_s, time.perf_counter() - t0)
        cold_back = [result_from_doc(d) for d in json.loads(out)]

    workdir = Path(tempfile.mkdtemp(prefix="bench_serve_"))
    proc = None
    try:
        sock = str(workdir / "daemon.sock")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--listen", sock,
             "--jobs", "1", "--cache-dir", str(workdir / "cache")],
            env=env, cwd=root, stderr=subprocess.DEVNULL,
        )
        wait_until_ready(sock, deadline=30.0)
        startup_s = time.perf_counter() - t0

        with SweepClient(sock) as client:
            t0 = time.perf_counter()
            warming = client.sweep(points)  # first contact: evaluates
            warming_s = time.perf_counter() - t0
            warm_s = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                warm_back = client.sweep(points)  # steady state: hits
                warm_s = min(warm_s, time.perf_counter() - t0)
            stats = client.stats()["daemon"]
            client.shutdown()
        proc.wait(timeout=30)
        proc = None
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    if not (cold_back == warming == warm_back == reference):
        print("FAIL: daemon results are not bit-identical to the "
              "cold CLI / in-process runner")
        return 1
    if stats["evaluations"] != 1:
        print(f"FAIL: warm repeats re-evaluated "
              f"(evaluations={stats['evaluations']}, expected 1)")
        return 1

    npoints = len(axis)
    aggregate = {
        "points": npoints,
        "cold_cli_s": cold_s,
        "warm_daemon_s": warm_s,
        "warm_vs_cold": cold_s / warm_s,
        "daemon_startup_s": startup_s,
        "first_sweep_s": warming_s,
        "warm_points_per_sec": npoints / warm_s,
    }
    print(
        f"  cold CLI    {cold_s * 1e3:8.1f}ms per sweep "
        f"(fresh interpreter + evaluation)"
    )
    print(
        f"  warm daemon {warm_s * 1e3:8.1f}ms per sweep "
        f"({aggregate['warm_points_per_sec']:10.0f} pts/s; startup "
        f"{startup_s * 1e3:.0f}ms, first sweep {warming_s * 1e3:.0f}ms)"
    )
    print(
        f"aggregate: warm daemon {aggregate['warm_vs_cold']:.1f}x vs cold "
        f"CLI on repeated column sweeps"
    )

    floor = 2.0 if args.smoke else 5.0
    if aggregate["warm_vs_cold"] < floor:
        print(f"FAIL: warm daemon under {floor:.0f}x the cold-CLI baseline")
        return 1
    if args.smoke:
        print("smoke ok: bit-identical over the wire, daemon >= 2x cold CLI")
        return 0

    out = Path(args.out) if args.out else (root / "BENCH_serve.json")
    doc = {
        "benchmark": "warm-serve-daemon-vs-cold-cli-sweep",
        "python": sys.version.split()[0],
        "reps": reps,
        "protocol": (
            "cold = best-of-reps wall time of a fresh python child running "
            "the column through SweepRunner (interpreter start + imports + "
            "evaluation); warm = best-of-reps wall time of client.sweep "
            "against a resident python -m repro.serve daemon on a unix "
            "socket after one warming sweep (in-memory cache hits over the "
            "wire); bit-identical results asserted across cold child, warm "
            "daemon and the in-process runner"
        ),
        "column": {
            "library": lib, "collective": coll, "nodes": nodes, "ppn": ppn,
            "sizes": npoints,
        },
        "daemon_stats": {
            k: stats[k] for k in (
                "requests", "sweeps", "points", "hits", "misses",
                "coalesced", "evaluations",
            )
        },
        "aggregate": aggregate,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def run_batch_mode(args) -> int:
    if args.columns:
        columns = parse_columns(args.columns)
    else:
        columns = BATCH_SMOKE_COLUMNS if args.smoke else BATCH_COLUMNS
    axis = BATCH_SMOKE_AXIS if args.smoke else BATCH_AXIS
    reps = args.reps if args.reps is not None else (2 if args.smoke else 3)
    with_event = not args.smoke
    print(
        f"column speed: {len(columns)} columns x {len(axis)} sizes, "
        f"best of {reps} reps each"
    )
    rows, mismatches = run_batch_grid(columns, axis, reps, with_event)

    if mismatches:
        print(f"FAIL: engines disagree on {len(mismatches)} columns:")
        for spec, bad in mismatches:
            print(f"  {spec}: {bad[:8]}{'...' if len(bad) > 8 else ''}")
        return 1

    npoints = sum(r["sizes"] for r in rows)
    dag_total = sum(r["dag_s"] for r in rows)
    batch_total = sum(r["batch_s"] for r in rows)
    ratios = [r["batch_vs_dag"] for r in rows]
    aggregate = {
        "points": npoints,
        "dag_points_per_sec": npoints / dag_total,
        "batch_points_per_sec": npoints / batch_total,
        "batch_vs_dag": dag_total / batch_total,
        "per_column_min": min(ratios),
        "per_column_median": statistics.median(ratios),
        "per_column_max": max(ratios),
    }
    if with_event:
        event_total = sum(r["event_s"] for r in rows)
        aggregate["event_points_per_sec"] = npoints / event_total
        aggregate["batch_vs_event"] = event_total / batch_total
    print(
        f"aggregate: dag {aggregate['dag_points_per_sec']:.1f} pts/s, "
        f"batch {aggregate['batch_points_per_sec']:.1f} pts/s -> "
        f"{aggregate['batch_vs_dag']:.2f}x vs dag "
        f"(per-column min {aggregate['per_column_min']:.2f}x / "
        f"median {aggregate['per_column_median']:.2f}x / "
        f"max {aggregate['per_column_max']:.2f}x)"
        + (
            f"; {aggregate['batch_vs_event']:.1f}x vs event"
            if with_event else ""
        )
    )

    if args.smoke:
        # same philosophy as the scalar gate: identity checked above, and
        # a bar low enough that runner noise cannot flake the job
        if aggregate["batch_vs_dag"] < 1.2:
            print("FAIL: batch engine is not meaningfully faster (< 1.2x)")
            return 1
        if args.check_regression:
            committed = json.loads(Path(args.check_regression).read_text())
            floor = 0.8 * committed["aggregate"]["batch_points_per_sec"]
            got = aggregate["batch_points_per_sec"]
            if got < floor:
                print(
                    f"FAIL: batch throughput regressed: {got:.1f} pts/s on "
                    f"the smoke column < 0.8x the committed figure "
                    f"({committed['aggregate']['batch_points_per_sec']:.1f})"
                )
                return 1
            print(
                f"regression gate ok: {got:.1f} pts/s >= "
                f"0.8x committed ({floor:.1f})"
            )
        print("smoke ok: engines identical, batch faster")
        return 0

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_batch.json"
    )
    doc = {
        "benchmark": "batch-column-vs-scalar-engines",
        "python": sys.version.split()[0],
        "reps": reps,
        "protocol": (
            "best-of-reps wall time per column; axis = eighth-octave "
            "16B..512KB (121 sizes); dag/event = one fresh run_point per "
            "size, batch = one evaluate_column over the axis; bit-identical "
            "samples and message counts asserted per (point, size)"
        ),
        "columns": rows,
        "aggregate": aggregate,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny grid, no JSON; exit 1 unless DAG beats the event loop "
             "on aggregate and results are bit-identical (the CI gate)",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="column benchmark: full size axes, event vs dag vs batch, "
             "-> BENCH_batch.json (with --smoke: one small column, exit 1 "
             "unless batch beats dag)",
    )
    parser.add_argument(
        "--analytic", action="store_true",
        help="closed-form tier benchmark: full size axes, analytic vs dag, "
             "-> BENCH_analytic.json (with --smoke: one small column, exit "
             "1 unless analytic is within the error bound and >= 50x)",
    )
    parser.add_argument(
        "--store", action="store_true",
        help="cache-throughput benchmark: cached-column reads from the "
             "columnar shard store vs the per-file JSON layout "
             "-> BENCH_store.json (with --smoke: short axis, exit 1 "
             "unless the store beats JSON by 2x with bit-identical "
             "read-back)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="daemon-amortization benchmark: warm repro.serve sweep "
             "latency vs a cold CLI child per sweep -> BENCH_serve.json "
             "(with --smoke: short axis, exit 1 unless the warm daemon "
             "beats the cold CLI by 2x with bit-identical results)",
    )
    parser.add_argument(
        "--columns", default=None, metavar="LIB/COLL/NxP,...",
        help="restrict the --batch/--analytic column grid, e.g. "
             "PiP-MColl/scatter/4x8,OpenMPI/allgather/2x16 (CI smoke "
             "uses this to run only the cheap columns)",
    )
    parser.add_argument(
        "--check-regression", default=None, metavar="BENCH_batch.json",
        help="with --batch --smoke: also fail if batch points/sec on the "
             "smoke column drops below 0.8x the committed aggregate figure "
             "in the given JSON",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="wall-clock reps per (point, engine); best is kept "
             "(default 3, smoke 2)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_fastpath.json at repo root)",
    )
    args = parser.parse_args(argv)

    if args.serve:
        return run_serve_mode(args)
    if args.store:
        return run_store_mode(args)
    if args.analytic:
        return run_analytic_mode(args)
    if args.batch:
        return run_batch_mode(args)

    grid = SMOKE_GRID if args.smoke else GRID
    reps = args.reps if args.reps is not None else (2 if args.smoke else 3)
    print(f"engine speed: {len(grid)} points, best of {reps} reps each")
    rows, mismatches = run_grid(grid, reps)

    if mismatches:
        print(f"FAIL: engines disagree on {len(mismatches)} points:")
        for spec in mismatches:
            print(f"  {spec}")
        return 1

    event_total = sum(r["event_s"] for r in rows)
    dag_total = sum(r["dag_s"] for r in rows)
    speedups = [r["speedup"] for r in rows]
    aggregate = {
        "event_points_per_sec": len(rows) / event_total,
        "dag_points_per_sec": len(rows) / dag_total,
        "speedup": event_total / dag_total,
        "per_point_min": min(speedups),
        "per_point_median": statistics.median(speedups),
        "per_point_max": max(speedups),
    }
    print(
        f"aggregate: event {aggregate['event_points_per_sec']:.2f} pts/s, "
        f"dag {aggregate['dag_points_per_sec']:.2f} pts/s -> "
        f"{aggregate['speedup']:.2f}x "
        f"(per-point min {aggregate['per_point_min']:.2f}x / "
        f"median {aggregate['per_point_median']:.2f}x / "
        f"max {aggregate['per_point_max']:.2f}x)"
    )

    if args.smoke:
        # the gate: identical results (checked above) and a real speedup.
        # The bar is deliberately below the steady-state ratio so scheduler
        # noise on shared runners cannot flake the job.
        if aggregate["speedup"] < 1.2:
            print("FAIL: DAG engine is not meaningfully faster (< 1.2x)")
            return 1
        print("smoke ok: engines identical, DAG faster")
        return 0

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"
    )
    doc = {
        "benchmark": "dag-fastpath-vs-event-loop",
        "python": sys.version.split()[0],
        "reps": reps,
        "protocol": "best-of-reps wall time of run_point per engine; "
                    "bit-identical results asserted per point",
        "points": rows,
        "aggregate": aggregate,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
