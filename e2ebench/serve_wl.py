"""The ``serve-mixed`` workload: a resident ``repro.serve`` daemon with a
one-worker pool, driven by two closed-loop ``SweepClient`` connections.

One repetition copies the pre-filled store, starts a daemon on it, sends
the seeded request stream, reads the daemon's ``stats``, shuts it down and
waits for it.  Every response is checked against the reference.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import List, Optional

from check import result_key, result_matches
from metrics import median, percentile, store_metrics, zero_layer_metrics
from serve_stream import make_stream, prefill_points
from spans import Spans, self_times

__all__ = [
    "CLIENTS", "StreamOutcome", "drive_stream",
    "prefill_store", "repeat_flags", "run_repetition", "count_failures",
    "measure", "traced",
]

#: closed-loop client connections
CLIENTS = 2
#: the daemon publishes buffered results this often, so shard writes
#: run beside reads during a stream rather than only at shutdown
FLUSH_INTERVAL_S = 1.0
_ANNOUNCE = re.compile(r"listening on (\S+) ")


@dataclass
class StreamOutcome:
    """What one pass over a request stream observed, client side."""

    #: seconds per request, ``None`` where the request failed
    latencies: List[Optional[float]]
    #: requests that raised ``ServeError``/``OSError``
    errors: int = 0
    #: requests answered with a result that differs from the reference
    mismatches: int = 0
    #: ``ServeError`` codes seen, for the failure report
    error_codes: dict = field(default_factory=lambda: defaultdict(int))
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches


def repeat_flags(stream) -> List[bool]:
    """Per request: were all its points sent by earlier requests?"""
    seen = set()
    flags = []
    for points in stream:
        flags.append(all(p in seen for p in points))
        seen.update(points)
    return flags


def drive_stream(address: str, stream, reference: dict,
                 clients: int = CLIENTS) -> StreamOutcome:
    """Send ``stream`` through ``clients`` closed-loop connections: each
    sends its next request only after the previous answer arrived."""
    from repro.serve import ServeError, SweepClient

    out = StreamOutcome(latencies=[None] * len(stream))
    lock = threading.Lock()
    cursor = iter(range(len(stream)))

    def client_loop() -> None:
        client = SweepClient(address)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                points = stream[i]
                start = time.perf_counter()
                try:
                    results = client.sweep(points)
                except ServeError as exc:
                    with lock:
                        out.errors += 1
                        out.error_codes[exc.code] += 1
                    continue
                except OSError:
                    client.close()
                    with lock:
                        out.errors += 1
                        out.error_codes["oserror"] += 1
                    continue
                out.latencies[i] = time.perf_counter() - start
                ok = len(results) == len(points) and all(
                    result_matches(reference, p, r)
                    for p, r in zip(points, results))
                if not ok:
                    with lock:
                        out.mismatches += 1
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out.wall_s = time.perf_counter() - t0
    return out


def prefill_store(root: str, seed: int, reference: dict) -> int:
    """Write the seeded half of the grid into a fresh store at ``root``,
    from the reference values (untimed set-up; nothing is evaluated)."""
    from repro.bench.microbench import MicrobenchResult
    from repro.bench.runner import ResultCache

    cache = ResultCache(root)
    columns = defaultdict(list)
    for p in prefill_points(seed):
        columns[(p.library, p.collective, p.nodes, p.ppn)].append(p)
    for points in columns.values():
        results = []
        for p in points:
            t, samples, msgs = reference["serve"][result_key(
                p.library, p.collective, p.nodes, p.ppn, p.msg_bytes)]
            results.append(MicrobenchResult(
                p.library, p.collective, p.nodes, p.ppn, p.msg_bytes,
                float.fromhex(t), tuple(float.fromhex(s) for s in samples),
                msgs))
        cache.put_many(points, results)
    return sum(len(v) for v in columns.values())


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_kb(pid: int) -> int:
    """Largest peak resident size among ``pid`` and its descendants."""
    best, todo = 0, [pid]
    while todo:
        p = todo.pop()
        best = max(best, _hwm_kb(p))
        todo.extend(_children(p))
    return best


@dataclass
class Repetition:
    setup_s: float
    outcome: StreamOutcome
    stats: dict
    peak_rss_kb: int
    exit_code: int
    tracebacks: int
    client_spans: Optional[Spans] = None
    daemon_spans_path: Optional[str] = None


def _wait_for_address(proc, log_path: str, deadline: float) -> str:
    while time.monotonic() < deadline:
        with open(log_path) as fh:
            m = _ANNOUNCE.search(fh.read())
        if m:
            return m.group(1)
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}")
        time.sleep(0.005)
    raise TimeoutError("daemon did not announce its address")


def run_repetition(workdir: str, template: str, tag: str, stream,
                   reference: dict, env: dict, traced: bool = False,
                   deadline_s: float = 60.0) -> Repetition:
    """One daemon life: spawn on a copy of ``template``, serve ``stream``,
    shut down.  ``traced`` starts it through ``servd.py`` and records the
    client's codec calls."""
    from repro.serve import SweepClient, wait_until_ready

    store = os.path.join(workdir, f"store-{tag}")
    shutil.copytree(template, store)
    log_path = os.path.join(workdir, f"daemon-{tag}.log")
    daemon_args = ["--listen", "127.0.0.1:0", "--jobs", "1",
                   "--flush-interval", str(FLUSH_INTERVAL_S),
                   "--cache-dir", store]
    spans_path = None
    if traced:
        spans_path = os.path.join(workdir, f"daemon-spans-{tag}.json")
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "servd.py"),
               "--spans", spans_path, "--"] + daemon_args
    else:
        cmd = [sys.executable, "-m", "repro.serve"] + daemon_args

    client_spans = None
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                env=env, cwd=workdir)
    try:
        address = _wait_for_address(proc, log_path, t_spawn + deadline_s)
        wait_until_ready(address, deadline=deadline_s, poll=0.005)
        setup_s = time.monotonic() - t_spawn
        if traced:
            client_spans = _wrap_client_codec()
        try:
            outcome = drive_stream(address, stream, reference)
        finally:
            if client_spans is not None:
                client_spans.unwrap_all()
        with SweepClient(address) as client:
            stats = client.stats()
            peak = tree_peak_rss_kb(proc.pid)
            client.shutdown()
        exit_code = proc.wait(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        exit_code = -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    with open(log_path) as fh:
        tracebacks = fh.read().count("Traceback (most recent call last)")
    shutil.rmtree(store, ignore_errors=True)
    return Repetition(setup_s, outcome, stats, peak, exit_code, tracebacks,
                      client_spans, spans_path)


def _wrap_client_codec() -> Spans:
    import repro.serve.client as client_mod

    spans = Spans()
    for attr in ("encode_message", "decode_message", "result_from_doc"):
        spans.wrap(client_mod, attr, "serve.client_codec")
    return spans


def count_failures(rep: Repetition) -> int:
    """Failed requests of one repetition: client-side errors and
    mismatches, daemon-side errors the clients did not see (its
    ``timeouts`` and ``rejected`` also count as ``errors``), and a daemon
    that exited uncleanly."""
    daemon = rep.stats.get("daemon", {})
    unseen = max(0, daemon.get("errors", 0) - rep.outcome.errors)
    return rep.outcome.failed + unseen + (rep.exit_code != 0)


def _template(workdir: str, seed: int, reference: dict) -> str:
    template = os.path.join(workdir, "template")
    prefill_store(template, seed, reference)
    return template


def measure(workdir: str, env: dict, seconds: float, reference: dict,
            seed: int):
    """Untraced daemon lives until the next one would end after
    ``seconds``.  Times are medians over lives; latency percentiles pool
    every request of the run."""
    stream = make_stream(seed)
    template = _template(workdir, seed, reference)
    reps: List[Repetition] = []
    attempted = failed = 0
    problems: List[str] = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        rep = run_repetition(workdir, template, f"r{len(reps)}", stream,
                             reference, env)
        reps.append(rep)
        attempted += len(stream)
        failed += count_failures(rep)
        problems.extend(_describe(rep))
        if time.monotonic() - t0 + (time.monotonic() - start) > seconds:
            break
    latencies = [lat * 1e3 for rep in reps for lat in rep.outcome.latencies
                 if lat is not None]
    values = {
        "setup_s": median([r.setup_s for r in reps]),
        "sweep_s": median([r.outcome.wall_s for r in reps]),
        "req_per_s": median([len(stream) / r.outcome.wall_s for r in reps]),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": median([r.peak_rss_kb / 1024 for r in reps]),
    }
    return values, attempted, failed, problems


def traced(workdir: str, env: dict, reference: dict, seed: int):
    """Per-layer metrics from a traced daemon life between two untraced
    ones; the tracing overhead is its stream time minus their mean."""
    stream = make_stream(seed)
    template = _template(workdir, seed, reference)
    plain = [run_repetition(workdir, template, "plain", stream, reference,
                            env)]
    rep = run_repetition(workdir, template, "traced", stream, reference,
                         env, traced=True)
    plain.append(run_repetition(workdir, template, "plain2", stream,
                                reference, env))
    lives = plain + [rep]
    attempted = len(lives) * len(stream)
    failed = sum(count_failures(r) for r in lives)
    problems = [line for r in lives for line in _describe(r)]

    with open(rep.daemon_spans_path) as fh:
        own = self_times(json.load(fh)["spans"])
    daemon, cache = rep.stats["daemon"], rep.stats["cache"]
    m = zero_layer_metrics()
    for name in ("hits", "misses", "coalesced", "evaluations", "errors",
                 "timeouts", "rejected"):
        m[f"serve.{name}"] = daemon[name]
    m["serve.client_codec_s"] = sum(rep.client_spans.self_times().values())
    flags = repeat_flags(stream)
    for label, want in (("repeat", True), ("novel", False)):
        lats = [lat * 1e3 for lat, flag in zip(rep.outcome.latencies, flags)
                if flag is want and lat is not None]
        m[f"serve.{label}_latency_p50_ms"] = median(lats) if lats else 0.0
    m["serve.repeat_point_share"] = repeat_point_share(stream)
    m["serve.daemon_tracebacks"] = sum(r.tracebacks for r in lives)
    m["serve.daemon_exit_code"] = max((r.exit_code for r in lives), key=abs)
    m.update(store_metrics(cache, own))
    m["trace.sweep_s"] = rep.outcome.wall_s
    m["trace.overhead_s"] = rep.outcome.wall_s - median(
        [r.outcome.wall_s for r in plain])
    return m, attempted, failed, problems


def repeat_point_share(stream) -> float:
    """Share of streamed points that an earlier request already sent."""
    seen = set()
    repeats = total = 0
    for points in stream:
        for p in points:
            repeats += p in seen
            total += 1
        seen.update(points)
    return repeats / total


def _describe(rep: Repetition) -> List[str]:
    out = []
    if rep.outcome.errors:
        out.append(f"request errors: {dict(rep.outcome.error_codes)}")
    if rep.outcome.mismatches:
        out.append(f"{rep.outcome.mismatches} responses differ from the "
                   f"reference")
    if rep.exit_code != 0:
        out.append(f"daemon exit code {rep.exit_code}")
    return out
