"""Failure accounting of the serve-mixed workload, against a real
daemon serving in this process."""

import asyncio
import threading

import pytest

from check import load_reference
from serve_stream import (REPEAT_SHARE, grid_points, make_stream,
                          prefill_points)
from serve_wl import (Repetition, count_failures, drive_stream,
                      repeat_point_share)


@pytest.fixture
def daemon(tmp_path):
    from repro.bench.runner import ResultCache
    from repro.serve import SweepDaemon

    d = SweepDaemon("127.0.0.1:0", cache=ResultCache(tmp_path), jobs=0)
    ready = threading.Event()
    loop = asyncio.new_event_loop()

    def serve():
        loop.run_until_complete(d.serve(ready=lambda _: ready.set()))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10)
    yield d
    loop.call_soon_threadsafe(d.request_shutdown)
    thread.join(10)
    assert not thread.is_alive()
    loop.close()


def test_error_rate_counts_a_refused_request(daemon):
    from dataclasses import replace

    from repro.serve import SweepClient

    reference = load_reference()
    good = [p for p in grid_points()
            if (p.library, p.collective, p.nodes) == ("PiP-MColl",
                                                     "allgather", 2)][:2]
    refused = [replace(good[0], engine="no-such-engine")]
    stream = [good, refused, good[:1]]
    outcome = drive_stream(daemon.bound_address, stream, reference,
                           clients=1)
    assert outcome.errors == 1 and outcome.mismatches == 0
    assert outcome.error_codes == {"bad-request": 1}
    assert outcome.latencies[1] is None
    with SweepClient(daemon.bound_address) as client:
        stats = client.stats()
    assert stats["daemon"]["errors"] == 1
    rep = Repetition(setup_s=0.0, outcome=outcome, stats=stats,
                     peak_rss_kb=0, exit_code=0, tracebacks=0)
    # the daemon's count of the same refusal is not counted twice
    assert count_failures(rep) == 1
    assert count_failures(rep) / len(stream) == pytest.approx(1 / 3)


def test_unclean_daemon_exit_counts_as_a_failure():
    from serve_wl import StreamOutcome

    rep = Repetition(setup_s=0.0, outcome=StreamOutcome(latencies=[0.1]),
                     stats={"daemon": {"errors": 0}}, peak_rss_kb=0,
                     exit_code=1, tracebacks=0)
    assert count_failures(rep) == 1


def test_stream_is_seeded_and_mostly_repeats():
    stream = make_stream(3)
    assert stream == make_stream(3) and stream != make_stream(4)
    assert abs(repeat_point_share(stream) - REPEAT_SHARE) < 0.01
    # every grid point is sent, so every seed does the same work
    assert {p for request in stream for p in request} == set(grid_points())
    prefill = prefill_points(3)
    assert len(prefill) == len(set(prefill)) == len(grid_points()) // 2
