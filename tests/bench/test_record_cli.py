"""Tests for the ``python -m repro.bench.record`` CLI."""

import pytest

from repro.bench.record import main


def test_records_figure_to_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIPMCOLL_SCALE", "small")
    out = tmp_path / "run.txt"
    rc = main(["--figures", "fig06", "--scale", "small", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "fig06" in text
    assert "PiP-MColl" in text and "PiP-MPICH" in text
    assert "done in" in text
    # stdout mirrors the file
    assert "fig06" in capsys.readouterr().out


def test_cache_stats_reports_store_shape(capsys):
    rc = main(["--figures", "fig06", "--scale", "small", "--cache-stats"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[cache:" in out and "point /" in out and "column)" in out
    assert "stores in" in out and "flushes" in out
    assert "[store:" in out and "shards on disk" in out
    assert "index" in out and "entries]" in out


def test_incremental_skips_unchanged_figure_and_reruns_after_change(capsys):
    from repro.bench.runner import ResultCache

    rc = main(["--figures", "fig06", "--scale", "small", "--incremental"])
    assert rc == 0
    first = capsys.readouterr().out
    assert "skipped (incremental)" not in first

    rc = main(["--figures", "fig06", "--scale", "small", "--incremental"])
    assert rc == 0
    second = capsys.readouterr().out
    assert "fig06 backing shards unchanged, skipped (incremental)" in second
    assert "done in" not in second

    # touching the backing store invalidates the fingerprint
    ResultCache().clear()
    rc = main(["--figures", "fig06", "--scale", "small", "--incremental"])
    assert rc == 0
    third = capsys.readouterr().out
    assert "skipped (incremental)" not in third
    assert "done in" in third


def test_incremental_refresh_always_reruns(capsys):
    rc = main(["--figures", "fig06", "--scale", "small", "--incremental"])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "--figures", "fig06", "--scale", "small", "--incremental",
        "--refresh",
    ])
    assert rc == 0
    assert "skipped (incremental)" not in capsys.readouterr().out


def test_incremental_requires_cache():
    with pytest.raises(SystemExit):
        main([
            "--figures", "fig06", "--scale", "small", "--incremental",
            "--no-cache",
        ])


def test_trace_flag_dumps_phase_tagged_perfetto_json(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main([
        "--scale", "small",
        "--trace", str(out),
        "--trace-point", "PiP-MColl/allreduce/64K",
    ])
    assert rc == 0
    trace = json.loads(out.read_text())
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert events, "trace must contain spans"
    phases = {e["args"].get("phase") for e in events if "args" in e}
    phases.discard(None)
    assert phases, "spans must carry phase tags"
    stdout = capsys.readouterr().out
    assert "traced" in stdout and "phases:" in stdout


def test_trace_without_point_rejected():
    with pytest.raises(SystemExit):
        main(["--scale", "small", "--trace", "out.json"])


def test_trace_point_bad_spec_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "--scale", "small", "--trace", str(tmp_path / "t.json"),
            "--trace-point", "PiP-MColl/allreduce",
        ])


def test_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--figures", "fig99", "--scale", "small"])


def test_unknown_scale_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--figures", "fig06", "--scale", "galactic"])
    # the removed JIT replay engines fail in argparse, before any sweep
    for engine in ("native", "native-batch"):
        with pytest.raises(SystemExit) as err:
            main(["--figures", "fig06", "--scale", "small",
                  "--engine", engine])
        assert err.value.code == 2
