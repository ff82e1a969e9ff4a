"""Cross-run regression dashboard — ``python -m repro.bench.dashboard``.

The repository commits one ``BENCH_*.json`` document per performance
campaign (``BENCH_fastpath.json``, ``BENCH_batch.json``,
``BENCH_analytic.json``, ``BENCH_store.json``,
``BENCH_serve.json`` — all written by
``benchmarks/bench_speed.py``).  Each carries an ``aggregate`` block with
a headline points-per-second figure.  This tool lines those figures up
*across commits*: for every ``BENCH_*.json`` in the working tree it walks
the file's git history, extracts the headline metric from each committed
revision, prints the trajectory, and flags a regression when the working
tree value drops below ``--threshold`` (default 0.8) times the best
committed value.

Usage::

    python -m repro.bench.dashboard                  # table + trajectories
    python -m repro.bench.dashboard --check          # exit 1 on regression
    python -m repro.bench.dashboard --commits 0      # working tree only

Outside a git checkout (or with ``--commits 0``) the dashboard degrades
to a plain table of current values.  CI runs the per-benchmark smoke
gates for hard regression checks; this tool is the cross-campaign,
cross-commit view a human reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["main", "headline_metric"]

#: aggregate keys, most-derived engine first — the first present in a
#: document's ``aggregate`` block is its headline metric
_PREFERRED_METRICS = (
    "warm_points_per_sec",
    "store_points_per_sec",
    "batch_points_per_sec",
    "analytic_points_per_sec",
    "dag_points_per_sec",
)


def headline_metric(doc: dict) -> Tuple[str, float]:
    """The (name, value) of a bench document's headline throughput."""
    agg = doc.get("aggregate")
    if not isinstance(agg, dict):
        raise ValueError("no aggregate block")
    for key in _PREFERRED_METRICS:
        if key in agg:
            return key, float(agg[key])
    for key in sorted(agg):
        if key.endswith("points_per_sec"):
            return key, float(agg[key])
    raise ValueError("no points-per-sec aggregate metric")


def _git(args: List[str], cwd: Path) -> Optional[str]:
    try:
        res = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout if res.returncode == 0 else None


def file_history(
    directory: Path, name: str, limit: int
) -> List[Tuple[str, str, dict]]:
    """``(short_sha, date, doc)`` per committed revision, newest first."""
    if limit <= 0:
        return []
    log = _git(
        ["log", "--format=%h %cs", "-n", str(limit), "--", name], directory
    )
    if not log:
        return []
    out = []
    for line in log.splitlines():
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            continue
        sha, date = parts
        # ./ anchors the path at the cwd, not the repository toplevel
        raw = _git(["show", f"{sha}:./{name}"], directory)
        if raw is None:
            continue
        try:
            out.append((sha, date, json.loads(raw)))
        except ValueError:
            continue
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.dashboard", description=__doc__
    )
    parser.add_argument(
        "--dir", default=".", metavar="PATH",
        help="directory holding the BENCH_*.json files (default: .)",
    )
    parser.add_argument(
        "--commits", type=int, default=8, metavar="N",
        help="git revisions of each file to include (0 = working tree "
             "only; default 8)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.8,
        help="flag a regression when the working-tree value is below "
             "THRESHOLD x the best committed value (default 0.8)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if any benchmark regressed (CI/cron mode)",
    )
    args = parser.parse_args(argv)

    directory = Path(args.dir)
    files = sorted(directory.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json files under {directory}", file=sys.stderr)
        return 2

    regressions = []
    for path in files:
        try:
            doc = json.loads(path.read_text())
            metric, current = headline_metric(doc)
        except (OSError, ValueError) as exc:
            print(f"{path.name}: unreadable ({exc})", file=sys.stderr)
            regressions.append(path.name)
            continue

        history = file_history(directory, path.name, args.commits)
        trail = []
        for sha, date, old in history:
            try:
                old_metric, value = headline_metric(old)
            except ValueError:
                continue
            if old_metric == metric:
                trail.append((sha, date, value))

        print(f"{path.name}  [{metric}]")
        print(f"  working tree: {current:12.1f} pts/s")
        best_prior = None
        for sha, date, value in trail:
            best_prior = value if best_prior is None else max(
                best_prior, value
            )
            print(f"  {sha} {date}: {value:12.1f} pts/s")
        if best_prior is not None and current < args.threshold * best_prior:
            print(
                f"  REGRESSION: {current:.1f} < "
                f"{args.threshold:.2f} x best committed ({best_prior:.1f})"
            )
            regressions.append(path.name)
        elif best_prior is not None:
            print(
                f"  ok: within {args.threshold:.2f}x of best committed "
                f"({best_prior:.1f})"
            )
        else:
            print("  (no committed history)")
        print()

    if regressions:
        print(f"regressed: {', '.join(regressions)}")
        return 1 if args.check else 0
    print("all benchmarks within threshold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
