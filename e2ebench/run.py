"""End-to-end benchmark of the repository: one command, three workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload figures-small-auto --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs the separate traced run and reports the per-layer
metrics instead.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"sweep_s": {"value": 5.1, "unit": "s"}, ...}}

Outputs are checked bit-for-bit against ``reference.json``; a failed or
mismatched operation counts in ``failed`` and makes ``correct`` false.
The benchmark works in a fresh ``.e2ebench_work/`` directory under the
repository root and removes it when it ends.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("figures-small-auto", "figures-small-event", "serve-mixed")


def _child_env(workdir: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PIPMCOLL_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing "
              f"(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from check import load_reference
    from metrics import END_TO_END, PER_LAYER, metrics_doc

    reference = load_reference()
    base = os.path.join(ROOT, ".e2ebench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    env = _child_env(workdir)
    try:
        if args.workload == "serve-mixed":
            import serve_wl

            if args.trace:
                result = serve_wl.traced(workdir, env, reference, args.seed)
            else:
                result = serve_wl.measure(workdir, env, args.seconds,
                                          reference, args.seed)
        else:
            import fig_wl

            engine = args.workload.rsplit("-", 1)[1]
            if args.trace:
                result = fig_wl.traced(workdir, engine, env, reference)
            else:
                result = fig_wl.measure(workdir, engine, env, args.seconds,
                                        reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    values, attempted, failed, problems = result
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    if not values:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        values["error_rate"] = failed / attempted
        doc = metrics_doc(values, PER_LAYER)
    else:
        doc = metrics_doc(values, END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
