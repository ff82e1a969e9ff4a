"""Regenerate ``reference.json``, the outputs the benchmark checks against.

Run from the repository root when the simulated results change on
purpose::

    PYTHONPATH=src python e2ebench/make_reference.py

Every value comes from the event engine, the authoritative one, so the
``auto`` workloads are checked against an engine they do not use:

* ``figures``: each figure's series and simulated internode-message total
  at ``--scale small``, from one cold sweep (``figrun.py``);
* ``serve``: every point of the ``serve-mixed`` grid
  (``serve_stream.grid_points``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import REFERENCE_PATH, encode_figure, encode_result  # noqa: E402


def main() -> int:
    from repro.bench.runner import SweepRunner
    from serve_stream import grid_points

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "figures.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "figrun.py"),
             "--engine", "event", "--jobs", "2",
             "--store", os.path.join(tmp, "store"), "--out", out],
            check=True,
        )
        with open(out) as fh:
            doc = json.load(fh)
    figures = {
        name: encode_figure(fig["series"], fig["internode_messages"])
        for name, fig in doc["figures"].items()
    }

    points = [replace(p, engine="event") for p in grid_points()]
    results = SweepRunner(jobs=2, use_cache=False).run(points)
    serve = dict(encode_result(r) for r in results)

    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"scale": "small", "figures": figures, "serve": serve},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(figures)} figures, "
          f"{len(serve)} serve points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
