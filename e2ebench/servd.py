"""``python -m repro.serve`` with spans around the daemon's store calls.

The traced ``serve-mixed`` run starts the daemon through this file instead
of ``-m repro.serve``.  It wraps the result cache's reads, writes and
flushes, runs the daemon's own ``main`` with the remaining arguments, and
writes the spans once, when the daemon has exited.

Usage (from the repository root)::

    python e2ebench/servd.py --spans spans.json -- --listen 127.0.0.1:0 ...
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Spans  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: servd.py --spans OUT -- DAEMON-ARGS...",
              file=sys.stderr)
        return 2
    out, daemon_args = argv[1], argv[3:]

    from repro.bench.runner.cache import ResultCache
    from repro.serve.daemon import main as daemon_main

    spans = Spans()
    for attr in ("get", "get_many", "peek"):
        spans.wrap(ResultCache, attr, "store.get")
    for attr in ("put", "put_many"):
        spans.wrap(ResultCache, attr, "store.put")
    spans.wrap(ResultCache, "flush", "store.flush")
    try:
        return daemon_main(daemon_args)
    finally:
        spans.dump(out)


if __name__ == "__main__":
    sys.exit(main())
