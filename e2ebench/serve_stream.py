"""The ``serve-mixed`` request grid and its seeded request stream.

A request is one column: one (library, collective, shape) and 1-8 of the
paper's 16 message sizes.  The grid spans every library including the
PiP-MColl-small variant, the three collectives of the paper, shapes 2x4,
4x4 and 8x4, and the sizes of Figs. 9-14, so it holds 864 points.
The stream sends every grid point once as a new point and about 70% of
all streamed points are repeats of points sent earlier, so the daemon
reads shards, answers repeats from memory and evaluates misses in one
run.  The store the daemon starts on holds a seeded half of the grid.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.baselines.registry import library_names
from repro.bench.figures import LARGE_SIZES, SMALL_SIZES
from repro.bench.runner.points import Point

__all__ = [
    "COLLECTIVES", "SHAPES", "SIZES", "REPEAT_SHARE", "grid_columns",
    "grid_points", "make_stream", "prefill_points",
]

COLLECTIVES = ("scatter", "allgather", "allreduce")
SHAPES = ((2, 4), (4, 4), (8, 4))
SIZES = tuple(SMALL_SIZES + LARGE_SIZES)
#: share of streamed points that repeat a point sent earlier
REPEAT_SHARE = 0.7
MAX_SIZES = 8

Column = Tuple[str, str, int, int]


def grid_columns() -> List[Column]:
    return [
        (lib, coll, nodes, ppn)
        for lib in library_names(include_variants=True)
        for coll in COLLECTIVES
        for nodes, ppn in SHAPES
    ]


def _point(column: Column, size: int) -> Point:
    lib, coll, nodes, ppn = column
    return Point(lib, coll, nodes, ppn, size, engine="auto")


def grid_points() -> List[Point]:
    return [_point(col, s) for col in grid_columns() for s in SIZES]


def prefill_points(seed: int) -> List[Point]:
    """The seeded half of the grid the daemon's store starts with: in
    every column, one size of each adjacent pair (16/32 B, 64/128 B, ...),
    so every seed leaves misses of about the same cost."""
    rng = random.Random(f"prefill-{seed}")
    return [
        _point(col, SIZES[i + rng.randrange(2)])
        for col in grid_columns()
        for i in range(0, len(SIZES), 2)
    ]


def make_stream(seed: int) -> List[List[Point]]:
    """The seeded request stream.

    Every grid point is sent once as a new point, in requests of four
    sizes: one drawn from each quarter of the size axis (16-128 B up to
    64-512 kB), so every such request carries one large size and the
    costliest requests look alike whatever the seed.  Those requests are
    shuffled.  Before each of them come repeat requests, each re-asking
    for 1-8 sizes already sent in the column of an earlier request, until
    :data:`REPEAT_SHARE` of the points sent so far are repeats.  The seed
    changes which sizes share a request and the order, not the amount of
    work.
    """
    rng = random.Random(f"stream-{seed}")
    quarters = [list(SIZES[i:i + len(SIZES) // 4])
                for i in range(0, len(SIZES), len(SIZES) // 4)]
    novel: List[List[Point]] = []
    for column in grid_columns():
        for q in quarters:
            rng.shuffle(q)
        novel.extend([_point(column, q[j]) for q in quarters]
                     for j in range(len(quarters[0])))
    rng.shuffle(novel)
    ratio = REPEAT_SHARE / (1.0 - REPEAT_SHARE)
    seen: dict = {}
    history: List[Column] = []
    stream: List[List[Point]] = []
    sent_new = sent_again = 0
    for request in novel:
        while history and sent_again < ratio * sent_new:
            column = rng.choice(history)
            known = sorted(seen[column])
            k = min(rng.randint(1, MAX_SIZES), len(known))
            stream.append([_point(column, s)
                           for s in sorted(rng.sample(known, k))])
            sent_again += k
        column = _column(request[0])
        history.append(column)
        seen.setdefault(column, set()).update(p.msg_bytes for p in request)
        stream.append(request)
        sent_new += len(request)
    return stream


def _column(point: Point) -> Column:
    return (point.library, point.collective, point.nodes, point.ppn)
