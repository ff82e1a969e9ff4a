"""The microbenchmark protocol of §IV-A, adapted to a deterministic world.

The paper runs a warm-up stage and an execution stage with equal iteration
counts (10 000 / 1 000 / 100 / 10 by size class) and averages, because
hardware runs are noisy.  The simulator is deterministic, so one warm-up
iteration (which absorbs page-fault/attach warm-up exactly like the paper's
warm-up stage does) and a couple of measured iterations give the same
answer the full protocol would; :func:`paper_iterations` documents the
original counts and is exercised by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from repro.baselines.base import MpiLibrary
from repro.baselines.registry import make_library
from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams, bebop_broadwell
from repro.hw.topology import Topology
from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import SUM
from repro.mpi.runtime import RankCtx, World
from repro.sched.fastpath import evaluate_point as _dag_evaluate_point
from repro.sched.fastpath import fastpath_supported
from repro.sim.engine import ProcGen
from repro.sim.trace import Tracer
from repro.util.units import KB

__all__ = [
    "paper_iterations", "MicrobenchResult", "run_point", "COLLECTIVES",
    "ENGINES", "resolve_engine",
]

#: the paper's three primary collectives first, then the extensions
COLLECTIVES = (
    "scatter", "allgather", "allreduce", "alltoall", "bcast", "gather",
    "reduce",
)

#: how a point is evaluated: the coroutine event loop (authoritative), the
#: DAG fast path (bit-identical, planner-backed pairs only), the batch
#: engine (bit-identical, whole size columns vectorized), the analytic
#: tier (closed-form estimates — approximate, error-bounded, never picked
#: by ``auto``; see :mod:`repro.sched.analytic`), or ``auto`` (DAG/batch
#: whenever they apply, event loop otherwise)
ENGINES = ("event", "dag", "batch", "analytic", "auto")


def resolve_engine(
    engine: str, library: str, collective: str, tracing: bool = False
) -> str:
    """Resolve ``auto`` to the engine that will actually run.

    ``auto`` picks the DAG replay exactly when the (library, collective)
    pair is planner-backed and no tracer is attached (phantom data is
    implied: :func:`run_point` worlds are always phantom), the event loop
    otherwise.  For a *single* point the result is always ``"event"`` or
    ``"dag"``; the sweep runner upgrades ``auto`` columns to the batch
    engine itself, where the whole size axis is in hand (see
    :mod:`repro.bench.runner.pool`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "auto":
        if not tracing and fastpath_supported(library, collective):
            return "dag"
        return "event"
    return engine


def paper_iterations(nbytes: int) -> int:
    """Iteration counts of §IV-A, by message-size class."""
    if nbytes < 0:
        raise ValueError(f"negative message size: {nbytes}")
    if nbytes <= 1 * KB:
        return 10_000
    if nbytes <= 8 * KB:
        return 1_000
    if nbytes < 128 * KB:
        return 100
    return 10


@dataclass(frozen=True)
class MicrobenchResult:
    """One measured point.

    Crosses process boundaries (pool workers return it) and round-trips
    through the JSON result cache, so it must stay a plain frozen
    dataclass of primitives — no references to ``World`` or ``Engine``.
    ``tests/bench/test_runner.py`` pins the pickle round-trip.
    """

    library: str
    collective: str
    nodes: int
    ppn: int
    msg_bytes: int
    #: mean simulated seconds per iteration over the execution stage
    time: float
    #: per-iteration simulated times (warm-up excluded)
    samples: Tuple[float, ...]
    #: total internode messages in the final iteration (diagnostics)
    internode_messages: int


def _make_body(
    lib: MpiLibrary, world: World, collective: str, nbytes: int
) -> Callable[[RankCtx], ProcGen]:
    size = world.world_size
    if collective == "scatter":
        sendbuf = Buffer.phantom(nbytes * size)
        recvs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            sb = sendbuf if ctx.rank == 0 else None
            yield from lib.scatter(ctx, sb, recvs[ctx.rank], root=0)

    elif collective == "allgather":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes * size) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.allgather(ctx, sends[ctx.rank], recvs[ctx.rank])

    elif collective == "allreduce":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.allreduce(ctx, sends[ctx.rank], recvs[ctx.rank], SUM)

    elif collective == "alltoall":
        sends = [Buffer.phantom(nbytes * size) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes * size) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.alltoall(ctx, sends[ctx.rank], recvs[ctx.rank])

    elif collective == "bcast":
        bufs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.bcast(ctx, bufs[ctx.rank], root=0)

    elif collective == "gather":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvbuf = Buffer.phantom(nbytes * size)

        def body(ctx: RankCtx) -> ProcGen:
            rb = recvbuf if ctx.rank == 0 else None
            yield from lib.gather(ctx, sends[ctx.rank], rb, root=0)

    elif collective == "reduce":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvbuf = Buffer.phantom(nbytes)

        def body(ctx: RankCtx) -> ProcGen:
            rb = recvbuf if ctx.rank == 0 else None
            yield from lib.reduce(ctx, sends[ctx.rank], rb, SUM, root=0)

    else:
        raise ValueError(
            f"unknown collective {collective!r}; known: {COLLECTIVES}"
        )
    return body


def run_point(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    tracer: Optional[Tracer] = None,
    thresholds: Optional[Thresholds] = None,
    engine: str = "event",
) -> MicrobenchResult:
    """Measure one (library, collective, shape, size) point.

    Builds a fresh phantom-data world, runs ``warmup`` unrecorded
    iterations followed by ``measure`` recorded ones, and returns the mean
    simulated per-iteration time.

    With a ``tracer`` attached, spans are recorded throughout but the
    tracer is cleared before the final measured iteration, so it ends up
    holding exactly one steady-state iteration of the collective.

    ``thresholds`` overrides the library's algorithm switch points
    (ablations); only libraries that select by size accept it.

    ``engine`` selects how the point is evaluated (see :data:`ENGINES`).
    ``"dag"`` replays the compiled schedule on the analytic fast path —
    bit-identical samples, no coroutines — and only covers planner-backed
    pairs.  ``"batch"`` routes through the vectorized column engine
    (:func:`repro.sched.batch.evaluate_column`) — same coverage and
    bit-identity contract as ``"dag"``; a single point gains nothing over
    it, the option exists so sweep drivers can thread one engine name end
    to end.  ``"analytic"`` skips simulation entirely and returns the
    closed-form estimate (approximate — see :mod:`repro.sched.analytic`
    for the error contract); ``auto`` never selects it.  Only the event
    loop can trace; ``"auto"`` degrades to it instead of raising.
    """
    if measure < 1:
        raise ValueError("need at least one measured iteration")
    engine = resolve_engine(engine, library, collective, tracing=tracer is not None)
    if engine != "event" and tracer is not None:
        raise ValueError(
            f"engine={engine!r} cannot record traces; use engine='event'"
        )
    time = None
    if engine == "analytic":
        from repro.sched.analytic import evaluate_point as _analytic_point

        fast = _analytic_point(
            library, collective, nodes, ppn, msg_bytes,
            params=params, warmup=warmup, measure=measure,
            thresholds=thresholds,
        )
        time = fast.time
    elif engine == "batch":
        from repro.sched.batch import evaluate_column

        fast = evaluate_column(
            library, collective, nodes, ppn, [msg_bytes],
            params=params, warmup=warmup, measure=measure,
            thresholds=thresholds,
        ).results[msg_bytes]
    elif engine == "dag":
        fast = _dag_evaluate_point(
            library, collective, nodes, ppn, msg_bytes,
            params=params, warmup=warmup, measure=measure,
            thresholds=thresholds,
        )
    else:
        fast = _run_event_point(
            library, collective, nodes, ppn, msg_bytes, params, warmup,
            measure, tracer, thresholds,
        )
    return MicrobenchResult(
        library=library,
        collective=collective,
        nodes=nodes,
        ppn=ppn,
        msg_bytes=msg_bytes,
        time=sum(fast.samples) / len(fast.samples) if time is None else time,
        samples=fast.samples,
        internode_messages=fast.internode_messages,
    )


class _EventRun(NamedTuple):
    samples: Tuple[float, ...]
    internode_messages: int


def _run_event_point(
    library, collective, nodes, ppn, msg_bytes, params, warmup, measure,
    tracer, thresholds,
) -> _EventRun:
    """The authoritative coroutine event loop: fresh phantom world,
    ``warmup`` unrecorded iterations, then ``measure`` recorded ones."""
    lib = make_library(library)
    if thresholds is not None:
        if not hasattr(lib, "thresholds"):
            raise ValueError(
                f"library {library!r} has no size thresholds to override"
            )
        lib.thresholds = thresholds
    world = lib.make_world(
        Topology(nodes, ppn), params or bebop_broadwell(), phantom=True,
        tracer=tracer,
    )
    body = _make_body(lib, world, collective, msg_bytes)

    for _ in range(warmup):
        world.run(body)
    samples = []
    for i in range(measure):
        if tracer is not None and i == measure - 1:
            tracer.clear()
        samples.append(world.run(body).elapsed)
    return _EventRun(tuple(samples), world.hw.total_internode_messages())
