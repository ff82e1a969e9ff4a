"""Golden-trace equivalence: compiled schedules vs. the original generators.

``tests/data/golden_sched.json`` was recorded from the hand-written
generator implementations: the PiP-MColl and flat-allgather points
immediately before the schedule-IR migration, the baselines' scatter and
allreduce and the MVAPICH2/IntelMPI compositions from the event engine
before their planners existed (non-power-of-two world and leader counts,
odd sizes, and sizes at and around the 2 kB recursive-doubling /
Rabenseifner switch, the 80 kB allgather ring switch and the 4/8/16 kB
hybrid-mechanism thresholds).  Each point pins the exact per-iteration
simulated times, their mean, and the internode message count; the event
loop (generators and :class:`~repro.sched.executor.ScheduleExecutor`
replays) and the DAG engine must reproduce all three **bit-for-bit** —
pure-Python planning work costs zero simulated time, so any drift at all
means a changed yield sequence, not just some constant.
"""

import json
from pathlib import Path

import pytest

from repro.bench.microbench import run_point
from repro.mpi.buffer import Buffer
from repro.mpi.collectives import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    bcast_binomial,
    gather_binomial,
    reduce_binomial,
    scatter_binomial,
)
from repro.mpi.collectives.group import Group
from repro.mpi.datatypes import SUM
from repro.mpi.runtime import World
from repro.hw.params import bebop_broadwell
from repro.hw.topology import Topology
from repro.sched.executor import ScheduleExecutor
from repro.sched.fastpath import fastpath_supported
from repro.sched.ir import BufRef, Sym
from repro.sched.plans.baseline import (
    _group_schedule,
    emit_bcast_binomial,
    emit_gather_binomial,
    emit_reduce_binomial,
    plan_allreduce_rabenseifner,
    plan_allreduce_recursive_doubling,
    plan_scatter_binomial,
)
from repro.shmem import HybridMechanism, KernelCopy, PosixShmem

_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden_sched.json").read_text()
)


def _label(point):
    return (
        f"{point['library']}-{point['collective']}-"
        f"{point['nodes']}x{point['ppn']}-{point['msg_bytes']}B"
    )


@pytest.mark.parametrize("point", _GOLDEN, ids=_label)
def test_schedule_replay_is_bit_identical_to_generator(point):
    result = run_point(
        point["library"],
        point["collective"],
        point["nodes"],
        point["ppn"],
        point["msg_bytes"],
    )
    # exact float equality on purpose: no tolerance, no approx
    assert list(result.samples) == point["samples"]
    assert result.time == point["time"]
    assert result.internode_messages == point["internode_messages"]


_DAG_GOLDEN = [
    p for p in _GOLDEN if fastpath_supported(p["library"], p["collective"])
]


@pytest.mark.parametrize("point", _DAG_GOLDEN, ids=_label)
def test_dag_engine_reproduces_golden_point(point):
    result = run_point(
        point["library"],
        point["collective"],
        point["nodes"],
        point["ppn"],
        point["msg_bytes"],
        engine="dag",
    )
    assert list(result.samples) == point["samples"]
    assert result.time == point["time"]
    assert result.internode_messages == point["internode_messages"]


def test_golden_file_covers_every_planned_library():
    libraries = {p["library"] for p in _GOLDEN}
    assert {
        "PiP-MColl", "PiP-MColl-small", "PiP-MPICH", "OpenMPI"
    } <= libraries
    collectives = {p["collective"] for p in _GOLDEN}
    assert {"scatter", "allgather", "allreduce"} <= collectives
    pairs = {(p["library"], p["collective"]) for p in _GOLDEN}
    for lib in ("PiP-MPICH", "OpenMPI", "MVAPICH2", "IntelMPI"):
        for coll in ("scatter", "allgather", "allreduce"):
            assert (lib, coll) in pairs


# -- building blocks: standalone plans vs their generators ---------------

#: (group index order, root index) cases over a 3x2 world: the full world
#: with root 0 and a non-zero root, and a permuted non-power-of-two subset
_GROUP_CASES = (
    ((0, 1, 2, 3, 4, 5), 0),
    ((0, 1, 2, 3, 4, 5), 4),
    ((5, 2, 0, 3, 1), 2),
)


def _block_world():
    mech = HybridMechanism(PosixShmem(), KernelCopy(), threshold=4096)
    return World(Topology(3, 2), bebop_broadwell(), mechanism=mech,
                 phantom=True)


def _time_group_collective(ranks, bodies):
    """Elapsed times of two iterations of ``bodies[i]`` on group member i
    (warm state carries over, as in the microbenchmarks)."""
    world = _block_world()

    def body(ctx):
        if ctx.rank in ranks:
            yield from bodies[ranks.index(ctx.rank)](ctx)

    return [world.run(body).elapsed for _ in range(2)]


def _block_buffers(collective, size, count, root):
    """Per-member (send, recv) phantom buffers, allocated once."""
    out = []
    for i in range(size):
        if collective == "scatter":
            send = Buffer.phantom(size * count) if i == root else None
            recv = Buffer.phantom(count)
        elif collective == "gather":
            send = Buffer.phantom(count)
            recv = Buffer.phantom(size * count) if i == root else None
        elif collective == "bcast":
            send, recv = Buffer.phantom(count), None
        else:
            send = Buffer.phantom(count)
            recv = Buffer.phantom(count) if (
                collective != "reduce" or i == root) else None
        out.append((send, recv))
    return out


_TAG, _SEND, _RECV = Sym("tag"), BufRef("send"), BufRef("recv")


def _plan_gather(ranks, count, root):
    return _group_schedule(ranks, "gather", lambda em, me: emit_gather_binomial(
        em, ranks, me, _SEND, _RECV if me == root else None, count, root, _TAG,
    ))


def _plan_bcast(ranks, count, root):
    return _group_schedule(ranks, "bcast", lambda em, me: emit_bcast_binomial(
        em, ranks, me, BufRef("buf"), root, _TAG,
    ))


def _plan_reduce(ranks, count, root):
    return _group_schedule(ranks, "reduce", lambda em, me: emit_reduce_binomial(
        em, ranks, me, _SEND, _RECV if me == root else None, count, root, _TAG,
    ))


_BLOCKS = {
    "scatter": (scatter_binomial, plan_scatter_binomial),
    "gather": (gather_binomial, _plan_gather),
    "bcast": (bcast_binomial, _plan_bcast),
    "reduce": (reduce_binomial, _plan_reduce),
    "allreduce-rd": (allreduce_recursive_doubling,
                     plan_allreduce_recursive_doubling),
    "allreduce-rabenseifner": (allreduce_rabenseifner,
                               plan_allreduce_rabenseifner),
}


@pytest.mark.parametrize("name", sorted(_BLOCKS))
@pytest.mark.parametrize("count", (5, 4097))
def test_building_block_plan_replays_its_generator(name, count):
    generator, planner = _BLOCKS[name]
    collective = name.split("-")[0]
    for ranks, root in _GROUP_CASES:
        if collective == "allreduce":
            root = 0
        size = len(ranks)
        group = Group(ranks)

        def gen_body(i, bufs):
            send, recv = bufs[i]

            def run(ctx):
                if collective == "bcast":
                    return generator(ctx, group, send, root)
                if collective in ("reduce", "allreduce"):
                    args = (send, recv, SUM)
                else:
                    args = (send, recv)
                if collective == "allreduce":
                    return generator(ctx, group, *args)
                return generator(ctx, group, *args, root)

            return run

        def plan_body(i, bufs):
            send, recv = bufs[i]
            if collective == "allreduce":
                schedule = planner(group.ranks, count)
            else:
                schedule = planner(group.ranks, count, root)
            names = {"buf": send} if collective == "bcast" else {
                "send": send, "recv": recv}

            def run(ctx):
                return ScheduleExecutor(schedule).run(
                    ctx, names, op=SUM,
                    symbols={"tag": ctx.collective_tag(group)},
                    program_index=i,
                )

            return run

        times = []
        for make in (gen_body, plan_body):
            bufs = _block_buffers(collective, size, count, root)
            times.append(_time_group_collective(
                ranks, [make(i, bufs) for i in range(size)]
            ))
        assert times[0] == times[1], (name, ranks, root, count)
