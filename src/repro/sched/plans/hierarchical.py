"""Planners for the leader-based compositions of MVAPICH2 and Intel MPI.

Each ``plan_hier_*`` transcribes the matching
:mod:`repro.baselines.hierarchical` generator for every global rank,
inlining the classical building blocks of
:mod:`repro.sched.plans.baseline`: an intranode phase over the rank's node
group, an internode phase among the node leaders (local rank 0), and, for
the allgather and allreduce, an intranode broadcast.  The root is global
rank 0, a leader, as in the paper's benchmarks.

Tags are group-scoped, as in the generators: every (group, invocation)
pair gets one symbolic tag, named by :func:`hier_tag_groups`, whose value
is that group's next :meth:`RankCtx.collective_tag`.  The node group of
the allgather and allreduce is used twice per call (gather/reduce, then
broadcast), so it draws two tags.
"""

from __future__ import annotations

from typing import Tuple

from repro.sched.emit import Emitter, planner_cache
from repro.sched.ir import BufRef, Schedule, Sym
from repro.sched.plans.baseline import (
    emit_bcast_binomial,
    emit_gather_binomial,
    emit_mpich_allgather,
    emit_mpich_allreduce,
    emit_reduce_binomial,
    emit_scatter_binomial,
)

__all__ = [
    "hier_tag_groups",
    "plan_hier_scatter",
    "plan_hier_allgather",
    "plan_hier_allreduce",
]

_SEND = BufRef("send")
_RECV = BufRef("recv")
_LEADER_TAG = Sym("leaders")


def _node_ranks(node: int, ppn: int) -> Tuple[int, ...]:
    return tuple(range(node * ppn, (node + 1) * ppn))


def _leaders(nodes: int, ppn: int) -> Tuple[int, ...]:
    return tuple(n * ppn for n in range(nodes))


def _node_tag(node: int, use: str) -> Sym:
    return Sym(f"node{node}.{use}")


def hier_tag_groups(
    collective: str, nodes: int, ppn: int
) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """``(symbol name, group ranks)`` of every tag one invocation draws,
    in the order the generator draws them (a group's tags must be drawn
    in order; different groups are independent)."""
    leaders = (_LEADER_TAG.name, _leaders(nodes, ppn))
    if collective == "scatter":
        uses, lead_at = ("scatter",), 0
    elif collective == "allgather":
        uses, lead_at = ("gather", "bcast"), 1
    else:
        uses, lead_at = ("reduce", "bcast"), 1
    out = []
    for i, use in enumerate(uses):
        if i == lead_at:
            out.append(leaders)
        out.extend(
            (_node_tag(n, use).name, _node_ranks(n, ppn))
            for n in range(nodes)
        )
    return tuple(out)


def _plan(nodes: int, ppn: int, label: str, emit_rank) -> Schedule:
    programs = []
    for rank in range(nodes * ppn):
        em = Emitter()
        emit_rank(em, *divmod(rank, ppn))
        programs.append(em.build())
    return Schedule(
        tuple(programs), num_namespaces=0, label=f"{label} {nodes}x{ppn}"
    )


@planner_cache
def plan_hier_scatter(nodes: int, ppn: int, count: int) -> Schedule:
    """Leader scatter of node blocks, then an intranode scatter."""
    leaders = _leaders(nodes, ppn)

    def emit_rank(em: Emitter, node: int, lr: int) -> None:
        ranks = _node_ranks(node, ppn)
        tag = _node_tag(node, "scatter")
        if lr == 0:
            node_block = em.alloc("node_block", ppn * count, dtype_of="recv")
            emit_scatter_binomial(
                em, leaders, node, _SEND if node == 0 else None, node_block,
                ppn * count, 0, _LEADER_TAG, prefix="leader_",
            )
            emit_scatter_binomial(
                em, ranks, 0, node_block, _RECV, count, 0, tag,
                prefix="intra_",
            )
        else:
            emit_scatter_binomial(
                em, ranks, lr, None, _RECV, count, 0, tag, prefix="intra_",
            )

    return _plan(nodes, ppn, f"hier-scatter c{count}", emit_rank)


@planner_cache
def plan_hier_allgather(nodes: int, ppn: int, count: int) -> Schedule:
    """Intranode gather, leader allgather (MPICH selection over the node
    blocks), intranode broadcast."""
    leaders = _leaders(nodes, ppn)

    def emit_rank(em: Emitter, node: int, lr: int) -> None:
        ranks = _node_ranks(node, ppn)
        gather_tag = _node_tag(node, "gather")
        if lr == 0:
            node_block = em.alloc("node_block", ppn * count, dtype_of="send")
            emit_gather_binomial(
                em, ranks, 0, _SEND, node_block, count, 0, gather_tag,
                prefix="intra_",
            )
            emit_mpich_allgather(
                em, leaders, node, node_block, _RECV, ppn * count,
                _LEADER_TAG, prefix="leader_",
            )
        else:
            emit_gather_binomial(
                em, ranks, lr, _SEND, None, count, 0, gather_tag,
                prefix="intra_",
            )
        emit_bcast_binomial(em, ranks, lr, _RECV, 0, _node_tag(node, "bcast"))

    return _plan(nodes, ppn, f"hier-allgather c{count}", emit_rank)


@planner_cache
def plan_hier_allreduce(nodes: int, ppn: int, count: int) -> Schedule:
    """Intranode reduce, leader allreduce (MPICH selection), intranode
    broadcast."""
    leaders = _leaders(nodes, ppn)

    def emit_rank(em: Emitter, node: int, lr: int) -> None:
        ranks = _node_ranks(node, ppn)
        reduce_tag = _node_tag(node, "reduce")
        if lr == 0:
            partial = em.alloc("partial", count, dtype_of="send")
            emit_reduce_binomial(
                em, ranks, 0, _SEND, partial, count, 0, reduce_tag,
                prefix="intra_",
            )
            emit_mpich_allreduce(
                em, leaders, node, partial, _RECV, count, _LEADER_TAG,
                prefix="leader_",
            )
        else:
            emit_reduce_binomial(
                em, ranks, lr, _SEND, None, count, 0, reduce_tag,
                prefix="intra_",
            )
        emit_bcast_binomial(em, ranks, lr, _RECV, 0, _node_tag(node, "bcast"))

    return _plan(nodes, ppn, f"hier-allreduce c{count}", emit_rank)
