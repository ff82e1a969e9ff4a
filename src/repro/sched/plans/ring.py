"""Planner for the multi-object internode ring (Fig. 4 core).

``emit_ring_allgather_blocks`` transcribes ``repro.core.ring`` for one
rank; the primary planners inline it with their own namespace key, and
:func:`plan_ring_allgather_blocks` wraps it into a standalone schedule (the
caller-supplied namespace stays symbolic — ``Sym("ns")`` — because the
public entry point receives it as an argument).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter, planner_cache
from repro.sched.ir import BufRef, HashTag, Schedule, Sym

__all__ = ["emit_ring_allgather_blocks", "plan_ring_allgather_blocks"]


def emit_ring_allgather_blocks(
    em: Emitter,
    node: int,
    lr: int,
    nodes: int,
    ppn: int,
    ns_key,
    node_counts: Sequence[int],
    node_displs: Sequence[int],
    staging: str = "staging",
    recv: str = "recv",
    overlap: bool = True,
) -> None:
    """Ring-allgather node blocks through ``staging`` into ``recv``.

    Same preconditions as the generator: the node's own block is complete
    in the shared staging buffer and all local ranks have synchronised on
    that fact.
    """
    N, P = nodes, ppn
    tag = HashTag(ns_key)
    stag = BufRef(staging)
    rbuf = BufRef(recv)

    def lane(b: int) -> Tuple[int, int]:
        # (element offset, count) of my lane's slice of block ``b``
        counts, displs = block_partition(node_counts[b], P)
        return node_displs[b] + displs[lr], counts[lr]

    def blk_key(b: int):
        return (ns_key, "blk", b)

    # own block is complete by precondition
    own = node
    em.copy(
        rbuf.view(node_displs[own], node_counts[own]),
        stag.view(node_displs[own], node_counts[own]),
    )
    if N == 1:
        return

    right = ((node + 1) % N) * P + lr
    left = ((node - 1) % N) * P + lr

    for step in range(N - 1):
        send_block = (node - step) % N
        recv_block = (node - step - 1) % N
        s_off, s_cnt = lane(send_block)
        r_off, r_cnt = lane(recv_block)
        rreq = em.irecv(left, stag.view(r_off, r_cnt), tag)
        sreq = em.isend(right, stag.view(s_off, s_cnt), tag)

        if overlap and step > 0:
            # overlapped intranode broadcast of the block completed last step
            done_block = (node - step) % N
            em.counter_wait(blk_key(done_block), P)
            em.copy(
                rbuf.view(node_displs[done_block], node_counts[done_block]),
                stag.view(node_displs[done_block], node_counts[done_block]),
            )

        em.wait(rreq)
        em.wait(sreq)
        em.counter_add(blk_key(recv_block), 1)

    # drain: everything not yet broadcast intranode (just the final step's
    # block with overlap on; all N-1 foreign blocks with it off)
    pending = (
        [(node + 1) % N]
        if overlap
        else [b for b in range(N) if b != node]
    )
    for b in pending:
        em.counter_wait(blk_key(b), P)
        em.copy(
            rbuf.view(node_displs[b], node_counts[b]),
            stag.view(node_displs[b], node_counts[b]),
        )


@planner_cache
def plan_ring_allgather_blocks(
    nodes: int,
    ppn: int,
    node_counts: Tuple[int, ...],
    node_displs: Tuple[int, ...],
    overlap: bool,
) -> Schedule:
    """Standalone schedule (programs indexed by global rank); the caller's
    namespace binds through ``symbols={"ns": ...}`` at execution."""
    programs = []
    for rank in range(nodes * ppn):
        node, lr = divmod(rank, ppn)
        em = Emitter()
        emit_ring_allgather_blocks(
            em, node, lr, nodes, ppn, Sym("ns"), node_counts, node_displs,
            overlap=overlap,
        )
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=0,
        label=f"ring-allgather {nodes}x{ppn}",
    )
