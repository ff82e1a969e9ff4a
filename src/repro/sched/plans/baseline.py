"""Planners for the classical group algorithms the baselines run.

These back the flat libraries' MPICH-style selection and the building
blocks of the leader-based compositions
(:mod:`repro.sched.plans.hierarchical`):

* allgather — Bruck (small, non-power-of-two), recursive doubling (small,
  power-of-two), ring (large); :func:`emit_mpich_allgather` selects;
* allreduce — recursive doubling (up to 2 kB) and Rabenseifner's
  reduce-scatter + allgather, both with the non-power-of-two fold;
  :func:`emit_mpich_allreduce` selects;
* binomial-tree scatter, gather, broadcast and reduce.

Each ``emit_*`` transcribes one ``repro.mpi.collectives`` generator for
one group member (group index ``me``): every send, receive, wait, copy,
reduction and scratch allocation sits at exactly the position the
generator performed it — ``ctx.send`` is an isend and its wait,
``ctx.recv`` an irecv and its wait, ``ctx.sendrecv`` irecv, isend, wait,
wait — so replay is bit-identical in simulated time.  ``SendStep`` /
``RecvStep`` targets are the group members' global ranks, baked in at
plan time.  The communicator-scoped message tag is the ``tag`` argument,
normally a :class:`~repro.sched.ir.Sym`: it comes from
:meth:`RankCtx.collective_tag` (or ``FastWorld.next_group_tag``), whose
per-group counters advance per invocation.  ``prefix`` keeps the scratch
buffer names of composed building blocks apart.

The ``plan_*`` functions wrap one emitter into a standalone schedule whose
programs are indexed by group index, with inputs bound as ``"send"`` /
``"recv"`` and the tag as ``Sym("tag")``: the allgathers, the allreduces
and the scatter, which back the flat libraries' pairs.  Gather, broadcast
and reduce only run inside the hierarchical compositions, as emitters.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter, planner_cache
from repro.sched.ir import BufRef, Schedule, Sym
from repro.util.intmath import is_power_of
from repro.util.units import KB

__all__ = [
    "MPICH_ALLGATHER_RING_TOTAL",
    "MPICH_ALLREDUCE_RD_MAX",
    "emit_allgather_bruck",
    "emit_allgather_recursive_doubling",
    "emit_allgather_ring",
    "emit_mpich_allgather",
    "emit_allreduce_recursive_doubling",
    "emit_allreduce_rabenseifner",
    "emit_mpich_allreduce",
    "emit_scatter_binomial",
    "emit_gather_binomial",
    "emit_bcast_binomial",
    "emit_reduce_binomial",
    "plan_allgather_bruck",
    "plan_allgather_recursive_doubling",
    "plan_allgather_ring",
    "plan_mpich_allgather",
    "plan_allreduce_recursive_doubling",
    "plan_allreduce_rabenseifner",
    "plan_mpich_allreduce",
    "plan_scatter_binomial",
]

_TAG = Sym("tag")
_SEND = BufRef("send")
_RECV = BufRef("recv")

#: MPICH's flat allgather switches to the ring at this *total* receive
#: size.  The one definition of the switch: the generators
#: (``repro.baselines.libraries``) and the analytic formulas import it.
MPICH_ALLGATHER_RING_TOTAL = 80 * KB
#: MPICH's allreduce runs recursive doubling up to and including this
#: per-process size, Rabenseifner above (imported likewise)
MPICH_ALLREDUCE_RD_MAX = 2 * KB


# ---------------------------------------------------------------------------
# allgather
# ---------------------------------------------------------------------------

def emit_allgather_bruck(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag, prefix: str = "",
) -> None:
    """Bruck allgather: ``ceil(log2 size)`` rounds, any group size."""
    size = len(ranks)
    em.phase("bruck")
    if size == 1:
        em.copy(recv, send)
        return

    staging = em.alloc(prefix + "staging", size * count, dtype_of=send.name)
    em.copy(staging.view(0, count), send)

    pof = 1
    while pof < size:
        blocks = min(pof, size - pof)
        dst = ranks[(me - pof) % size]
        src = ranks[(me + pof) % size]
        rreq = em.irecv(src, staging.view(pof * count, blocks * count), tag)
        sreq = em.isend(dst, staging.view(0, blocks * count), tag)
        em.wait(rreq)
        em.wait(sreq)
        pof <<= 1

    # staging block j holds rank (me + j) % size's data; rotate so that
    # recvbuf block i holds group index i's data
    head = size - me
    em.copy(recv.view(me * count, head * count), staging.view(0, head * count))
    if me:
        em.copy(
            recv.view(0, me * count), staging.view(head * count, me * count)
        )


def emit_allgather_recursive_doubling(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag,
) -> None:
    """Recursive-doubling allgather (power-of-two group sizes only)."""
    size = len(ranks)
    em.phase("recursive-doubling")
    em.copy(recv.view(me * count, count), send)

    mask = 1
    while mask < size:
        partner = me ^ mask
        base = (me // mask) * mask
        pbase = (partner // mask) * mask
        dst = ranks[partner]
        rreq = em.irecv(dst, recv.view(pbase * count, mask * count), tag)
        sreq = em.isend(dst, recv.view(base * count, mask * count), tag)
        em.wait(rreq)
        em.wait(sreq)
        mask <<= 1


def emit_allgather_ring(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag,
) -> None:
    """Ring allgather: ``size - 1`` rounds of neighbour exchange."""
    size = len(ranks)
    em.phase("ring")
    em.copy(recv.view(me * count, count), send)
    if size == 1:
        return

    right = ranks[(me + 1) % size]
    left = ranks[(me - 1) % size]
    for step in range(size - 1):
        send_block = (me - step) % size
        recv_block = (me - step - 1) % size
        rreq = em.irecv(left, recv.view(recv_block * count, count), tag)
        sreq = em.isend(right, recv.view(send_block * count, count), tag)
        em.wait(rreq)
        em.wait(sreq)


def _mpich_allgather_algorithm(size: int, count: int) -> str:
    """MPICH's default allgather selection (total size + power of two)."""
    if size * count >= MPICH_ALLGATHER_RING_TOTAL:
        return "ring"
    return "recursive-doubling" if is_power_of(2, size) else "bruck"


def emit_mpich_allgather(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag, prefix: str = "",
) -> None:
    """The allgather MPICH's selection picks for this group and size."""
    algorithm = _mpich_allgather_algorithm(len(ranks), count)
    if algorithm == "ring":
        emit_allgather_ring(em, ranks, me, send, recv, count, tag)
    elif algorithm == "recursive-doubling":
        emit_allgather_recursive_doubling(
            em, ranks, me, send, recv, count, tag
        )
    else:
        emit_allgather_bruck(em, ranks, me, send, recv, count, tag, prefix)


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------

def _pof2_floor(size: int) -> int:
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    return pof2


def _core_to_group(newrank: int, rem: int) -> int:
    """Map a power-of-two core rank back to its group index."""
    return newrank * 2 + 1 if newrank < rem else newrank + rem


def _emit_fold_in(
    em: Emitter, ranks, me: int, rem: int, acc: BufRef, tmp: BufRef, tag,
) -> int:
    """Pre-step: collapse to a power-of-two set.  Returns my new rank or -1."""
    if me < 2 * rem:
        if me % 2 == 0:
            em.wait(em.isend(ranks[me + 1], acc, tag))
            return -1
        em.wait(em.irecv(ranks[me - 1], tmp, tag))
        em.reduce(acc, tmp)
        return me // 2
    return me - rem


def _emit_fold_out(
    em: Emitter, ranks, me: int, rem: int, acc: BufRef, tag,
) -> None:
    """Post-step: odd ranks return the final result to their even partner."""
    if me < 2 * rem:
        if me % 2 == 0:
            em.wait(em.irecv(ranks[me + 1], acc, tag))
        else:
            em.wait(em.isend(ranks[me - 1], acc, tag))


def emit_allreduce_recursive_doubling(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag, prefix: str = "",
) -> None:
    """Recursive-doubling allreduce: ``log2`` rounds of full-buffer
    exchanges."""
    size = len(ranks)
    em.phase("recursive-doubling")
    em.copy(recv, send)
    if size == 1:
        return
    tmp = em.alloc(prefix + "tmp", count, dtype_of=send.name)
    pof2 = _pof2_floor(size)
    rem = size - pof2

    newrank = _emit_fold_in(em, ranks, me, rem, recv, tmp, tag)
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner = ranks[_core_to_group(newrank ^ mask, rem)]
            rreq = em.irecv(partner, tmp, tag)
            sreq = em.isend(partner, recv, tag)
            em.wait(rreq)
            em.wait(sreq)
            em.reduce(recv, tmp)
            mask <<= 1
    _emit_fold_out(em, ranks, me, rem, recv, tag)


def emit_allreduce_rabenseifner(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag, prefix: str = "",
) -> None:
    """Rabenseifner's allreduce: recursive-halving reduce-scatter, then a
    recursive-doubling allgather over ``block_partition``'s blocks."""
    size = len(ranks)
    em.phase("rabenseifner")
    em.copy(recv, send)
    if size == 1:
        return
    tmp = em.alloc(prefix + "tmp", count, dtype_of=send.name)
    pof2 = _pof2_floor(size)
    rem = size - pof2

    newrank = _emit_fold_in(em, ranks, me, rem, recv, tmp, tag)
    if newrank != -1:
        counts, displs = block_partition(count, pof2)

        def block_range(lo: int, hi: int) -> Tuple[int, int]:
            off = displs[lo]
            return off, displs[hi - 1] + counts[hi - 1] - off

        # reduce-scatter by recursive halving
        lo, hi = 0, pof2
        mask = pof2 >> 1
        while mask > 0:
            half = (hi - lo) // 2
            mid = lo + half
            partner = ranks[_core_to_group(newrank ^ half, rem)]
            if newrank < mid:
                send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
            else:
                send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
            s_off, s_cnt = block_range(send_lo, send_hi)
            k_off, k_cnt = block_range(keep_lo, keep_hi)
            rreq = em.irecv(partner, tmp.view(k_off, k_cnt), tag)
            sreq = em.isend(partner, recv.view(s_off, s_cnt), tag)
            em.wait(rreq)
            em.wait(sreq)
            em.reduce(recv.view(k_off, k_cnt), tmp.view(k_off, k_cnt))
            lo, hi = keep_lo, keep_hi
            mask >>= 1

        # allgather by recursive doubling
        length = 1
        while length < pof2:
            partner_new = newrank ^ length
            partner = ranks[_core_to_group(partner_new, rem)]
            plo = (partner_new // length) * length
            phi = plo + length
            s_off, s_cnt = block_range(lo, hi)
            p_off, p_cnt = block_range(plo, phi)
            rreq = em.irecv(partner, recv.view(p_off, p_cnt), tag)
            sreq = em.isend(partner, recv.view(s_off, s_cnt), tag)
            em.wait(rreq)
            em.wait(sreq)
            lo, hi = min(lo, plo), max(hi, phi)
            length *= 2

    _emit_fold_out(em, ranks, me, rem, recv, tag)


def _mpich_allreduce_algorithm(count: int) -> str:
    """MPICH's default allreduce selection (the 2 kB switch)."""
    if count <= MPICH_ALLREDUCE_RD_MAX:
        return "recursive-doubling"
    return "rabenseifner"


def emit_mpich_allreduce(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: BufRef, count: int, tag, prefix: str = "",
) -> None:
    """The allreduce MPICH's selection picks for this size."""
    if _mpich_allreduce_algorithm(count) == "recursive-doubling":
        emit_allreduce_recursive_doubling(
            em, ranks, me, send, recv, count, tag, prefix
        )
    else:
        emit_allreduce_rabenseifner(
            em, ranks, me, send, recv, count, tag, prefix
        )


# ---------------------------------------------------------------------------
# binomial trees
# ---------------------------------------------------------------------------

def emit_scatter_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: Optional[BufRef],
    recv: BufRef, count: int, root_index: int, tag, prefix: str = "",
) -> None:
    """Binomial-tree scatter of the root's ``send`` (``size * count``
    elements, by group index) into every member's ``recv``."""
    size = len(ranks)
    em.phase("binomial-scatter")
    if size == 1:
        em.copy(recv, send.view(0, count))
        return
    relrank = (me - root_index) % size

    if relrank == 0:
        if root_index == 0:
            staging = send
        else:
            # rotate into relative-rank order
            staging = em.alloc(
                prefix + "staging", size * count, dtype_of=send.name
            )
            head = size - root_index
            em.copy(
                staging.view(0, head * count),
                send.view(root_index * count, head * count),
            )
            em.copy(
                staging.view(head * count, root_index * count),
                send.view(0, root_index * count),
            )
        mask = 1
        while mask < size:
            mask <<= 1
        mask >>= 1
    else:
        mask = 1
        while not (relrank & mask):
            mask <<= 1
        my_blocks = min(mask, size - relrank)
        staging = em.alloc(
            prefix + "staging", my_blocks * count, dtype_of=recv.name
        )
        parent = ranks[(relrank - mask + root_index) % size]
        em.wait(em.irecv(parent, staging, tag))
        mask >>= 1

    # forward sub-blocks to children, largest subtree first
    while mask > 0:
        child_rel = relrank + mask
        if child_rel < size:
            child_blocks = min(mask, size - child_rel)
            dst = ranks[(child_rel + root_index) % size]
            em.wait(em.isend(
                dst, staging.view(mask * count, child_blocks * count), tag
            ))
        mask >>= 1

    em.copy(recv, staging.view(0, count))


def emit_gather_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: Optional[BufRef], count: int, root_index: int, tag,
    prefix: str = "",
) -> None:
    """Binomial-tree gather of every member's ``send`` into the root's
    ``recv`` (ordered by group index)."""
    size = len(ranks)
    em.phase("binomial-gather")
    if size == 1:
        em.copy(recv.view(0, count), send)
        return
    relrank = (me - root_index) % size

    mask = 1
    while not (relrank & mask) and mask < size:
        mask <<= 1
    my_blocks = min(mask, size - relrank) if relrank else size
    staging = em.alloc(
        prefix + "staging", my_blocks * count, dtype_of=send.name
    )
    em.copy(staging.view(0, count), send)

    # collect from children, smallest subtree first
    submask = 1
    while submask < (mask if relrank else size):
        child_rel = relrank + submask
        if child_rel < size:
            child_blocks = min(submask, size - child_rel)
            src = ranks[(child_rel + root_index) % size]
            em.wait(em.irecv(
                src, staging.view(submask * count, child_blocks * count), tag
            ))
        submask <<= 1

    if relrank != 0:
        parent = ranks[(relrank - mask + root_index) % size]
        em.wait(em.isend(parent, staging, tag))
        return

    # root: staging holds blocks in relative order; rotate into recv
    if root_index == 0:
        em.copy(recv, staging)
    else:
        head = size - root_index
        em.copy(
            recv.view(root_index * count, head * count),
            staging.view(0, head * count),
        )
        em.copy(
            recv.view(0, root_index * count),
            staging.view(head * count, root_index * count),
        )


def emit_bcast_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, buf: BufRef,
    root_index: int, tag,
) -> None:
    """Binomial-tree broadcast of ``buf`` from group index ``root_index``."""
    size = len(ranks)
    em.phase("binomial-bcast")
    if size == 1:
        return
    relrank = (me - root_index) % size

    mask = 1
    while mask < size:
        if relrank & mask:
            src = ranks[(relrank - mask + root_index) % size]
            em.wait(em.irecv(src, buf, tag))
            break
        mask <<= 1
    # forward to children, highest subtree first
    mask >>= 1
    while mask > 0:
        if relrank + mask < size:
            dst = ranks[(relrank + mask + root_index) % size]
            em.wait(em.isend(dst, buf, tag))
        mask >>= 1


def emit_reduce_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, send: BufRef,
    recv: Optional[BufRef], count: int, root_index: int, tag,
    prefix: str = "",
) -> None:
    """Binomial-tree reduction into the root's ``recv``."""
    size = len(ranks)
    em.phase("binomial-reduce")
    if size == 1:
        em.copy(recv, send)
        return
    relrank = (me - root_index) % size

    # accumulate into recv at the root, a scratch buffer elsewhere
    if relrank == 0:
        acc = recv
    else:
        acc = em.alloc(prefix + "acc", count, dtype_of=send.name)
    em.copy(acc, send)
    tmp = em.alloc(prefix + "tmp", count, dtype_of=send.name)

    mask = 1
    while mask < size:
        if relrank & mask:
            dst = ranks[(relrank - mask + root_index) % size]
            em.wait(em.isend(dst, acc, tag))
            return
        src_rel = relrank | mask
        if src_rel < size:
            src = ranks[(src_rel + root_index) % size]
            em.wait(em.irecv(src, tmp, tag))
            em.reduce(acc, tmp)
        mask <<= 1


# ---------------------------------------------------------------------------
# standalone schedules (programs indexed by group index)
# ---------------------------------------------------------------------------

def _group_schedule(ranks, label: str, emit_one) -> Schedule:
    programs = []
    for me in range(len(ranks)):
        em = Emitter()
        emit_one(em, me)
        programs.append(em.build())
    return Schedule(tuple(programs), num_namespaces=0, label=label)


@planner_cache
def plan_allgather_bruck(ranks: Tuple[int, ...], count: int) -> Schedule:
    """Bruck allgather: ``ceil(log2 size)`` rounds, any group size."""
    return _group_schedule(
        ranks, f"allgather-bruck g{len(ranks)} c{count}",
        lambda em, me: emit_allgather_bruck(
            em, ranks, me, _SEND, _RECV, count, _TAG
        ),
    )


@planner_cache
def plan_allgather_recursive_doubling(
    ranks: Tuple[int, ...], count: int
) -> Schedule:
    """Recursive-doubling allgather (power-of-two group sizes only)."""
    return _group_schedule(
        ranks, f"allgather-recursive-doubling g{len(ranks)} c{count}",
        lambda em, me: emit_allgather_recursive_doubling(
            em, ranks, me, _SEND, _RECV, count, _TAG
        ),
    )


@planner_cache
def plan_allgather_ring(ranks: Tuple[int, ...], count: int) -> Schedule:
    """Ring allgather: ``size - 1`` rounds of neighbour exchange."""
    return _group_schedule(
        ranks, f"allgather-ring g{len(ranks)} c{count}",
        lambda em, me: emit_allgather_ring(
            em, ranks, me, _SEND, _RECV, count, _TAG
        ),
    )


def plan_mpich_allgather(ranks: Tuple[int, ...], count: int) -> Schedule:
    """The allgather schedule MPICH's selection picks (one of the three
    memoized planners above)."""
    algorithm = _mpich_allgather_algorithm(len(ranks), count)
    if algorithm == "ring":
        return plan_allgather_ring(ranks, count)
    if algorithm == "recursive-doubling":
        return plan_allgather_recursive_doubling(ranks, count)
    return plan_allgather_bruck(ranks, count)


@planner_cache
def plan_allreduce_recursive_doubling(
    ranks: Tuple[int, ...], count: int
) -> Schedule:
    """Recursive-doubling allreduce (any group size, via the fold)."""
    return _group_schedule(
        ranks, f"allreduce-recursive-doubling g{len(ranks)} c{count}",
        lambda em, me: emit_allreduce_recursive_doubling(
            em, ranks, me, _SEND, _RECV, count, _TAG
        ),
    )


@planner_cache
def plan_allreduce_rabenseifner(
    ranks: Tuple[int, ...], count: int
) -> Schedule:
    """Rabenseifner allreduce (any group size, via the fold)."""
    return _group_schedule(
        ranks, f"allreduce-rabenseifner g{len(ranks)} c{count}",
        lambda em, me: emit_allreduce_rabenseifner(
            em, ranks, me, _SEND, _RECV, count, _TAG
        ),
    )


def plan_mpich_allreduce(ranks: Tuple[int, ...], count: int) -> Schedule:
    """The allreduce schedule MPICH's selection picks (one of the two
    memoized planners above)."""
    if _mpich_allreduce_algorithm(count) == "recursive-doubling":
        return plan_allreduce_recursive_doubling(ranks, count)
    return plan_allreduce_rabenseifner(ranks, count)


@planner_cache
def plan_scatter_binomial(
    ranks: Tuple[int, ...], count: int, root_index: int = 0
) -> Schedule:
    """Binomial scatter; only the root binds ``"send"``."""
    return _group_schedule(
        ranks, f"scatter-binomial g{len(ranks)} c{count} r{root_index}",
        lambda em, me: emit_scatter_binomial(
            em, ranks, me, _SEND if me == root_index else None, _RECV,
            count, root_index, _TAG,
        ),
    )
