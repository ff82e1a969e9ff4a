"""Planners for the paper's three primary collectives (§III-A, §III-B).

Each ``plan_*`` transcribes the control flow of the corresponding
``repro.core`` generator per rank, emitting the identical operation
sequence, and tags the algorithm phases (``PhaseStep``) for tracing and
per-phase accounting.  The intranode and ring building blocks are inlined
through their shared ``emit_*`` helpers with collective-scoped namespace
keys — exactly the keys the generators derived.

Namespace layout per schedule (drawn by the executor in index order):

* ``Ns(0)`` — the collective's own namespace (message tags, board keys);
* ``Ns(1)`` — the namespace of the one nested intranode collective the
  allreduce algorithms invoke (``intra_reduce_binomial`` / ``_chunked``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter, planner_cache
from repro.sched.ir import BufRef, Ns, Schedule, TagOffset
from repro.sched.plans.intranode import (
    emit_intra_reduce_binomial,
    emit_intra_reduce_chunked,
)
from repro.sched.plans.ring import emit_ring_allgather_blocks
from repro.util.intmath import ilog

__all__ = [
    "plan_scatter",
    "plan_allgather_small",
    "plan_allgather_large",
    "plan_allreduce_small",
    "plan_allreduce_large",
]


@planner_cache
def plan_scatter(
    nodes: int, ppn: int, count: int, root: int, overlap: bool
) -> Schedule:
    """§III-A1 multi-object scatter (one algorithm across all sizes)."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    root_node = root // P
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        vnode = (node - root_node) % N  # virtual node id, root node first
        em = Emitter()

        # ---- root: stage data in virtual-node order and post it ----------
        if rank == root:
            em.phase("stage")
            block = P * C
            if root_node == 0 or N == 1:
                staging = BufRef("send")
            else:
                # one rotation copy so virtual node v's block sits at v*block
                staging = em.alloc("staging", N * block, dtype_of="send")
                head = (N - root_node) * block
                em.copy(
                    staging.view(0, head),
                    BufRef("send", root_node * block, head),
                )
                em.copy(
                    staging.view(head, N * block - head),
                    BufRef("send", 0, N * block - head),
                )
            em.post((ns, "stage"), staging)

        # ---- internode (P+1)-ary tree rounds -----------------------------
        em.phase("internode-scatter")
        staging_ref = None
        sbase = 0  # virtual node id of staging block 0
        copied_own = False
        lo, hi = 0, N
        while hi - lo > 1:
            n = hi - lo
            parts = min(P + 1, n)
            counts, displs = block_partition(n, parts)
            if vnode == lo:
                # I am on the group-root node: multi-object send phase
                if staging_ref is None:
                    staging_ref = em.lookup((ns, "stage"), "stage")
                    sbase = lo
                chunk = lr + 1
                req = None
                if chunk < parts and counts[chunk] > 0:
                    dst_v = lo + displs[chunk]
                    dst_rank = ((root_node + dst_v) % N) * P
                    off = (dst_v - sbase) * P * C
                    req = em.isend(
                        dst_rank,
                        staging_ref.view(off, counts[chunk] * P * C),
                        tag,
                    )
                if overlap and not copied_own:
                    # overlapped intranode scatter of my own C elements
                    off = (vnode - sbase) * P * C + lr * C
                    em.copy(BufRef("recv"), staging_ref.view(off, C))
                    copied_own = True
                if req is not None:
                    em.wait(req)
                hi = lo + counts[0]
            else:
                # find my chunk and narrow
                rel = vnode - lo
                chunk = 0
                while not (displs[chunk] <= rel < displs[chunk] + counts[chunk]):
                    chunk += 1
                new_lo = lo + displs[chunk]
                if vnode == new_lo and lr == 0:
                    # my node receives its sub-tree's data this round
                    stg = em.alloc("stg", counts[chunk] * P * C, dtype_of="recv")
                    src_rank = ((root_node + lo) % N) * P + (chunk - 1)
                    rreq = em.irecv(src_rank, stg, tag)
                    em.wait(rreq)
                    em.post((ns, "stage"), stg)
                lo, hi = new_lo, new_lo + counts[chunk]

        # ---- final intranode scatter for ranks that never sent ------------
        if not copied_own:
            em.phase("intra-scatter")
            if staging_ref is None:
                staging_ref = em.lookup((ns, "stage"), "stage")
                sbase = lo
            off = (vnode - sbase) * P * C + lr * C
            em.copy(BufRef("recv"), staging_ref.view(off, C))
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-scatter {N}x{P} c{C} root{root}",
    )


@planner_cache
def plan_allgather_small(nodes: int, ppn: int, count: int) -> Schedule:
    """§III-A2 multi-object Bruck allgather, radix ``P + 1``."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    block = P * C  # one node block
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()

        # -- 1. intranode gather into the local root's staging buffer A ----
        em.phase("intra-gather")
        if lr == 0:
            A = em.alloc("A", N * block, dtype_of="send")
            em.post((ns, "A"), A)
        else:
            A = em.lookup((ns, "A"), "A")
        em.copy(A.view(lr * C, C), BufRef("send"))
        em.barrier((ns, "gathered"), P)

        # -- 2. multi-object Bruck rounds -----------------------------------
        em.phase("bruck")
        rnd = 0
        S = 1
        while S < N:
            offset = (lr + 1) * S
            cnt = max(0, min(S, N - S - lr * S))
            if cnt > 0:
                dst = ((node - offset) % N) * P + lr
                src = ((node + offset) % N) * P + lr
                rreq = em.irecv(src, A.view(offset * block, cnt * block), tag)
                sreq = em.isend(dst, A.view(0, cnt * block), tag)
                em.wait(rreq)
                em.wait(sreq)
            # next round's sends read blocks my peers received: synchronise
            em.barrier((ns, "round", rnd), P)
            S *= P + 1
            rnd += 1

        # -- 3. rotate into absolute order, into my receive buffer ---------
        em.phase("rotate")
        head = (N - node) * block
        em.copy(BufRef("recv", node * block, head), A.view(0, head))
        if node:
            em.copy(
                BufRef("recv", 0, node * block),
                A.view(head, N * block - head),
            )
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-allgather-small {N}x{P} c{C}",
    )


@planner_cache
def plan_allgather_large(
    nodes: int, ppn: int, count: int, overlap: bool = True
) -> Schedule:
    """§III-B1 multi-object ring allgather."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    block = P * C
    node_counts = tuple([block] * N)
    node_displs = tuple(b * block for b in range(N))
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()

        # -- 1. intranode gather into the local root's staging (absolute) --
        em.phase("intra-gather")
        if lr == 0:
            A = em.alloc("A", N * block, dtype_of="send")
            em.post((ns, "A"), A)
        else:
            A = em.lookup((ns, "A"), "A")
        em.copy(A.view(node * block + lr * C, C), BufRef("send"))
        em.barrier((ns, "gathered"), P)

        # -- 2+3. multi-object ring with overlapped intranode broadcast ----
        em.phase("ring-allgather")
        emit_ring_allgather_blocks(
            em, node, lr, N, P, (ns, "ring"), node_counts, node_displs,
            staging="A", recv="recv", overlap=overlap,
        )
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-allgather-large {N}x{P} c{C}",
    )


def _digits(value: int, base: int, ndigits: int) -> List[int]:
    """Base-``base`` digits of ``value``, least significant first."""
    out = []
    for _ in range(ndigits):
        value, d = divmod(value, base)
        out.append(d)
    return out


@planner_cache
def plan_allreduce_small(nodes: int, ppn: int, count: int) -> Schedule:
    """§III-A3 multi-object Bruck allreduce with digit-decomposition
    remainder handling."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    B = P + 1
    programs = []
    for rank in range(N * P):
        lr = rank % P
        node = rank // P
        em = Emitter()

        # -- 1. intranode binomial reduce into the local root's recvbuf ----
        em.phase("intranode-reduce")
        emit_intra_reduce_binomial(
            em, lr, P, C, 0, ("irb", Ns(1)), send="send", recv="recv"
        )
        if lr == 0:
            acc = BufRef("recv")
            em.post((ns, "acc"), acc)
        else:
            acc = em.lookup((ns, "acc"), "acc")

        if N > 1:
            em.phase("bruck")
            k = ilog(B, N)
            W = B**k
            R = N - W
            digits = _digits(R, B, k + 1)

            # persistent per-process receive temp, posted once (the real
            # implementation exchanges these addresses at communicator setup)
            temp = em.alloc("tmp", C, dtype_of="send")
            em.post((ns, "tmp", lr), temp)
            peer_temps: List[BufRef] = []
            for peer in range(P):
                if peer == lr:
                    peer_temps.append(temp)
                else:
                    peer_temps.append(
                        em.lookup((ns, "tmp", peer), f"tmp{peer}")
                    )

            my_counts, my_displs = block_partition(C, P)
            my_off, my_cnt = my_displs[lr], my_counts[lr]

            # snapshot buffers for non-zero remainder digits (paper's A_r)
            snaps: Dict[int, BufRef] = {}
            for j in range(k):
                if digits[j]:
                    if lr == 0:
                        s = em.alloc(f"snap{j}", C, dtype_of="send")
                        em.post((ns, "snap", j), s)
                    else:
                        s = em.lookup((ns, "snap", j), f"snap{j}")
                    snaps[j] = s

            # window-1 snapshot: acc before any internode round touches it
            if 0 in snaps:
                if my_cnt:
                    em.copy(
                        snaps[0].view(my_off, my_cnt),
                        acc.view(my_off, my_cnt),
                    )
                em.barrier((ns, "snap-bar", 0), P)

            # -- 2. full multi-object Bruck rounds --------------------------
            for j in range(k):
                S = B**j
                offset = (lr + 1) * S
                dst = ((node - offset) % N) * P + lr
                src = ((node + offset) % N) * P + lr
                rreq = em.irecv(src, temp, tag)
                sreq = em.isend(dst, acc, tag)
                em.wait(rreq)
                em.wait(sreq)
                em.barrier((ns, "recvd", j), P)
                # chunk-parallel fold of all P received partials into acc
                if my_cnt:
                    for t in peer_temps:
                        em.reduce(
                            acc.view(my_off, my_cnt), t.view(my_off, my_cnt)
                        )
                em.barrier((ns, "folded", j), P)
                if (j + 1) in snaps:
                    # window B^(j+1) snapshot, chunk-parallel copy
                    if my_cnt:
                        em.copy(
                            snaps[j + 1].view(my_off, my_cnt),
                            acc.view(my_off, my_cnt),
                        )
                    em.barrier((ns, "snap-bar", j + 1), P)

            # -- 3. remainder phase (digit decomposition) --------------------
            if R:
                em.phase("remainder")
                pairs: List[Tuple[int, int]] = []  # (node offset, window j)
                O = W
                for j in range(k, -1, -1):
                    for _ in range(digits[j]):
                        pairs.append((O, j))
                        O += B**j
                assert O == N
                mine = pairs[lr::P]
                rtemps = []
                reqs = []
                for idx, (offset, j) in enumerate(mine):
                    src = ((node + offset) % N) * P + lr
                    dst = ((node - offset) % N) * P + lr
                    rt = em.alloc(f"rtmp{idx}", C, dtype_of="send")
                    em.post((ns, "rtmp", lr, idx), rt)
                    rtemps.append(rt)
                    payload = acc if j == k else snaps[j]
                    rtag = TagOffset(Ns(0), 1 + idx)
                    reqs.append(em.irecv(src, rt, rtag))
                    reqs.append(em.isend(dst, payload, rtag))
                em.wait(*reqs)
                em.barrier((ns, "rem-recvd"), P)
                # chunk-parallel fold of every remainder temp into acc
                if my_cnt:
                    for peer in range(P):
                        n_l = len(pairs[peer::P])
                        for idx in range(n_l):
                            if peer == lr:
                                rt = rtemps[idx]
                            else:
                                rt = em.lookup(
                                    (ns, "rtmp", peer, idx),
                                    f"rtmp_{peer}_{idx}",
                                )
                            em.reduce(
                                acc.view(my_off, my_cnt),
                                rt.view(my_off, my_cnt),
                            )
                em.barrier((ns, "rem-folded"), P)

        # -- 4. intranode broadcast of the final result --------------------
        if lr != 0:
            em.phase("intra-bcast")
            em.copy(BufRef("recv"), acc)
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=2,
        label=f"mcoll-allreduce-small {N}x{P} c{C}",
    )


def _owner_of(node: int, node_counts, node_displs) -> int:
    """Local rank whose paired-node range contains ``node``."""
    for lr, (cnt, off) in enumerate(zip(node_counts, node_displs)):
        if off <= node < off + cnt:
            return lr
    raise AssertionError(f"node {node} not covered by any paired range")


@planner_cache
def plan_allreduce_large(nodes: int, ppn: int, count: int) -> Schedule:
    """§III-B2 reduce-scatter + multi-object ring allgather."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()

        # -- 1. intranode chunk-parallel reduce into the local root's A ----
        em.phase("intranode-reduce")
        if lr == 0:
            em.alloc("A", C, dtype_of="send")
            em.post((ns, "A"), BufRef("A"))
        else:
            em.lookup((ns, "A"), "A")
        emit_intra_reduce_chunked(
            em, lr, P, C, 0, True, ("irc", Ns(1)), send="send", recv="A"
        )
        A = BufRef("A")

        if N > 1:
            # -- 2. internode multi-object reduce-scatter -------------------
            em.phase("reduce-scatter")
            chunk_counts, chunk_displs = block_partition(C, N)
            node_counts, node_displs = block_partition(N, P)
            my_nodes = range(
                node_displs[lr], node_displs[lr] + node_counts[lr]
            )
            owner_local = _owner_of(node, node_counts, node_displs)

            reqs = []
            rtemps = []
            if lr == owner_local and chunk_counts[node]:
                # I fold the N-1 incoming copies of my node's chunk
                for n in range(N):
                    if n == node:
                        continue
                    rt = em.alloc(f"rs{n}", chunk_counts[node], dtype_of="send")
                    rtemps.append(rt)
                    reqs.append(em.irecv(n * P + owner_local, rt, tag))
            for n in my_nodes:
                if n == node or chunk_counts[n] == 0:
                    continue
                dst_owner = _owner_of(n, node_counts, node_displs)
                reqs.append(
                    em.isend(
                        n * P + dst_owner,
                        A.view(chunk_displs[n], chunk_counts[n]),
                        tag,
                    )
                )
            em.wait(*reqs)
            for rt in rtemps:
                em.reduce(
                    A.view(chunk_displs[node], chunk_counts[node]), rt
                )
            # everyone must see the node's finished chunk before the ring
            em.barrier((ns, "rs-done"), P)

            # -- 3. multi-object ring allgather of the chunks ---------------
            em.phase("ring-allgather")
            emit_ring_allgather_blocks(
                em, node, lr, N, P, (ns, "ring"), chunk_counts, chunk_displs,
                staging="A", recv="recv", overlap=True,
            )
        else:
            # single node: A already holds the global result (all_wait above
            # synchronised every rank on its completion)
            em.phase("intra-bcast")
            em.copy(BufRef("recv"), A)
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=2,
        label=f"mcoll-allreduce-large {N}x{P} c{C}",
    )
