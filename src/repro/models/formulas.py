"""Closed-form runtime models of the PiP-MColl algorithms (§III).

Each function transcribes a runtime equation from the paper, taking the
:class:`~repro.models.hockney.HockneyParams` scalars plus the workload
shape: ``cb`` = per-process message bytes, ``n`` = nodes, ``p`` = processes
per node.

These are *models*, not simulations: they ignore queueing and contention.
The test suite cross-validates the simulator against them on the properties
the paper derives — linearity in ``C_b``, logarithmic/linear behaviour in
``N``, and the quadratic blow-up that motivates the large-message
algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hw.params import MachineParams
from repro.models.hockney import HockneyParams
from repro.sched.plans.baseline import MPICH_ALLGATHER_RING_TOTAL

__all__ = [
    "scatter_time",
    "allgather_small_time",
    "allgather_large_time",
    "allreduce_small_time",
    "allreduce_large_time",
    "AnalyticParams",
    "scatter_refined",
    "allgather_refined",
    "allreduce_small_refined",
    "allreduce_large_refined",
    "flat_allgather_refined",
]


def _log_ceil(base: int, n: int) -> int:
    if n <= 1:
        return 0
    return math.ceil(math.log(n) / math.log(base))


def scatter_time(h: HockneyParams, cb: int, n: int, p: int) -> float:
    """§III-A1: ``T = max(T_intrascatter, T_interscatter)``."""
    t_intra = h.a_r + p * cb * h.b_r
    t_inter = h.a_e * _log_ceil(p + 1, n) + cb * (n - 1) * p * h.b_e
    return max(t_intra, t_inter)


def allgather_small_time(h: HockneyParams, cb: int, n: int, p: int) -> float:
    """§III-A2: intranode gather plus multi-object Bruck; note the
    quadratic ``C_b`` term in the internode part (the paper's motivation
    for a separate large-message algorithm).

    The paper's printed internode byte term is ``(C_b*P - 1) * C_b * P``;
    dimensional analysis (bytes x bytes) shows the first factor is the
    block *count* ``N - 1``, so we use ``(N - 1) * C_b * P`` for the bytes
    on the wire per node and keep the quadratic behaviour via the
    per-round growth in transmitted prefix size.
    """
    t_intra = h.a_r + (1 + n * p * (p - 1)) * cb * h.b_r / p
    rounds = _log_ceil(p + 1, n)
    # per round r the node ships ~ (P+1)^r * P * C_b bytes; summed this is
    # ~ (N - 1) * C_b * P total per node
    t_inter = h.a_e * rounds + (n - 1) * cb * p * h.b_e
    return t_intra + t_inter


def allgather_large_time(h: HockneyParams, cb: int, n: int, p: int) -> float:
    """§III-B1: gather + max(overlapped intranode bcast, internode ring)."""
    t_gather = h.a_r + (p - 1) * cb * h.b_r
    t_bcast = h.a_r * (n - 1) + (p - 1) * n * p * cb * h.b_r / p
    t_ring = h.a_e * (n - 1) + p * cb * (n - 1) * h.b_e
    return t_gather + max(t_bcast, t_ring)


def allreduce_small_time(h: HockneyParams, cb: int, n: int, p: int) -> float:
    """§III-A3: intranode binomial reduce + multi-object Bruck with
    per-round reductions."""
    lg_p = math.ceil(math.log2(p)) if p > 1 else 0
    t_intra = h.a_r * lg_p + cb * lg_p * h.b_r + cb * lg_p * h.gamma
    rounds = _log_ceil(p + 1, n)
    t_inter = (
        h.a_e * rounds + cb * p * rounds * h.b_e + cb * rounds * h.gamma
    )
    return t_intra + t_inter


def allreduce_large_time(h: HockneyParams, cb: int, n: int, p: int) -> float:
    """§III-B2: chunked intranode reduce + reduce-scatter +
    max(intranode bcast, internode allgather of chunks)."""
    t_intra_reduce = h.a_r * (p - 1) + cb * p * h.gamma / p
    t_rscatter = (
        h.a_e * (p - 1)
        + (n - 1) * cb / n * h.b_e
        + cb / n * (n - 1) * h.gamma
    )
    t_bcast = h.a_r * (n - 1) + (n - 1) * cb / n * h.b_r
    t_ring = h.a_e * (n - 1) + cb / n * (n - 1) * h.b_e
    return t_intra_reduce + t_rscatter + max(t_bcast, t_ring)


# ---------------------------------------------------------------------------
# Refined closed forms for the ``engine="analytic"`` tier.
#
# The paper transcriptions above deliberately ignore queueing; the analytic
# engine needs expressions that track the *simulator* (its ground truth)
# closely enough for an error-bounded contract.  The refinements add exactly
# the first-order contention effects the simulator models:
#
# * eager vs rendezvous wire streams — a single sender is bounded by its
#   injection copy (``proc_bandwidth``) below the eager threshold and by the
#   NIC DMA pull (``proc_dma_bandwidth``) above it, while many concurrent
#   senders are bounded by the shared NIC line rate;
# * memory-lane contention — ``p`` concurrent intranode copies on
#   ``derived_copy_lanes()`` lanes serialize by ``ceil(p/lanes)``;
# * per-process fixed costs — one PiP flag check per participant plus one
#   address post per operation.
#
# Every function is a numpy ufunc over ``cb`` (scalar in, scalar out; array
# in, array out) so the analytic engine can evaluate a whole size axis in
# one vectorized pass.  MPICH's flat-allgather switch point is the planners'
# ``MPICH_ALLGATHER_RING_TOTAL``, so the analytic tier and the schedules
# agree on it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticParams:
    """Everything the refined closed forms need, derived from one machine.

    Bundles the paper's five Hockney scalars with the handful of extra
    machine constants the refinements use.  Frozen and hashable so it can
    ride in lru caches keyed by machine.
    """

    h: HockneyParams
    #: per-byte eager injection cost (sender CPU copy), s/B
    b_proc: float
    #: per-byte rendezvous DMA cost (NIC pull, single stream), s/B
    b_dma: float
    #: concurrent full-speed memory copy lanes per node
    lanes: int
    #: one userspace flag check
    flag: float
    #: one address-board post
    post: float
    #: eager/rendezvous protocol switch, bytes
    eager: int

    @classmethod
    def from_machine(cls, p: MachineParams) -> "AnalyticParams":
        return cls(
            h=HockneyParams.from_machine(p),
            b_proc=1.0 / p.proc_bandwidth,
            b_dma=1.0 / p.proc_dma_bandwidth,
            lanes=p.derived_copy_lanes(),
            flag=p.pip_flag_time,
            post=p.pip_post_time,
            eager=p.eager_threshold,
        )

    def stream_beta(self, nbytes):
        """Single-stream per-byte wire cost: eager copy below the
        protocol switch, rendezvous DMA above it (vectorized)."""
        return np.where(
            np.asarray(nbytes) <= self.eager, self.b_proc, self.b_dma
        )


def _bruck_rounds(n: int, p: int) -> int:
    """Rounds of the (p+1)-ary multi-object Bruck exchange over ``n`` nodes."""
    if n <= 1:
        return 0
    return max(1, math.ceil(math.log(n) / math.log(p + 1)))


def scatter_refined(ap: AnalyticParams, cb, n: int, p: int):
    """PiP-MColl scatter: root ships ``p*cb`` per remote node, then every
    local process pulls its own block concurrently."""
    h = ap.h
    cb = np.asarray(cb, dtype=float)
    msg = p * cb
    if n > 1:
        rounds = _bruck_rounds(n, p)
        # (n-1) back-to-back node messages pipeline at the NIC line rate;
        # a lone message is stream-bound (eager copy or rendezvous DMA)
        wire = np.maximum((n - 1) * msg * h.b_e, msg * ap.stream_beta(msg))
    else:
        rounds = 0
        wire = np.zeros_like(cb)
    intra = cb * h.b_r * math.ceil(p / ap.lanes)
    return h.a_e * rounds + wire + h.a_r + p * ap.flag + ap.post + intra


def allgather_refined(ap: AnalyticParams, cb, n: int, p: int):
    """PiP-MColl allgather (both algorithm variants): the dominant cost is
    every process copying the ``R-1`` foreign blocks out of the shared
    heap; the wire term only differs between Bruck and ring in fixed
    per-round latency, which is negligible next to the copies."""
    h = ap.h
    cb = np.asarray(cb, dtype=float)
    R = n * p
    copies = (R - 1) * cb * h.b_r * math.ceil(p / ap.lanes)
    if n > 1:
        rounds = _bruck_rounds(n, p)
        wire = np.maximum(
            (n - 1) * p * cb * h.b_e, cb * ap.stream_beta(cb)
        )
    else:
        rounds = 0
        wire = np.zeros_like(cb)
    return h.a_r + copies + h.a_e * rounds + wire + p * ap.flag + ap.post


def allreduce_small_refined(ap: AnalyticParams, cb, n: int, p: int):
    """PiP-MColl small allreduce: binomial intranode reduce, leader
    exchange with per-round reduction, intranode broadcast."""
    h = ap.h
    cb = np.asarray(cb, dtype=float)
    lg = math.ceil(math.log2(p)) if p > 1 else 0
    cont = max(1.0, p / ap.lanes)
    intra = lg * (h.a_r + cb * h.gamma)
    if n > 1:
        rounds = _bruck_rounds(n, p)
        b_w = np.maximum(h.b_e, ap.stream_beta(cb))
        # leaders exchange and reduce the full block with each peer node;
        # the 2x alpha counts the send+receive handshake on both sides
        wire = (n - 1) * cb * b_w + (n - 1) * cb * h.gamma
        alpha = 2 * h.a_e * rounds
    else:
        wire = np.zeros_like(cb)
        alpha = 0.0
    bcast = h.a_r + cb * h.b_r * cont
    return intra + alpha + wire + bcast + p * ap.flag + ap.post


def allreduce_large_refined(ap: AnalyticParams, cb, n: int, p: int):
    """PiP-MColl large allreduce: chunked intranode reduce, internode
    reduce-scatter + allgather over ``cb/n`` chunks, broadcast."""
    h = ap.h
    cb = np.asarray(cb, dtype=float)
    cont = max(1.0, p / ap.lanes)
    intra = h.a_r * (math.ceil(math.log2(p)) if p > 1 else 0)
    intra = intra + cb * h.gamma * cont
    if n > 1:
        chunk = cb / n
        b_w = np.maximum(h.b_e, ap.stream_beta(chunk))
        rs = h.a_e * (n - 1) + (n - 1) * chunk * (b_w + h.gamma)
        ag = h.a_e * (n - 1) + (n - 1) * chunk * b_w
    else:
        rs = ag = np.zeros_like(cb)
    bcast = h.a_r + cb * h.b_r * cont
    return intra + rs + ag + bcast + p * ap.flag + ap.post


def flat_allgather_refined(ap: AnalyticParams, cb, n: int, p: int):
    """Flat (PiP-MPICH / OpenMPI) allgather under MPICH's selection:
    recursive doubling (power-of-two world) or Bruck below the ring-total
    switch, ring above it.

    Log-phase rounds at distance ``d`` are intranode while ``d < p``
    (block rank layout) and internode above, where every one of the ``p``
    per-node senders shares the node NIC.  The ring term models the
    pipelined steady state: per round the boundary message costs half an
    internode alpha (send/receive overlap with the previous round) plus
    the single-stream injection of ``cb``.
    """
    h = ap.h
    cb = np.asarray(cb, dtype=float)
    R = n * p
    b_inj = max(h.b_e, ap.b_proc)
    # -- log-phase (recursive doubling / Bruck share the volume profile) --
    log_t = np.zeros_like(cb)
    rounds = math.ceil(math.log2(R)) if R > 1 else 0
    for r in range(rounds):
        d = 2 ** r
        vol = min(d, R - d) * cb
        if d < p:
            cont = max(1.0, p / ap.lanes)
            log_t = log_t + h.a_r + vol * h.b_r * cont
        else:
            log_t = log_t + h.a_e + vol * b_inj + (p - 1) * vol * h.b_e
    # -- ring phase ------------------------------------------------------
    ring_t = (R - 1) * (h.a_e / 2 + cb * b_inj)
    total = R * cb
    return np.where(total < MPICH_ALLGATHER_RING_TOTAL, log_t, ring_t)
