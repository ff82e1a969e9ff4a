"""Batched sweep engine: one vectorized pass over the message-size axis.

The paper's figures sweep message size at fixed (library, collective,
topology, ppn): dozens of points that share one schedule *structure* and
differ only in the byte counts fed to the hardware cost closures.  The
scalar DAG engine (:mod:`repro.sched.fastpath`) already removed the
coroutine machinery, but still pays Python event dispatch once per
(event, size).  This module pays it once per event:

1. **Group** the size axis by structural signature
   (:func:`schedule_signature`): the planner is consulted per size (the
   planners are ``lru_cache``'d, so this is a dict lookup in the steady
   state), and sizes whose schedules have identical step structure — same
   opcodes, sends, tags, handles; only counts/offsets differing — form a
   partition.  Algorithm-selection thresholds (the 64 kB PiP-MColl
   switches, MPICH's 80 kB-total ring switch, power-of-two dispatch) fall
   out of this automatically: different algorithms have different
   signatures.
2. **Lower once per partition** (:func:`_compile_column`): the opcode
   program is built from the pivot size's schedule with every byte
   count/offset *gathered* across the partition — a plain int where all
   sizes agree, an ``(S,)`` integer vector where they differ.  Lowered
   columns are cached process-wide (see :func:`lowering_cache_info`).
3. **Replay once** on a :class:`~repro.sim.batchline.BatchTimeline`: the
   same continuation machine as the scalar DAG engine, but every time is
   an ``(S,)`` array flowing through vectorized twins of the shared cost
   closures (:class:`~repro.hw.nic.BatchNic`,
   :class:`~repro.hw.memory.BatchMemory`) that replicate the scalar
   arithmetic operation-for-operation.
4. **Verify, then fall back where needed.**  Size-dependent *branches*
   (internode eager/rendezvous at ``eager_threshold``, hybrid intranode
   mechanism picks, cold-fault zero-size short-circuits) are pre-split
   statically where possible: :func:`_static_split_labels` walks the
   lowered program symbolically, evaluates every threshold predicate over
   the partition's byte counts, and splits the partition into uniform
   classes *before* running (cached per structure key).  Predicates the
   static walk cannot see raise
   :class:`~repro.sim.batchline.BatchDivergence` at run time with the
   offending mask, and the partition splits there as a backstop.
   Size-dependent *orderings* (a contended FIFO serviced in a different
   order at some size) are caught after the run by the timeline's
   conflict-equivalence check
   (:meth:`~repro.sim.batchline.BatchTimeline.order_divergence`): every
   dispatch records the resources it touches, and a size is divergent iff
   some resource's access order under the pivot differs from that size's
   own scalar order.  Divergent sizes are *re-adjudicated by partition*:
   the timeline's inversion matrix clusters them by divergence signature
   (:meth:`~repro.sim.batchline.BatchTimeline.divergence_labels` — which
   conflict pairs inverted), and each cluster is re-batched as its own
   sub-partition under its own pivot, recursively up to
   :data:`_REBATCH_DEPTH` levels.  Sizes that inverted the same pairs
   the same way overwhelmingly agree with *each other*, so contention-
   bound columns converge in a handful of vectorized passes instead of
   bailing to per-size DAG evaluation.  Only singleton clusters, clusters
   that stopped shrinking, and depth-bound exhaustion fall back to the
   scalar DAG engine, as do single-size partitions, where batching buys
   nothing.

The contract is the DAG engine's, inherited transitively: for every size,
``evaluate_column``'s samples and message counts are **bit-identical** to
``run_point(engine="dag")`` (``tests/sched/test_batch.py`` pins this
across the registry grid, threshold-straddling axes, and randomized
shapes).  The order-invariance argument lives in
:mod:`repro.sim.batchline` and DESIGN.md section 2.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hw.memory import BatchMemory
from repro.hw.nic import BatchFabric, BatchNic
from repro.hw.params import MachineParams, bebop_broadwell
from repro.mpi.transport import RTS_HEADER_BYTES
from repro.sched.fastpath import (
    _OP_ADD,
    _OP_ALLOC,
    _OP_COMPUTE,
    _OP_COPY,
    _OP_CWAIT,
    _OP_LOOKUP,
    _OP_PHASE,
    _OP_POST,
    _OP_RECV,
    _OP_REDUCE,
    _OP_SEND_INTER,
    _OP_SEND_INTRA,
    _OP_WAIT,
    _Compiled,
    _Counter,
    _DISPLAY_NAMES,
    _has_markers,
    _key_builder,
    _Msg,
    _Req,
    FastpathResult,
    fastpath_supported,
)
from repro.sched.fastpath import evaluate_point as _dag_evaluate_point
from repro.sched.ir import (
    AllocStep,
    ComputeStep,
    CopyStep,
    IntraOpStep,
    PhaseStep,
    RankProgram,
    RecvStep,
    ReduceStep,
    Schedule,
    SendStep,
    WaitStep,
    resolve_key,
)
from repro.sched.registry import plan_for
from repro.shmem.base import MsgInfo
from repro.sim.batchline import BatchDivergence, BatchEvent, BatchTimeline
from repro.sim.engine import DeadlockError

__all__ = [
    "batch_supported",
    "evaluate_column",
    "ColumnResult",
    "ColumnStats",
    "schedule_signature",
    "lowering_cache_info",
    "clear_lowering_cache",
    "BatchWorld",
]

#: the batch engine covers exactly the DAG engine's surface — it *is* the
#: DAG engine with the size axis vectorized, and falls back to it per size
batch_supported = fastpath_supported


#: re-adjudication recursion bound: a divergent signature cluster may be
#: re-batched under its own pivot at most this many levels deep before
#: its sizes drop to the scalar DAG engine
_REBATCH_DEPTH = 4


class ColumnStats(NamedTuple):
    """How one column was evaluated (diagnostics and test hooks)."""

    #: size tuples evaluated in one vectorized pass each
    partitions: Tuple[Tuple[int, ...], ...]
    #: sizes flagged order-divergent and re-evaluated on the DAG engine
    fallback_sizes: Tuple[int, ...]
    #: single-size partitions, routed straight to the DAG engine
    singleton_sizes: Tuple[int, ...]
    #: runtime partition splits taken at size-dependent branches
    splits: int
    #: order-divergent signature clusters re-batched under their own pivot
    retries: int
    #: deepest re-adjudication level reached (0 = no re-batching)
    rebatch_depth: int = 0
    #: passes skipped via the adjudication-outcome cache (the pass was
    #: known to accept at most its pivot, so its sizes went straight to
    #: the DAG engine — results are bit-identical either way)
    elided_passes: int = 0


class ColumnResult(NamedTuple):
    """Output of :func:`evaluate_column`."""

    #: per-size timing results (every one bit-identical to the DAG engine)
    results: Dict[int, FastpathResult]
    stats: ColumnStats


# ---------------------------------------------------------------------------
# structural signatures: which sizes share one lowered program
# ---------------------------------------------------------------------------


def _ref_sig(ref) -> tuple:
    # offsets/counts are data (gathered at lowering); name and the
    # whole-buffer marker are structure
    return (ref.name, ref.count is None)


def _program_signature(program: RankProgram) -> tuple:
    sig: list = []
    append = sig.append
    for step in program.steps:
        cls = step.__class__
        if cls is SendStep:
            append(("s", step.dst, step.handle, step.tag,
                    _ref_sig(step.buf)))
        elif cls is RecvStep:
            append(("r", step.src, step.handle, step.tag))
        elif cls is WaitStep:
            append(("w", step.handles))
        elif cls is CopyStep:
            append(("c", _ref_sig(step.src), step.dst.name))
        elif cls is ReduceStep:
            append(("d", _ref_sig(step.src), step.dst.name))
        elif cls is IntraOpStep:
            append(("i", step.op, step.key, step.bind, step.n,
                    None if step.value is None else _ref_sig(step.value)))
        elif cls is AllocStep:
            append(("a", step.name, step.dtype_of))
        elif cls is PhaseStep:
            append(("p", step.name))
        elif cls is ComputeStep:
            append(("x",))
        else:  # pragma: no cover - the IR is closed
            raise TypeError(f"unknown step {step!r}")
    return (tuple(sig), program.num_handles)


def schedule_signature(schedule: Schedule) -> tuple:
    """The schedule's structure with all counts/offsets erased.

    Two schedules with equal signatures run the *same* opcode program —
    same step classes, peers, tags, handle slots, buffer names — and
    differ only in numeric operands, so their sizes can share one lowered
    column.  Cached on the schedule object (planner schedules are
    ``lru_cache``'d singletons), like the DAG engine's lowering cache.
    """
    sig = getattr(schedule, "_batch_signature", None)
    if sig is None:
        sig = (schedule.num_namespaces,
               tuple(_program_signature(p) for p in schedule.programs))
        # intern: equal signatures become one object, so grouping can key
        # on identity instead of re-hashing a large nested tuple per size
        sig = _SIG_INTERN.setdefault(sig, sig)
        object.__setattr__(schedule, "_batch_signature", sig)
    return sig


_SIG_INTERN: Dict[tuple, tuple] = {}


# ---------------------------------------------------------------------------
# column lowering: one opcode program, counts gathered across the axis
# ---------------------------------------------------------------------------


def _gather_i(values: List[int]):
    """A plain int where all sizes agree, else an int64 ``(S,)`` vector."""
    first = values[0]
    for v in values:
        if v != first:
            return np.array(values, dtype=np.int64)
    return first


def _gather_f(values: List[float]):
    first = values[0]
    for v in values:
        if v != first:
            return np.array(values, dtype=np.float64)
    return first


def _compile_column(progs: Sequence[RankProgram], index: int,
                    ppn: int) -> _Compiled:
    """Lower one participant's program across the partition.

    ``progs[k]`` is the participant's program at the partition's ``k``-th
    size; all share one signature.  The emitted opcode tuples use the DAG
    engine's layout (:mod:`repro.sched.fastpath`) with every count/offset
    field gathered via :func:`_gather_i`.
    """
    node = index // ppn
    ops: list = []
    slots: Dict = {}
    const_tags: list = []
    dyn_tags: list = []

    def key_slot(key) -> int:
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(const_tags)
            if _has_markers(key):
                const_tags.append(None)
                dyn_tags.append((slot, _key_builder(key)))
            else:
                const_tags.append(resolve_key(key, (), {}))
        return slot

    for col in zip(*(p.steps for p in progs)):
        step = col[0]
        cls = step.__class__
        if cls is SendStep:
            off = _gather_i([s.buf.offset for s in col])
            cnt = (None if step.buf.count is None
                   else _gather_i([s.buf.count for s in col]))
            if step.dst // ppn == node:
                ops.append((
                    _OP_SEND_INTRA, step.dst, step.buf.name, off, cnt,
                    key_slot(step.tag), step.handle,
                ))
            else:
                ops.append((
                    _OP_SEND_INTER, step.dst, step.dst // ppn,
                    step.buf.name, off, cnt, key_slot(step.tag),
                    step.handle,
                ))
        elif cls is RecvStep:
            ops.append((
                _OP_RECV, step.src, key_slot(step.tag), step.handle,
            ))
        elif cls is WaitStep:
            if step.handles:
                ops.append((_OP_WAIT, step.handles, len(step.handles)))
        elif cls is CopyStep:
            off = _gather_i([s.src.offset for s in col])
            cnt = (None if step.src.count is None
                   else _gather_i([s.src.count for s in col]))
            ops.append((_OP_COPY, step.src.name, off, cnt))
        elif cls is ReduceStep:
            off = _gather_i([s.src.offset for s in col])
            cnt = (None if step.src.count is None
                   else _gather_i([s.src.count for s in col]))
            ops.append((_OP_REDUCE, step.src.name, off, cnt))
        elif cls is IntraOpStep:
            kind = step.op
            if kind == "post":
                off = _gather_i([s.value.offset for s in col])
                cnt = (None if step.value.count is None
                       else _gather_i([s.value.count for s in col]))
                ops.append((
                    _OP_POST, key_slot(step.key), step.value.name, off, cnt,
                ))
            elif kind == "lookup":
                ops.append((_OP_LOOKUP, key_slot(step.key), step.bind))
            elif kind == "add":
                ops.append((_OP_ADD, key_slot(step.key), step.n))
            elif kind == "wait":
                ops.append((_OP_CWAIT, key_slot(step.key), step.n))
            else:  # pragma: no cover - planners only emit the four ops
                raise ValueError(f"unknown intra op {kind!r}")
        elif cls is AllocStep:
            ops.append((
                _OP_ALLOC, step.name, _gather_i([s.count for s in col]),
            ))
        elif cls is PhaseStep:
            ops.append((_OP_PHASE, step.name))
        elif cls is ComputeStep:
            ops.append((
                _OP_COMPUTE, _gather_f([s.seconds for s in col]),
            ))
        else:  # pragma: no cover - the IR is closed
            raise TypeError(f"unknown step {step!r}")
    return _Compiled(
        tuple(ops), tuple(const_tags), tuple(dyn_tags),
        progs[0].num_handles,
    )


class _LoweredColumn(NamedTuple):
    compiled: Tuple[_Compiled, ...]
    #: per-participant base env: name -> (buffer_id, gathered count)
    envs: Tuple[dict, ...]
    #: highest baked binding-buffer id (AllocStep ids continue from here)
    nbufs: int
    num_namespaces: int
    flat: bool


class CacheInfo(NamedTuple):
    """``functools.CacheInfo``-compatible counters for the lowering cache."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


_LOWER_CACHE: Dict[tuple, _LoweredColumn] = {}
#: static-split labels per (lowering key, thresholds) — pure function of
#: the lowered counts, cached so repeated sweeps skip the symbolic walk
_SPLIT_CACHE: Dict[tuple, Optional[np.ndarray]] = {}
#: adjudication outcomes per (lowering key, protocol, params): passes are
#: deterministic, so the divergence mask and signature labels of a
#: partition never change between runs.  A pass known to accept at most
#: its pivot is skipped on later evaluations and its sizes routed to the
#: DAG engine directly — the same steady state a repeated figure sweep
#: runs in, with bit-identical results either way.
_OUTCOME_CACHE: Dict[tuple, tuple] = {}
_lower_hits = 0
_lower_misses = 0


def lowering_cache_info() -> CacheInfo:
    """Counters of the process-wide lowered-column cache.

    Surfaced through :func:`repro.sched.registry.planner_cache_info` as
    ``"batch_lowering"``; a repeated grouped sweep must be pure hits
    (``tests/bench/test_runner.py`` pins this).
    """
    return CacheInfo(_lower_hits, _lower_misses, None, len(_LOWER_CACHE))


def clear_lowering_cache() -> None:
    """Drop lowered columns and reset the counters (test isolation)."""
    global _lower_hits, _lower_misses
    _LOWER_CACHE.clear()
    _SPLIT_CACHE.clear()
    _OUTCOME_CACHE.clear()
    _lower_hits = 0
    _lower_misses = 0


def _lower_column(canon: str, collective: str, nodes: int, ppn: int,
                  sizes: Tuple[int, ...], thresholds) -> _LoweredColumn:
    global _lower_hits, _lower_misses
    key = (canon, collective, nodes, ppn, thresholds, sizes)
    hit = _LOWER_CACHE.get(key)
    if hit is not None:
        _lower_hits += 1
        return hit
    _lower_misses += 1
    plans = [
        plan_for(canon, collective, nodes, ppn, s, thresholds=thresholds)
        for s in sizes
    ]
    schedules = [pl.schedule for pl in plans]
    nranks = len(schedules[0].programs)
    compiled = tuple(
        _compile_column([sch.programs[i] for sch in schedules], i, ppn)
        for i in range(nranks)
    )
    # binding buffers bake their ids at lowering time, in the same order
    # fastpath._prepare hands out world.new_buf_id(); AllocStep ids start
    # above them, so warm-state keys line up with the scalar engines
    nbuf = 0
    envs = []
    for i in range(nranks):
        env = {}
        for name in plans[0].bindings[i]:
            nbuf += 1
            env[name] = (
                nbuf, _gather_i([pl.bindings[i][name] for pl in plans]),
            )
        envs.append(env)
    lowered = _LoweredColumn(
        compiled, tuple(envs), nbuf, schedules[0].num_namespaces,
        bool(plans[0].symbols),
    )
    _LOWER_CACHE[key] = lowered
    return lowered


def _static_cnt(env: dict, name, off, cnt):
    """Best-effort byte count of one op: int, ``(S,)`` vector, or None."""
    if cnt is not None:
        return cnt
    base = env.get(name)
    if base is None:
        return None  # bound by a board lookup: unknown until runtime
    return base[1] - off


def _static_split_labels(lowered: _LoweredColumn, params: MachineParams,
                         mech, nsizes: int):
    """Class labels from statically-known size-dependent branches.

    Walks the lowered ops symbolically, evaluating every predicate the
    runtime will branch on — internode eager/rendezvous at
    ``eager_threshold``, hybrid mechanism picks, ``nbytes > 0``
    short-circuits — against the gathered count vectors.  Sizes whose
    predicate outcomes all agree form one class; splitting the partition
    by label *before* the run avoids starting a vectorized pass that a
    :class:`BatchDivergence` would abort halfway.  Counts bound at
    runtime (board lookups) stay invisible here; the runtime checks
    remain as the safety net.  Returns None when no split is needed.
    """
    masks: List[np.ndarray] = []
    seen = set()

    def consider(mask: np.ndarray) -> None:
        if mask[0]:
            if mask.all():
                return
        elif not mask.any():
            return
        key = mask.tobytes()
        if key not in seen:
            seen.add(key)
            masks.append(mask)

    eager = params.eager_threshold
    thr = getattr(mech, "threshold", None)
    for comp, env0 in zip(lowered.compiled, lowered.envs):
        env = dict(env0)
        for op in comp.ops:
            code = op[0]
            if code == _OP_SEND_INTRA:
                cnt = _static_cnt(env, op[2], op[3], op[4])
                if isinstance(cnt, np.ndarray):
                    if thr is not None:
                        consider(cnt < thr)
                    consider(cnt > 0)
            elif code == _OP_SEND_INTER:
                cnt = _static_cnt(env, op[3], op[4], op[5])
                if isinstance(cnt, np.ndarray):
                    consider(cnt <= eager)
                    consider(cnt > 0)
            elif code == _OP_COPY or code == _OP_REDUCE:
                cnt = _static_cnt(env, op[1], op[2], op[3])
                if isinstance(cnt, np.ndarray):
                    consider(cnt > 0)
            elif code == _OP_ALLOC:
                env[op[1]] = (0, op[2])
            elif code == _OP_LOOKUP:
                if op[2] is not None:
                    env.pop(op[2], None)  # runtime-bound: unknown
    if not masks:
        return None
    labels = np.zeros(nsizes, dtype=np.int64)
    for mask in masks:
        labels <<= 1
        labels |= mask
    return labels if len(np.unique(labels)) > 1 else None


# ---------------------------------------------------------------------------
# runtime: the vectorized world and continuation machine
# ---------------------------------------------------------------------------


class _BatchShim:
    """Duck-typed ``engine`` for :class:`BatchMemory`: vector ``.now``
    plus the timeline's conflict recorder."""

    __slots__ = ("_tl", "touch", "touch_ok")

    def __init__(self, tl: BatchTimeline):
        self._tl = tl
        self.touch = tl.touch
        self.touch_ok = tl.touch_ok

    @property
    def now(self) -> np.ndarray:
        return self._tl.now


def _counter_crossing(ctr, threshold: int) -> np.ndarray:
    """Exact per-size time at which a shared counter reaches ``threshold``.

    ``ctr.adds`` is the counter's ordered add log, ``(fire-time vector,
    n)`` per add.  At each size the adds land in that size's own time
    order, so the crossing is an order statistic: sort the add times per
    size, accumulate the counts, and take the time of the first add at
    which the running sum reaches the threshold.  Equal-time adds
    contribute a sum that is order-independent, so any stable order among
    them yields the same crossing.  Callers guarantee the logged counts
    already sum to ``threshold`` or more.

    When the log is elementwise non-decreasing (``ctr.sorted_ok``, the
    overwhelmingly common case: arrivals land in the same order at every
    size), the stable sort is the identity at every size and the crossing
    is simply the time of the first prefix-sum hit — no per-size sort.
    """
    adds = ctr.adds
    if len(adds) == 1:
        return adds[0][0]
    if ctr.sorted_ok:
        total = 0
        for t, n in adds:
            total += n
            if total >= threshold:
                return t
    times = np.stack([t for t, _ in adds])
    ns = np.array([n for _, n in adds], dtype=np.int64)
    order = np.argsort(times, axis=0, kind="stable")
    cum = np.cumsum(ns[order], axis=0)
    first = np.argmax(cum >= threshold, axis=0)
    cols = np.arange(times.shape[1])
    return times[order[first, cols], cols]


def _uniform_bool(mask) -> bool:
    """Collapse a size-axis predicate to one bool, or split.

    ``mask`` is either a plain bool (count uniform across the partition)
    or a boolean ``(S,)`` array; a mixed array raises
    :class:`BatchDivergence` so the caller's partition splits there.
    """
    if isinstance(mask, np.ndarray):
        if mask[0]:
            if mask.all():
                return True
        elif not mask.any():
            return False
        raise BatchDivergence(mask)
    return mask


class BatchWorld:
    """Hardware + matching state for one partition's vectorized pass.

    The width-``S`` twin of :class:`~repro.sched.fastpath.FastWorld`:
    identical matching/board/counter logic (none of it touches times),
    with the per-node NICs and memories replaced by their vector mirrors.
    Warm state (page faults, XPMEM expose/attach) is keyed by structural
    ids only, and every mutation happens on the single shared execution
    path, so it evolves exactly as in each size's own scalar run.
    """

    def __init__(self, params: MachineParams, nodes: int, ppn: int,
                 mechanism, software_overhead: float, width: int,
                 buf_seq_start: int):
        params.validate()
        self.params = params
        self.nodes = nodes
        self.ppn = ppn
        self.size = nodes * ppn
        self.width = width
        self.mechanism = mechanism
        self.software_overhead = software_overhead
        self.send_overhead = params.send_overhead
        self.recv_overhead = params.recv_overhead
        self.wire_latency = params.wire_latency
        self.eager_threshold = params.eager_threshold
        self.pip_post_time = params.pip_post_time
        self.pip_flag_time = params.pip_flag_time
        self.tl = BatchTimeline(width)
        shim = _BatchShim(self.tl)
        self.fabric = (
            BatchFabric(width) if params.fabric_bandwidth else None
        )
        self.nics = [
            BatchNic(params, node, ppn, width, self.tl, fabric=self.fabric)
            for node in range(nodes)
        ]
        self.mems = [
            BatchMemory(shim, params, node, width) for node in range(nodes)
        ]
        self.info = MsgInfo(
            src_rank=0, dst_rank=0, nbytes=0, src_buffer_id=0
        )
        self.boards: List[Dict] = [{} for _ in range(nodes)]
        self.counters: List[Dict] = [{} for _ in range(nodes)]
        self.arrived: List[Dict] = [{} for _ in range(self.size)]
        self.posted: List[Dict] = [{} for _ in range(self.size)]
        self._op_seq = 0
        self._group_seqs: Dict = {}
        self._buf_seq = buf_seq_start
        self.end_times: List[np.ndarray] = []
        self._live = 0
        self._tasks: Optional[List["_BatchTask"]] = None
        #: (counter, threshold, reach, resume-used) per counter-wait
        #: resume, validated post hoc against the full add log
        self._ct_checks: List[tuple] = []
        #: a board key was posted twice: values are order-ambiguous, so
        #: every size must fall back (never happens for planner schedules)
        self._board_conflict = False

    def next_group_tag(self, tag_key) -> tuple:
        seq = self._group_seqs.get(tag_key, 0) + 1
        self._group_seqs[tag_key] = seq
        return (tag_key, seq)

    def internode_messages(self) -> int:
        return sum(nic.messages_sent for nic in self.nics)

    # -- transport matching (same pairing as FastWorld; resume times are
    # -- exact per size via the max-resume overrides) ---------------------

    def _deliver(self, msg: _Msg) -> None:
        tl = self.tl
        key = (msg.src, msg.tag)
        # a deliver/post inversion is harmless when the pairing cannot
        # change (singleton queue) and the cost path does not consult the
        # posted/unexpected outcome: intranode receives cost the same
        # either way, and internode rendezvous only uses the RTS arrival
        # time, which the max-resume override reproduces exactly.  Eager
        # internode messages pay a bounce-buffer copy only when
        # unexpected, so their match order stays strict.
        cls_ok = msg.intranode or msg.rendezvous
        rank_posted = self.posted[msg.dst]
        queue = rank_posted.get(key)
        if queue:
            tl.touch_ok(("q", msg.dst, key), cls_ok and len(queue) == 1)
            req = queue.popleft()
            if not queue:
                del rank_posted[key]
            waiter = req.waiter
            if waiter is not None:
                req.waiter = None
                tl._ready.append(
                    (waiter, msg, np.maximum(tl.now, req.wt))
                )
            else:
                req.done = True
                req.value = msg
                req.t = tl.now
        else:
            msg.unexpected = True
            msg.t = tl.now
            rank_arrived = self.arrived[msg.dst]
            queue = rank_arrived.get(key)
            if queue is None:
                queue = rank_arrived[key] = deque()
            queue.append(msg)
            tl.touch_ok(("q", msg.dst, key), cls_ok and len(queue) == 1)

    def _complete_send(self, req: _Req) -> None:
        tl = self.tl
        waiter = req.waiter
        if waiter is not None:
            req.waiter = None
            tl._ready.append((waiter, None, np.maximum(tl.now, req.wt)))
        else:
            req.done = True
            req.t = tl.now

    def order_divergence(self) -> np.ndarray:
        """Per-size divergence over resource orders *and* counter checks.

        The timeline's conflict-equivalence mask, widened by the counter
        crossing validation: each counter-wait resume used the exact
        crossing computed from the adds seen at trigger time, and an add
        processed later (in pivot order) firing earlier at some size
        would make that size's true crossing earlier — re-checked here
        against the full add log.  Double-posted board keys flag every
        size (conservative; planner schedules post once).
        """
        if self._board_conflict:
            return np.ones(self.width, dtype=bool)
        divergent = self.tl.order_divergence()
        if self._ct_checks:
            divergent = divergent.copy()
            for ctr, threshold, reach, used in self._ct_checks:
                truth = np.maximum(
                    reach, _counter_crossing(ctr, threshold)
                )
                divergent |= used != truth
        return divergent

    # -- execution --------------------------------------------------------

    def run_schedule(self, compiled: Tuple[_Compiled, ...], envs,
                     symbols: dict, num_namespaces: int) -> np.ndarray:
        """One iteration over the whole partition; returns elapsed ``(S,)``."""
        tl = self.tl
        tl.new_epoch()
        start = tl.now
        k = num_namespaces
        ns_values = tuple(range(self._op_seq + 1, self._op_seq + 1 + k))
        self._op_seq += k
        tasks = self._tasks
        if tasks is None:
            tasks = [
                _BatchTask(self, i, compiled[i])
                for i in range(len(compiled))
            ]
            self._tasks = tasks
        n = len(tasks)
        self.end_times = [start] * n
        self._live = n
        body_start = start + self.software_overhead
        for i in range(n):
            task = tasks[i]
            task.reset(envs[i], ns_values, symbols)
            tl.call(body_start, task._run, None)
        tl.run()
        if self._live:
            raise DeadlockError(
                f"{self._live} schedule program(s) blocked — batch "
                f"evaluation deadlocked"
            )
        end = self.end_times[0]
        for v in self.end_times[1:]:
            end = np.maximum(end, v)
        return end - start


class _BatchTask:
    """One participant's lowered program over the vector clock.

    A line-for-line mirror of :class:`repro.sched.fastpath._Task`: every
    suspension point schedules exactly one timeline callback in the same
    relative order, so the pivot size's ``(time, seq)`` tie-breaks resolve
    identically to the scalar DAG engine, and every other size inherits
    that order subject to the end-of-run divergence check.  The only new
    logic is :func:`_uniform_bool` at the two size-dependent protocol
    branches.
    """

    __slots__ = (
        "w", "tl", "index", "rank", "node", "lr", "ops", "nops", "pc",
        "env", "handles", "num_handles", "tags", "dyn_tags", "track_mb",
        "mem", "nic", "mech", "board", "ctrs", "arr", "post_q",
        "wait_handles", "wait_len", "wait_idx",
        "_p_dst", "_p_node", "_p_bid", "_p_cnt", "_p_tag", "_p_req",
        "_p_key", "_p_val", "_p_bind",
        "_c_next_wait", "_c_recv_work", "_c_recv_done", "_c_send_inter",
        "_c_send_intra", "_c_post", "_c_lookup", "_c_lookup_bind",
        "_c_add", "_c_cwait",
    )

    def __init__(self, w: BatchWorld, index: int, compiled: _Compiled):
        self.w = w
        self.tl = w.tl
        self.index = index
        self.rank = index
        self.node, self.lr = divmod(index, w.ppn)
        self.ops = compiled.ops
        self.nops = len(compiled.ops)
        self.pc = 0
        self.env: dict = {}
        self.num_handles = compiled.num_handles
        self.handles: list = []
        self.dyn_tags = compiled.dyn_tags
        self.tags = (
            list(compiled.const_tags) if compiled.dyn_tags
            else compiled.const_tags
        )
        self.mem = w.mems[self.node]
        self.nic = w.nics[self.node]
        self.mech = w.mechanism
        # buffer-identity conflicts only exist for mechanisms with warm
        # state (page-fault regions, expose/attach caches)
        self.track_mb = getattr(w.mechanism, "warm_state", True)
        self.board = w.boards[self.node]
        self.ctrs = w.counters[self.node]
        self.arr = w.arrived[index]
        self.post_q = w.posted[index]
        self.wait_handles: tuple = ()
        self.wait_len = 0
        self.wait_idx = 0
        self._p_dst = self._p_node = self._p_bid = self._p_cnt = 0
        self._p_tag = self._p_req = self._p_key = self._p_val = None
        self._p_bind = None
        self._c_next_wait = self._next_wait
        self._c_recv_work = self._recv_work
        self._c_recv_done = self._recv_done
        self._c_send_inter = self._send_inter
        self._c_send_intra = self._send_intra
        self._c_post = self._post
        self._c_lookup = self._lookup
        self._c_lookup_bind = self._lookup_bind
        self._c_add = self._add
        self._c_cwait = self._cwait

    def reset(self, env_base: dict, ns_values: tuple, symbols: dict) -> None:
        self.pc = 0
        self.env = dict(env_base)
        self.handles = [None] * self.num_handles
        dyn = self.dyn_tags
        if dyn:
            tags = self.tags
            for slot, builder in dyn:
                tags[slot] = builder(ns_values, symbols)

    # -- the interpreter ---------------------------------------------------

    def _run(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        now = tl.now
        ops = self.ops
        n = self.nops
        env = self.env
        tags = self.tags
        pc = self.pc
        while pc < n:
            op = ops[pc]
            pc += 1
            code = op[0]
            if code == _OP_LOOKUP:
                self.pc = pc
                self._p_bind = op[2]
                board = self.board
                key = tags[op[1]]
                ev = board.get(key)
                if ev is None:
                    ev = board[key] = BatchEvent(tl)
                if ev.triggered:
                    tl._ready.append((
                        self._c_lookup, ev.value,
                        np.maximum(now, ev.t),
                    ))
                else:
                    ev._waiters.append((self._c_lookup, now))
                return
            if code == _OP_SEND_INTRA:
                _, dst, name, off, cnt, slot, handle = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                req = _Req("send")
                self.handles[handle] = req
                self.pc = pc
                self._p_dst = dst
                self._p_bid = base[0]
                self._p_cnt = cnt
                self._p_tag = tags[slot]
                self._p_req = req
                info = w.info
                info.src_rank = self.rank
                info.dst_rank = dst
                info.nbytes = cnt
                info.src_buffer_id = base[0]
                if self.track_mb:
                    tl.touch(("mb", base[0]))
                d = self.mech.sender_occupy(self.mem, info)
                tl.call(now + d, self._c_send_intra, None)
                return
            if code == _OP_SEND_INTER:
                _, dst, dst_node, name, off, cnt, slot, handle = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                req = _Req("send")
                self.handles[handle] = req
                self.pc = pc
                self._p_dst = dst
                self._p_node = dst_node
                self._p_bid = base[0]
                self._p_cnt = cnt
                self._p_tag = tags[slot]
                self._p_req = req
                tl.call(now + w.send_overhead, self._c_send_inter, None)
                return
            if code == _OP_RECV:
                _, src, slot, handle = op
                req = _Req("recv")
                self.handles[handle] = req
                key = (src, tags[slot])
                arrived = self.arr
                queue = arrived.get(key)
                if queue:
                    # the message-class side of the commutation condition
                    # lives on the deliver access of the same pair
                    tl.touch_ok(("q", self.rank, key), len(queue) == 1)
                    msg = queue.popleft()
                    if not queue:
                        del arrived[key]
                    req.done = True
                    req.value = msg
                    req.t = msg.t
                else:
                    posted = self.post_q
                    queue = posted.get(key)
                    if queue is None:
                        queue = posted[key] = deque()
                    queue.append(req)
                    tl.touch_ok(("q", self.rank, key), len(queue) == 1)
            elif code == _OP_WAIT:
                self.pc = pc
                self.wait_handles = op[1]
                self.wait_len = op[2]
                self.wait_idx = 0
                req = self.handles[op[1][0]]
                fn = (self._c_next_wait if req.kind == "send"
                      else self._c_recv_work)
                if req.done:
                    tl._ready.append(
                        (fn, req.value, np.maximum(now, req.t))
                    )
                else:
                    req.waiter = fn
                    req.wt = now
                return
            elif code == _OP_COPY:
                _, name, off, cnt = op
                if cnt is None:
                    cnt = env[name][1] - off
                self.pc = pc
                d = self.mem.copy_occupy(now, cnt, 0.0)
                tl.call(now + d, self._run, None)
                return
            elif code == _OP_REDUCE:
                _, name, off, cnt = op
                if cnt is None:
                    cnt = env[name][1] - off
                self.pc = pc
                d = self.mem.reduce_occupy(now, cnt, 0.0)
                tl.call(now + d, self._run, None)
                return
            elif code == _OP_POST:
                _, slot, name, off, cnt = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                self.pc = pc
                self._p_key = tags[slot]
                self._p_val = (base[0], cnt)
                tl.call(now + w.pip_post_time, self._c_post, None)
                return
            elif code == _OP_ADD:
                self.pc = pc
                self._p_key = tags[op[1]]
                self._p_val = op[2]
                tl.call(now + w.pip_flag_time, self._c_add, None)
                return
            elif code == _OP_CWAIT:
                _, slot, threshold = op
                self.pc = pc
                ctrs = self.ctrs
                key = tags[slot]
                c = ctrs.get(key)
                if c is None:
                    c = ctrs[key] = _Counter()
                if c.value >= threshold:
                    # already crossed at the pivot; each size resumes at
                    # its own exact crossing (or its wait arrival, if
                    # later), validated against late adds post hoc
                    used = np.maximum(
                        now, _counter_crossing(c, threshold)
                    )
                    w._ct_checks.append((c, threshold, now, used))
                    tl.call(used + w.pip_flag_time, self._run, None)
                else:
                    ev = BatchEvent(tl)
                    c.waiters.append((threshold, ev))
                    ev._waiters.append((self._c_cwait, now))
                return
            elif code == _OP_ALLOC:
                # the id sequence is deliberately not a conflict resource:
                # an alloc-order inversion renames ids bijectively, and
                # ids are opaque warm-state keys (see batchline docstring)
                w._buf_seq = bid = w._buf_seq + 1
                env[op[1]] = (bid, op[2])
            elif code == _OP_PHASE:
                pass
            else:  # _OP_COMPUTE
                self.pc = pc
                tl.call(now + op[1], self._run, None)
                return
        # program finished
        w.end_times[self.index] = now
        w._live -= 1

    # -- send continuations ------------------------------------------------

    def _send_inter(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        dst = self._p_dst
        cnt = self._p_cnt
        req = self._p_req
        dst_nic = w.nics[self._p_node]
        if _uniform_bool(cnt <= w.eager_threshold):
            inject_done, arrival = self.nic.transfer(
                tl.now, self.lr, dst_nic, cnt
            )
            msg = _Msg(self.rank, dst, self._p_tag, cnt, self._p_bid,
                       False, False, self.lr, None)
            tl.call(arrival, w._deliver, msg)
            tl.call(inject_done, w._complete_send, req)
        else:
            _, rts_arrival = self.nic.transfer(
                tl.now, self.lr, dst_nic, RTS_HEADER_BYTES
            )
            msg = _Msg(self.rank, dst, self._p_tag, cnt, self._p_bid,
                       False, True, self.lr, req)
            tl.call(rts_arrival, w._deliver, msg)
        self._run()

    def _send_intra(self, _value=None) -> None:
        w = self.w
        cnt = self._p_cnt
        req = self._p_req
        if self.mech.eager_for(cnt):
            msg = _Msg(self.rank, self._p_dst, self._p_tag, cnt,
                       self._p_bid, True, False, self.lr, None)
            w._deliver(msg)
            w._complete_send(req)
        else:
            msg = _Msg(self.rank, self._p_dst, self._p_tag, cnt,
                       self._p_bid, True, False, self.lr, req)
            w._deliver(msg)
        self._run()

    # -- wait/receive continuations ----------------------------------------

    def _next_wait(self, _value=None) -> None:
        i = self.wait_idx + 1
        if i < self.wait_len:
            self.wait_idx = i
            tl = self.tl
            req = self.handles[self.wait_handles[i]]
            fn = (self._c_next_wait if req.kind == "send"
                  else self._c_recv_work)
            if req.done:
                tl._ready.append(
                    (fn, req.value, np.maximum(tl.now, req.t))
                )
            else:
                req.waiter = fn
                req.wt = tl.now
        else:
            self._run()

    def _recv_work(self, msg: _Msg) -> None:
        w = self.w
        tl = self.tl
        now = tl.now
        if msg.intranode:
            mech = self.mech
            mem = self.mem
            info = w.info
            info.src_rank = msg.src
            info.dst_rank = self.rank
            info.nbytes = msg.nbytes
            info.src_buffer_id = msg.src_buffer_id
            if self.track_mb:
                tl.touch(("mb", msg.src_buffer_id))
            fixed = mech.match_fixed(mem, info)
            d = mem.copy_occupy(
                now, mech.receiver_copy_bytes(msg.nbytes), fixed
            )
        elif msg.rendezvous:
            data_start = now + w.send_overhead + w.wire_latency
            src_nic = w.nics[msg.src // w.ppn]
            inject_done, arrival = src_nic.transfer(
                data_start, msg.src_local, self.nic, msg.nbytes, dma=True,
            )
            tl.call(inject_done, w._complete_send, msg.sreq)
            d = arrival - now + w.recv_overhead
        elif msg.unexpected:
            d = self.mem.copy_occupy(now, msg.nbytes, w.recv_overhead)
        else:
            d = w.recv_overhead
        tl.call(now + d, self._c_recv_done, msg)

    def _recv_done(self, msg: _Msg) -> None:
        if msg.intranode:
            sreq = msg.sreq
            if sreq is not None:
                self.w._complete_send(sreq)
        self._next_wait()

    # -- PiP continuations -------------------------------------------------

    def _post(self, _value=None) -> None:
        board = self.board
        key = self._p_key
        ev = board.get(key)
        if ev is None:
            ev = board[key] = BatchEvent(self.tl)
        if ev.triggered:
            # double post: the bound value depends on post order
            self.w._board_conflict = True
        ev.trigger(self._p_val)
        self._run()

    def _lookup(self, value) -> None:
        tl = self.tl
        tl.call(tl.now + self.w.pip_flag_time, self._c_lookup_bind, value)

    def _lookup_bind(self, value) -> None:
        bind = self._p_bind
        if bind is not None:
            self.env[bind] = value
        self._run()

    def _add(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        ctrs = self.ctrs
        key = self._p_key
        c = ctrs.get(key)
        if c is None:
            c = ctrs[key] = _Counter()
        n = self._p_val
        c.value += n
        now = tl.now
        c.adds.append((now, n))
        # track whether the log stays elementwise non-decreasing — the
        # fast no-sort path in _counter_crossing
        tm = c.tmax
        if tm is None:
            c.tmax = now
        elif (now >= tm).all():
            c.tmax = now
        else:
            c.sorted_ok = False
        if c.waiters:
            still = []
            value = c.value
            checks = w._ct_checks
            for threshold, ev in c.waiters:
                if value >= threshold:
                    crossing = _counter_crossing(c, threshold)
                    for fn, reach in ev._waiters:
                        checks.append((
                            c, threshold, reach,
                            np.maximum(reach, crossing),
                        ))
                    ev.trigger_at(value, crossing)
                else:
                    still.append((threshold, ev))
            c.waiters = still
        self._run()

    def _cwait(self, _value=None) -> None:
        tl = self.tl
        tl.call(tl.now + self.w.pip_flag_time, self._run, None)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _evaluate_partition(
    lowered: _LoweredColumn, nodes: int, ppn: int,
    part: Tuple[int, ...], lib, params: MachineParams, warmup: int,
    measure: int,
) -> Tuple[List[FastpathResult], np.ndarray, Optional[np.ndarray]]:
    """One vectorized pass over ``part``; may raise :class:`BatchDivergence`.

    Returns per-size results (partition order), the order-divergence
    mask, and — when anything diverged — the per-size divergence
    signature labels; divergent entries' results are garbage and must be
    recomputed.
    """
    world = BatchWorld(
        params, nodes, ppn, lib.make_mechanism(), lib.software_overhead,
        len(part), lowered.nbufs,
    )
    tag_key = hash(tuple(range(nodes * ppn))) if lowered.flat else None
    samples: List[np.ndarray] = []
    for it in range(warmup + measure):
        symbols = (
            {"tag": world.next_group_tag(tag_key)} if lowered.flat else {}
        )
        elapsed = world.run_schedule(
            lowered.compiled, lowered.envs, symbols, lowered.num_namespaces
        )
        if it >= warmup:
            samples.append(elapsed)
    divergent = world.order_divergence()
    labels = (
        world.tl.divergence_labels(divergent) if divergent.any() else None
    )
    msgs = world.internode_messages()
    results = [
        FastpathResult(tuple(float(v[j]) for v in samples), msgs)
        for j in range(len(part))
    ]
    return results, divergent, labels


def evaluate_column(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    sizes: Sequence[int],
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    thresholds=None,
) -> ColumnResult:
    """Evaluate a whole message-size column in vectorized passes.

    The batch counterpart of :func:`repro.sched.fastpath.evaluate_point`:
    same microbenchmark protocol (fresh world per point, ``warmup``
    unrecorded iterations, ``measure`` recorded ones), applied to every
    size in ``sizes`` at once.  Results are bit-identical to per-size DAG
    evaluation; sizes the vector pass cannot prove order-invariant — and
    single-size partitions — are evaluated on the DAG engine directly.
    """
    from repro.baselines.registry import make_library

    if measure < 1:
        raise ValueError("need at least one measured iteration")
    if not batch_supported(library, collective):
        raise ValueError(
            f"engine='batch' does not cover ({library!r}, {collective!r}); "
            f"only planner-backed pairs are supported — use engine='event'"
        )
    canon = library.lower().replace("_", "-").replace(" ", "-")
    lib = make_library(_DISPLAY_NAMES[canon])
    if thresholds is not None and not hasattr(lib, "thresholds"):
        raise ValueError(
            f"library {library!r} has no size thresholds to override"
        )
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("empty size axis")
    if params is None:
        params = bebop_broadwell()
    uniq = sorted(set(sizes))

    # group by structural signature: sizes compiled to the same opcode
    # program share one lowered column (signatures are interned, so the
    # group key is the object id — no per-size deep-tuple hashing)
    groups: Dict[int, List[int]] = {}
    for s in uniq:
        sig = schedule_signature(
            plan_for(canon, collective, nodes, ppn, s,
                     thresholds=thresholds).schedule
        )
        groups.setdefault(id(sig), []).append(s)

    def _dag(s: int) -> FastpathResult:
        return _dag_evaluate_point(
            library, collective, nodes, ppn, s, params=params,
            warmup=warmup, measure=measure, thresholds=thresholds,
        )

    results: Dict[int, FastpathResult] = {}
    partitions: List[Tuple[int, ...]] = []
    fallback: List[int] = []
    singles: List[int] = []
    splits = 0
    retries = 0
    max_depth = 0
    elided = 0
    probe_mech = lib.make_mechanism()
    for group in groups.values():
        stack: List[Tuple[Tuple[int, ...], int]] = [(tuple(group), 0)]
        while stack:
            part, depth = stack.pop()
            if len(part) == 1:
                results[part[0]] = _dag(part[0])
                singles.append(part[0])
                continue
            lowered = _lower_column(
                canon, collective, nodes, ppn, part, thresholds
            )
            label_key = (
                canon, collective, nodes, ppn, thresholds, part,
                params.eager_threshold, getattr(probe_mech, "threshold",
                                                None),
            )
            try:
                labels = _SPLIT_CACHE[label_key]
            except KeyError:
                labels = _SPLIT_CACHE[label_key] = _static_split_labels(
                    lowered, params, probe_mech, len(part)
                )
            if labels is not None:
                # statically-known protocol thresholds partition the
                # axis; split before running instead of aborting mid-pass
                classes: Dict[int, List[int]] = {}
                for s, lab in zip(part, labels):
                    classes.setdefault(int(lab), []).append(s)
                splits += len(classes) - 1
                for sub in classes.values():
                    stack.append((tuple(sub), depth))
                continue

            def handle_divergent(part, depth, divergent, labels):
                # event order at these sizes differed from the pivot's.
                # Sizes whose runs inverted the *same* conflict pairs
                # (equal divergence signatures) overwhelmingly agree with
                # each other, so each signature cluster is re-batched
                # under its own pivot, recursively up to _REBATCH_DEPTH
                # levels.  A cluster as large as its partition cannot
                # make progress (the pass is deterministic), so it —
                # like singleton clusters and depth exhaustion — goes to
                # the DAG engine.
                nonlocal retries, max_depth
                if depth >= _REBATCH_DEPTH:
                    for s, bad in zip(part, divergent):
                        if bad:
                            fallback.append(s)
                            results[s] = _dag(s)
                    return
                clusters: Dict[int, List[int]] = {}
                for s, lab, bad in zip(part, labels, divergent):
                    if bad:
                        clusters.setdefault(int(lab), []).append(s)
                for sub in clusters.values():
                    if len(sub) == 1 or len(sub) == len(part):
                        for s in sub:
                            fallback.append(s)
                            results[s] = _dag(s)
                    else:
                        retries += 1
                        if depth + 1 > max_depth:
                            max_depth = depth + 1
                        stack.append((tuple(sub), depth + 1))

            outcome_key = (
                canon, collective, nodes, ppn, thresholds, part,
                warmup, measure, params,
            )
            cached = _OUTCOME_CACHE.get(outcome_key)
            if (cached is not None
                    and len(part) - int(cached[0].sum()) <= 1):
                # steady state: the pass is known to accept at most its
                # pivot, so running it buys nothing over evaluating that
                # one size directly (results are bit-identical)
                elided += 1
                cdiv, clabels = cached
                for s, bad in zip(part, cdiv):
                    if not bad:
                        fallback.append(s)
                        results[s] = _dag(s)
                handle_divergent(part, depth, cdiv, clabels)
                continue
            try:
                part_results, divergent, labels = _evaluate_partition(
                    lowered, nodes, ppn, part, lib, params, warmup, measure,
                )
            except BatchDivergence as d:
                # a size-dependent branch was not uniform: split the
                # partition at the mask and retry both halves
                splits += 1
                mask = d.mask
                a = tuple(s for s, m in zip(part, mask) if m)
                b = tuple(s for s, m in zip(part, mask) if not m)
                if not a or not b:  # pragma: no cover - raisers check this
                    raise RuntimeError(
                        "BatchDivergence with a uniform mask"
                    ) from d
                stack.append((a, depth))
                stack.append((b, depth))
                continue
            _OUTCOME_CACHE[outcome_key] = (divergent, labels)
            partitions.append(part)
            any_divergent = False
            for s, r, bad in zip(part, part_results, divergent):
                if not bad:
                    results[s] = r
                else:
                    any_divergent = True
            if any_divergent:
                handle_divergent(part, depth, divergent, labels)
    stats = ColumnStats(
        tuple(partitions), tuple(sorted(fallback)), tuple(sorted(singles)),
        splits, retries, max_depth, elided,
    )
    return ColumnResult(results, stats)
