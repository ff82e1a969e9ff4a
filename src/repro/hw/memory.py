"""Per-node memory-system model.

Copies and reductions are the currency of intranode collective work.  The
node memory system is modelled as ``node_copy_bw / core_copy_bw`` concurrent
full-speed lanes fed by a FIFO queue (a standard first-order approximation
of fluid bandwidth sharing): one process copying runs at core speed; more
than ``lanes`` concurrent copies queue.

Page-fault accounting mirrors how kernel-assisted mechanisms behave: the
first time a consumer touches a foreign mapping it faults every page; later
touches of the same region are warm.  The microbenchmark protocol's warm-up
stage (§IV-A) therefore absorbs fault costs exactly like the real runs do.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Set, Tuple

from repro.hw.params import MachineParams
from repro.sim.engine import Delay, Engine, ProcGen
from repro.sim.resources import MultiServer

__all__ = ["MemoryModel"]


class MemoryModel:
    """Memory system of one node."""

    def __init__(self, engine: Engine, params: MachineParams, node: int):
        self.engine = engine
        self.params = params
        self.node = node
        self.lanes = MultiServer(params.derived_copy_lanes(), name=f"mem[{node}]")
        self._warmed: Set[Hashable] = set()
        #: bytes copied / reduced (accounting for reports and tests)
        self.bytes_copied = 0
        self.bytes_reduced = 0

    # -- cost arithmetic (no simulated blocking) --------------------------

    def copy_service(self, nbytes: int) -> float:
        """Lane occupancy for copying ``nbytes`` at core speed."""
        return nbytes / self.params.core_copy_bw

    def reduce_service(self, nbytes: int) -> float:
        """Lane occupancy for reducing ``nbytes`` (read+op+write streams)."""
        return nbytes / self.params.reduce_bw

    def fault_cost(self, region: Hashable, nbytes: int) -> float:
        """Page-fault cost for touching ``region``; warm after first touch.

        ``region`` identifies (consumer, mapped buffer) — the fault happens
        in the page table of the process doing the touching.
        """
        if nbytes == 0 or region in self._warmed:
            return 0.0
        self._warmed.add(region)
        pages = -(-nbytes // self.params.page_size)
        return pages * self.params.page_fault_time

    def forget_warm_state(self) -> None:
        """Drop page-fault warm state (used between benchmark repetitions)."""
        self._warmed.clear()

    # -- occupancy closures (reserve lanes now, return the blocked time) --

    def copy_occupy(self, now: float, nbytes: int, extra_fixed: float = 0.0) -> float:
        """Reserve the lanes for one copy starting ``now``; return how long
        the calling process is blocked.

        The per-byte part contends for memory lanes; ``copy_latency`` and
        ``extra_fixed`` (syscalls, faults, handshakes) are charged to the
        process without occupying a lane.  This is the shared cost closure:
        the event engine yields the returned duration as a ``Delay``, the
        DAG fast path schedules it directly on a timeline.
        """
        blocked = self.params.copy_latency + extra_fixed
        if nbytes > 0:
            # lanes.reserve inlined (same arithmetic and accounting):
            # this runs once per simulated copy and sits on the hot path
            # of both engines
            lanes = self.lanes
            service = nbytes / self.params.core_copy_bw
            heap = lanes._free_heap
            earliest = heappop(heap)
            start = earliest if earliest > now else now
            end = start + service
            heappush(heap, end)
            lanes.busy_time += service
            lanes.served += 1
            blocked += end - now
            self.bytes_copied += nbytes
        return blocked

    def reduce_occupy(self, now: float, nbytes: int, extra_fixed: float = 0.0) -> float:
        """Reserve the lanes for one reduction; return the blocked time."""
        blocked = self.params.copy_latency + extra_fixed
        if nbytes > 0:
            lanes = self.lanes
            service = nbytes / self.params.reduce_bw
            heap = lanes._free_heap
            earliest = heappop(heap)
            start = earliest if earliest > now else now
            end = start + service
            heappush(heap, end)
            lanes.busy_time += service
            lanes.served += 1
            blocked += end - now
            self.bytes_reduced += nbytes
        return blocked

    # -- blocking operations (yield from these inside a process) ----------

    def copy(self, nbytes: int, extra_fixed: float = 0.0) -> ProcGen:
        """Block the calling process for one ``nbytes`` copy."""
        yield Delay(self.copy_occupy(self.engine.now, nbytes, extra_fixed))

    def reduce(self, nbytes: int, extra_fixed: float = 0.0) -> ProcGen:
        """Block the calling process for one ``nbytes`` reduction."""
        yield Delay(self.reduce_occupy(self.engine.now, nbytes, extra_fixed))

    def utilisation(self) -> Tuple[float, int]:
        """(total lane-busy seconds, operations served)."""
        return self.lanes.busy_time, self.lanes.served
