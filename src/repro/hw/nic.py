"""Per-node NIC model (LogGP-flavoured, with hardware rate ceilings).

An internode message passes through, in order:

1. the *sender process's injection pipeline* — a FIFO server per local
   process with per-message service ``max(1/proc_msg_rate,
   nbytes/proc_bandwidth)``.  This is the resource a **single** process
   saturates, and the reason multi-object designs win (Fig. 1);
2. the *node NIC transmit side* — a message-rate limiter (97 M msg/s for
   OPA) in series with a bandwidth server (``nbytes/nic_bandwidth``), both
   shared by every process on the node;
3. the *wire* — constant one-way latency;
4. the *destination NIC receive side* — rate limiter + bandwidth server,
   pipelined with the transmit side (the receive reservation starts when
   the head of the message arrives, so an uncontended transfer costs
   ``nbytes/B + L``, not ``2·nbytes/B + L``, while incast still queues).

All reservations are eager (see :mod:`repro.sim.resources`); the function
returns the two times the MPI layer needs: when the sender's injection
completed (local completion for nonblocking sends) and when the full message
is available at the destination.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hw.params import MachineParams
from repro.sim.resources import RateLimiter, Server

__all__ = ["NodeNic"]


class NodeNic:
    """NIC state for one node."""

    def __init__(self, params: MachineParams, node: int, ppn: int,
                 fabric: "Server | None" = None):
        self.params = params
        self.node = node
        #: shared core-fabric bandwidth server (None = full bisection)
        self.fabric = fabric
        self.inject: List[Server] = [
            Server(name=f"inject[{node}.{lr}]") for lr in range(ppn)
        ]
        self.tx_rate = RateLimiter(params.nic_msg_rate, name=f"txrate[{node}]")
        self.rx_rate = RateLimiter(params.nic_msg_rate, name=f"rxrate[{node}]")
        self.tx_bw = Server(name=f"txbw[{node}]")
        self.rx_bw = Server(name=f"rxbw[{node}]")
        #: messages / bytes sent (accounting)
        self.messages_sent = 0
        self.bytes_sent = 0

    def inject_service(self, nbytes: int, dma: bool = False) -> float:
        """Injection-pipeline occupancy for one message.

        Eager messages are copied by the CPU into bounce buffers
        (``proc_bandwidth``); rendezvous data is DMA-pulled by the NIC
        (``proc_dma_bandwidth``) and only costs the process its doorbell.
        """
        p = self.params
        bw = p.proc_dma_bandwidth if dma else p.proc_bandwidth
        return max(1.0 / p.proc_msg_rate, nbytes / bw)

    def wire_service(self, nbytes: int) -> float:
        """NIC bandwidth-server occupancy for one message."""
        return nbytes / self.params.nic_bandwidth

    def transfer(
        self, now: float, src_local: int, dst: "NodeNic", nbytes: int,
        dma: bool = False,
    ) -> Tuple[float, float]:
        """Reserve the full path for one message.

        Returns ``(inject_done, arrival)``: when the sending process's
        injection pipeline frees (local send completion) and when the last
        byte is available at ``dst``.
        """
        p = self.params
        self.messages_sent += 1
        self.bytes_sent += nbytes

        # All three stages are cut-through pipelined: a downstream stage
        # starts when the *head* of the message clears the upstream stage,
        # and a message cannot finish a stage before it finishes the
        # previous one.  An uncontended transfer therefore costs
        # ``nbytes / min(stage bandwidths) + wire latency``, while each
        # stage still serialises competing messages FIFO.
        #
        # The Server/RateLimiter reservations are inlined here (same
        # arithmetic, same accounting fields): this function runs once per
        # simulated message and the method-call overhead of five reserve/
        # admit calls dominated its cost.
        # 1. per-process injection
        inj = self.inject[src_local]
        service = nbytes / (p.proc_dma_bandwidth if dma else p.proc_bandwidth)
        rate_floor = 1.0 / p.proc_msg_rate
        if service < rate_floor:
            service = rate_floor
        inj_start = inj._next_free
        if now > inj_start:
            inj_start = now
        inj_done = inj_start + service
        inj._next_free = inj_done
        inj.busy_time += service
        inj.served += 1
        # 2. node transmit side: rate ceiling then bandwidth
        tx_rate = self.tx_rate
        tx_admit = tx_rate._next_slot
        if inj_start > tx_admit:
            tx_admit = inj_start
        tx_rate._next_slot = tx_admit + tx_rate._interval
        tx_rate.admitted += 1
        wire_service = nbytes / p.nic_bandwidth
        tx_bw = self.tx_bw
        tx_start = tx_bw._next_free
        if tx_admit > tx_start:
            tx_start = tx_admit
        tx_end = tx_start + wire_service
        tx_bw._next_free = tx_end
        tx_bw.busy_time += wire_service
        tx_bw.served += 1
        if inj_done > tx_end:
            tx_end = inj_done
        # 2b. oversubscribed core fabric (optional), pipelined like the rest
        if self.fabric is not None:
            fab_start, fab_end = self.fabric.reserve(
                tx_start, nbytes / p.fabric_bandwidth
            )
            fab_end = max(fab_end, tx_end)
            head_start, tail_end = fab_start, fab_end
        else:
            head_start, tail_end = tx_start, tx_end
        # 3+4. wire + receive side
        head_arrival = head_start + p.wire_latency
        rx_rate = dst.rx_rate
        rx_admit = rx_rate._next_slot
        if head_arrival > rx_admit:
            rx_admit = head_arrival
        rx_rate._next_slot = rx_admit + rx_rate._interval
        rx_rate.admitted += 1
        rx_service = nbytes / dst.params.nic_bandwidth
        rx_bw = dst.rx_bw
        rx_start = rx_bw._next_free
        if rx_admit > rx_start:
            rx_start = rx_admit
        rx_end = rx_start + rx_service
        rx_bw._next_free = rx_end
        rx_bw.busy_time += rx_service
        rx_bw.served += 1
        arrival = tail_end + p.wire_latency
        if rx_end > arrival:
            arrival = rx_end
        return inj_done, arrival

    def reset(self) -> None:
        for s in self.inject:
            s.reset()
        self.tx_rate.reset()
        self.rx_rate.reset()
        self.tx_bw.reset()
        self.rx_bw.reset()
        self.messages_sent = 0
        self.bytes_sent = 0
