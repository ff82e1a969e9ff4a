"""Intranode transfer mechanism interface.

A mechanism answers three questions about an intranode point-to-point
message (the transport charges everything else):

1. what work does the *sender* do before the message is visible to the
   receiver, and does the send then complete eagerly (double-copy POSIX) or
   only once the receiver has copied (single-copy kernel/PiP mechanisms)?
2. what *fixed* costs hit at match time (size-sync handshakes, syscalls,
   attach operations, page faults)?
3. how many bytes does the *receiver* copy?

These are exactly the axes along which §II distinguishes POSIX-SHMEM,
CMA/KNEM/LiMiC, XPMEM, and PiP.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.engine import Delay, ProcGen

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.memory import MemoryModel

__all__ = ["ShmemMechanism", "MsgInfo"]


@dataclass(slots=True)
class MsgInfo:
    """What a mechanism needs to know about one intranode message.

    A plain slots dataclass (not frozen): one is built per intranode
    message on the simulation hot path, and frozen-dataclass field
    assignment via ``object.__setattr__`` costs several times a normal
    ``__init__``.  Mechanisms treat it as read-only by convention.
    """

    src_rank: int
    dst_rank: int
    nbytes: int
    #: identity of the sender-side allocation (page-fault / attach warm key)
    src_buffer_id: int


class ShmemMechanism(abc.ABC):
    """One intranode data-movement mechanism."""

    #: mechanism name for reports
    name: str = "abstract"
    #: True if the sender completes without receiver participation
    eager: bool = False

    def sender_occupy(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        """Seconds the sender is blocked before the message is posted.

        The shared cost closure behind :meth:`sender_work`: called at the
        moment the sender starts its work, it performs any resource
        reservations / warm-state mutations and returns the blocked time.
        Mechanisms override *this*, not :meth:`sender_work`; the default
        costs nothing (descriptor-post mechanisms).
        """
        return 0.0

    def sender_work(self, mem: "MemoryModel", msg: MsgInfo) -> ProcGen:
        """Blocking work at the sender before the message is posted.

        One ``Delay`` of :meth:`sender_occupy`'s duration — the event-loop
        rendering of the cost closure (a zero cost still suspends once,
        exactly like the historical no-op generator did).
        """
        yield Delay(self.sender_occupy(mem, msg))

    @abc.abstractmethod
    def match_fixed(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        """Fixed receiver-side cost at match time (syscall/attach/sync)."""

    def receiver_copy_bytes(self, nbytes: int) -> int:
        """Bytes the receiver copies out (default: the whole message)."""
        return nbytes

    def eager_for(self, nbytes: int) -> bool:
        """Whether a message of ``nbytes`` completes eagerly at the sender."""
        return self.eager

    def __str__(self) -> str:
        return self.name
