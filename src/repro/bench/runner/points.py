"""Declarative sweep points.

A :class:`Point` is everything :func:`repro.bench.microbench.run_point`
needs, as a frozen, hashable, picklable value object.  Figure sweeps build
lists of points; the runner decides how (and whether) to execute them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams, bebop_broadwell

__all__ = ["Point", "expand_sweep"]


@dataclass(frozen=True)
class Point:
    """One microbenchmark point: a fully specified, independent simulation.

    ``params=None`` means the default testbed machine
    (:func:`~repro.hw.params.bebop_broadwell`); the cache key always uses
    the *resolved* parameters, so a changed default cannot alias stale
    entries.

    ``thresholds=None`` means the library's own defaults; a non-``None``
    value overrides the algorithm switch points (ablations).  It is part
    of the cache key — two ablation variants of the same library can never
    alias each other's cached results
    (``tests/bench/test_runner.py`` pins this).
    """

    library: str
    collective: str
    nodes: int
    ppn: int
    msg_bytes: int
    warmup: int = 1
    measure: int = 2
    params: Optional[MachineParams] = None
    thresholds: Optional[Thresholds] = None
    #: evaluation engine (see repro.bench.microbench.ENGINES).  Part of the
    #: cache key: ``auto`` may resolve differently as fast-path coverage
    #: grows, so engines never share cached entries even though ``dag``
    #: and ``batch`` are bit-identical by construction.
    engine: str = "event"

    def resolved_params(self) -> MachineParams:
        return self.params if self.params is not None else bebop_broadwell()

    def spec_dict(self) -> Dict:
        """Canonical JSON-able description (stable cache-key input)."""
        return {
            "library": self.library,
            "collective": self.collective,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "msg_bytes": self.msg_bytes,
            "warmup": self.warmup,
            "measure": self.measure,
            "params": asdict(self.resolved_params()),
            # None = library default; the library name is in the key, so a
            # default can never alias an explicit override
            "thresholds": (
                None if self.thresholds is None else asdict(self.thresholds)
            ),
            "engine": self.engine,
        }

    def label(self) -> str:
        """Short human-readable form for progress lines."""
        return (
            f"{self.library} {self.collective} "
            f"{self.nodes}x{self.ppn} {self.msg_bytes}B"
        )


def expand_sweep(
    collective: str,
    sizes: Sequence[int],
    libs: Sequence[str],
    nodes: int,
    ppn: int,
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    engine: str = "event",
) -> List[Point]:
    """Expand a message-size sweep into points, size-major then library —
    the same order the serial loops used, so progress output and result
    ordering stay familiar."""
    return [
        Point(lib, collective, nodes, ppn, nbytes, warmup, measure, params,
              engine=engine)
        for nbytes in sizes
        for lib in libs
    ]
