"""PiP-MColl reproduction: Process-in-Process-based multi-object MPI
collectives on a simulated cluster.

This package reproduces Huang et al., *PiP-MColl: Process-in-Process-based
Multi-object MPI Collectives* (IEEE CLUSTER 2023), entirely in Python: a
deterministic discrete-event cluster simulator (NIC, memory, shared-memory
mechanisms) hosts a simulated MPI runtime on which both the paper's
contribution (:mod:`repro.core`) and the baseline MPI libraries
(:mod:`repro.baselines`) run, with real numpy data movement so every
collective is functionally verifiable.

Quickstart::

    import repro

    lib = repro.make_library("PiP-MColl")
    world = lib.make_world(repro.Topology(4, 3), repro.bebop_broadwell())
    ...

See ``examples/quickstart.py`` for a complete runnable program and
``README.md`` for the architecture overview.
"""

from repro.baselines import (
    MpiLibrary,
    all_libraries,
    library_names,
    make_library,
)
from repro.core import PiPMColl, Thresholds
from repro.hw import MachineParams, Topology, bebop_broadwell, tiny_test_machine
from repro.mpi import (
    BYTE,
    DOUBLE,
    FLOAT32,
    INT32,
    INT64,
    MAX,
    MIN,
    PROD,
    SUM,
    Buffer,
    RankCtx,
    RunResult,
    World,
)

__version__ = "1.6.0"

__all__ = [
    "MpiLibrary",
    "all_libraries",
    "library_names",
    "make_library",
    "PiPMColl",
    "Thresholds",
    "MachineParams",
    "Topology",
    "bebop_broadwell",
    "tiny_test_machine",
    "BYTE",
    "DOUBLE",
    "FLOAT32",
    "INT32",
    "INT64",
    "MAX",
    "MIN",
    "PROD",
    "SUM",
    "Buffer",
    "RankCtx",
    "RunResult",
    "World",
    "__version__",
]
