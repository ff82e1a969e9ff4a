"""Planner-backed (library, collective) registry.

Maps the benchmark-facing library/collective names to the planner that the
live wrapper would execute for a given shape and message size — honouring
the same selection logic (:class:`~repro.core.tuning.Thresholds` for
PiP-MColl, MPICH's total-size/power-of-two allgather and 2 kB allreduce
switches for the baselines) — and describes the buffer environment each
participant starts with, so :mod:`repro.sched.check` can verify the
schedule without running the simulator and the DAG engine
(:mod:`repro.sched.fastpath`) can replay it.

Coverage is every library of the paper's figures (with the
PiP-MColl-small variant) times the three primary collectives: the
PiP-MColl algorithms, the flat MPICH-style baselines (PiP-MPICH, Open
MPI), and the leader-based compositions of MVAPICH2 and Intel MPI.

Buffer sizes are in *elements*; the microbenchmarks drive every collective
with byte elements, so element counts equal byte counts throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sched.ir import Schedule
from repro.sched.plans.baseline import (
    plan_allgather_bruck,
    plan_allgather_recursive_doubling,
    plan_allgather_ring,
    plan_allreduce_rabenseifner,
    plan_allreduce_recursive_doubling,
    plan_mpich_allgather,
    plan_mpich_allreduce,
    plan_scatter_binomial,
)
from repro.sched.plans.hierarchical import (
    hier_tag_groups,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_scatter,
)
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_scatter,
)

__all__ = [
    "PlannedCollective",
    "plan_for",
    "planner_cache_info",
    "registry_combinations",
    "LIBRARIES",
    "COLLECTIVES",
]

#: checker-facing library names (canonical, lowercase)
LIBRARIES = (
    "pip-mcoll", "pip-mcoll-small", "pip-mpich", "openmpi", "mvapich2",
    "intelmpi",
)
COLLECTIVES = ("scatter", "allgather", "allreduce")

_FLAT = ("pip-mpich", "openmpi")
_HIER = ("mvapich2", "intelmpi")


@dataclass(frozen=True)
class PlannedCollective:
    """One checkable schedule plus its execution environment.

    ``ranks[i]`` is the global rank running ``schedule.programs[i]``;
    ``bindings[i]`` maps that participant's input buffer names to element
    counts.  ``tag_groups`` lists the schedule's symbolic tags as
    ``(Sym name, group ranks)`` pairs, in the order one invocation draws
    them: at execution each resolves to that group's next collective tag
    (``RankCtx.collective_tag`` / ``FastWorld.next_group_tag``).
    """

    label: str
    schedule: Schedule
    ranks: Tuple[int, ...]
    bindings: Tuple[Dict[str, int], ...]
    tag_groups: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    @property
    def symbols(self) -> dict:
        """One distinct stand-in value per symbolic tag — enough for the
        static checker and for one-shot replays, which need tags to match
        within an invocation only."""
        return {name: ("check-tag", name) for name, _ in self.tag_groups}


def _norm_library(name: str) -> str:
    canon = name.lower().replace("_", "-").replace(" ", "-")
    if canon not in LIBRARIES:
        raise ValueError(
            f"no planner-backed library {name!r}; known: {list(LIBRARIES)}"
        )
    return canon


def _mcoll_thresholds(library: str, thresholds) -> "Thresholds":
    from repro.core.tuning import Thresholds

    if thresholds is not None:
        return thresholds
    if library == "pip-mcoll-small":
        return Thresholds.always_small()
    return Thresholds()


def plan_for(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    nbytes: int,
    thresholds: Optional["Thresholds"] = None,
) -> PlannedCollective:
    """The schedule the named library would execute for this point.

    ``nbytes`` is the per-process message size in bytes (byte elements),
    matching the microbenchmark convention.
    """
    library = _norm_library(library)
    if collective not in COLLECTIVES:
        raise ValueError(
            f"no planner-backed collective {collective!r}; "
            f"known: {list(COLLECTIVES)}"
        )
    if nodes < 1 or ppn < 1 or nbytes < 1:
        raise ValueError("nodes, ppn and nbytes must be positive")
    size = nodes * ppn
    world = tuple(range(size))

    if library in ("pip-mcoll", "pip-mcoll-small"):
        thr = _mcoll_thresholds(library, thresholds)
        if collective == "scatter":
            schedule = plan_scatter(nodes, ppn, nbytes, 0, True)
        elif collective == "allgather":
            if nbytes < thr.allgather_large_bytes:
                schedule = plan_allgather_small(nodes, ppn, nbytes)
            else:
                schedule = plan_allgather_large(nodes, ppn, nbytes)
        elif nbytes < thr.allreduce_large_bytes:
            schedule = plan_allreduce_small(nodes, ppn, nbytes)
        else:
            schedule = plan_allreduce_large(nodes, ppn, nbytes)
        tag_groups = ()
    elif library in _FLAT:
        # PiP-MPICH and Open MPI share MPICH's selection over the world
        if collective == "scatter":
            schedule = plan_scatter_binomial(world, nbytes, 0)
        elif collective == "allgather":
            schedule = plan_mpich_allgather(world, nbytes)
        else:
            schedule = plan_mpich_allreduce(world, nbytes)
        tag_groups = (("tag", world),)
    else:  # leader-based (MVAPICH2 / Intel MPI)
        planner = {
            "scatter": plan_hier_scatter,
            "allgather": plan_hier_allgather,
            "allreduce": plan_hier_allreduce,
        }[collective]
        schedule = planner(nodes, ppn, nbytes)
        tag_groups = hier_tag_groups(collective, nodes, ppn)
    return PlannedCollective(
        label=f"{library} {collective} {nodes}x{ppn} {nbytes}B "
              f"[{schedule.label}]",
        schedule=schedule,
        ranks=world,
        bindings=_bindings(collective, size, nbytes),
        tag_groups=tag_groups,
    )


def _bindings(collective: str, size: int, nbytes: int):
    """Input buffers as the microbenchmark binds them (root = rank 0)."""
    if collective == "scatter":
        return ({"send": size * nbytes, "recv": nbytes},) + tuple(
            {"recv": nbytes} for _ in range(size - 1)
        )
    if collective == "allgather":
        return tuple({"send": nbytes, "recv": size * nbytes}
                     for _ in range(size))
    return tuple({"send": nbytes, "recv": nbytes} for _ in range(size))


def planner_cache_info() -> Dict[str, "object"]:
    """``lru_cache`` counters of every registered planner, by name.

    Each value is the planner's ``functools.CacheInfo`` (hits, misses,
    maxsize, currsize); every cache is a bounded LRU of
    :data:`repro.sched.emit.PLAN_CACHE_SIZE` entries.  Sweeps hit the same (shape, size) plan once per
    point per process; anything beyond one miss per distinct signature
    means re-planning, which ``tests/sched/test_fastpath.py`` guards
    against.
    """
    planners = (
        plan_scatter,
        plan_allgather_small,
        plan_allgather_large,
        plan_allreduce_small,
        plan_allreduce_large,
        plan_allgather_bruck,
        plan_allgather_recursive_doubling,
        plan_allgather_ring,
        plan_scatter_binomial,
        plan_allreduce_recursive_doubling,
        plan_allreduce_rabenseifner,
        plan_hier_scatter,
        plan_hier_allgather,
        plan_hier_allreduce,
    )
    info = {fn.__name__: fn.cache_info() for fn in planners}
    # the DAG engine's lowering cache is the same kind of animal — one
    # compiled artifact per schedule, re-use counted — so it reports
    # through the same window (lazy import: the registry must not pull in
    # the engine stack)
    from repro.sched.fastpath import lowering_cache_info

    info["dag_lowering"] = lowering_cache_info()
    return info


def registry_combinations() -> List[Tuple[str, str]]:
    """Every (library, collective) pair with planner-backed coverage."""
    return [(lib, coll) for lib in LIBRARIES for coll in COLLECTIVES]
