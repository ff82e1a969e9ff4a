"""Column work units: one message-size column, evaluated size by size.

The paper's figures sweep message size at fixed (library, collective,
topology, ppn).  The sweep runner and :mod:`repro.serve` group the
planner-backed ``auto`` points of such a column into one work unit, so a
column is one pool task and one store shard.  This module evaluates that
unit: every distinct size runs on the DAG engine
(:func:`repro.sched.fastpath.evaluate_point`), so each result is the DAG
engine's own, which is bit-identical to the event loop.  The planners and
the per-schedule lowering are cached per process, so the sizes of a
column share one warm planner and lowering state.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.hw.params import MachineParams
from repro.sched.fastpath import FastpathResult
from repro.sched.fastpath import evaluate_point as _dag_evaluate_point
# a module attribute for tools that wrap ``plan_for`` per importing module
# (e2ebench/figrun.py times planning this way)
from repro.sched.registry import plan_for  # noqa: F401

__all__ = ["evaluate_column"]


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
) -> Dict[int, FastpathResult]:
    """Evaluate every distinct size of a column on the DAG engine.

    Same microbenchmark protocol as
    :func:`repro.sched.fastpath.evaluate_point` (fresh world per size,
    ``warmup`` unrecorded iterations, ``measure`` recorded ones) and the
    same argument checks.  Returns ``{size: result}``.
    """
    uniq = sorted({int(s) for s in sizes})
    if not uniq:
        raise ValueError("empty size axis")
    # looked up as a module global on every call, so a wrapper installed
    # on this module sees each size
    return {
        s: _dag_evaluate_point(
            library, collective, nodes, ppn, s, params=params,
            warmup=warmup, measure=measure, thresholds=thresholds,
        )
        for s in uniq
    }
