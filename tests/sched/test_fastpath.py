"""Cross-engine equivalence: the DAG fast path vs the event loop.

The fast path's whole contract is *bit-identical* timing: for every
planner-backed (library, collective) pair, ``engine="dag"`` must reproduce
the event loop's samples and message counts exactly — same floats, not
"close" floats — across the full registry grid and randomized shapes.
Anything less means the analytic evaluator serviced some resource queue in
a different order than the event loop would have, which is precisely the
class of bug equivalence testing exists to catch.
"""

import random

import pytest

from repro.bench.microbench import resolve_engine, run_point
from repro.sched.check import check_planned
from repro.sched.fastpath import (
    evaluate_point,
    evaluate_tables,
    fastpath_supported,
)
from repro.sched.registry import (
    plan_for,
    planner_cache_info,
    registry_combinations,
)

#: canonical registry name -> the benchmark-facing display name run_point
#: expects
BENCH_NAME = {
    "pip-mcoll": "PiP-MColl",
    "pip-mcoll-small": "PiP-MColl-small",
    "pip-mpich": "PiP-MPICH",
    "openmpi": "OpenMPI",
}

SHAPES = ((2, 2), (4, 3))
SIZES = (512, 32768, 131072)


def _assert_point_identical(lib, coll, nodes, ppn, nbytes, **kw):
    event = run_point(BENCH_NAME[lib], coll, nodes, ppn, nbytes,
                      engine="event", **kw)
    dag = run_point(BENCH_NAME[lib], coll, nodes, ppn, nbytes,
                    engine="dag", **kw)
    label = f"{lib}/{coll} {nodes}x{ppn} {nbytes}B"
    assert dag.samples == event.samples, label
    assert dag.internode_messages == event.internode_messages, label
    assert dag == event, label


# -- the acceptance grid: every registry pair x shapes x sizes ------------


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_cross_engine_identical_on_registry_grid(lib, coll):
    for nodes, ppn in SHAPES:
        for nbytes in SIZES:
            _assert_point_identical(lib, coll, nodes, ppn, nbytes)


def test_cross_engine_identical_on_randomized_shapes():
    """Fixed-seed fuzz over shapes, sizes, and iteration protocols."""
    rng = random.Random(0)
    combos = registry_combinations()
    for _ in range(12):
        lib, coll = rng.choice(combos)
        nodes = rng.randint(2, 5)
        ppn = rng.randint(1, 4)
        nbytes = rng.choice((16, 1024, 4096, 65536, 262144))
        warmup = rng.randint(0, 2)
        _assert_point_identical(
            lib, coll, nodes, ppn, nbytes, warmup=warmup, measure=3
        )


# -- traffic volumes: the DAG's accounting must match the static checker --


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_volume_tables_match_static_checker(lib, coll):
    nodes, ppn, nbytes = 4, 3, 4096
    tables = evaluate_tables(lib, coll, nodes, ppn, nbytes)
    planned = plan_for(lib, coll, nodes, ppn, nbytes)
    report = check_planned(planned, ppn)
    assert tables == report.per_rank


# -- engine selection and guard rails -------------------------------------


def test_auto_resolves_to_dag_only_where_supported():
    assert resolve_engine("auto", "PiP-MColl", "allreduce") == "dag"
    assert resolve_engine("auto", "pip_mcoll", "scatter") == "dag"
    assert resolve_engine("auto", "OpenMPI", "allgather") == "dag"
    # hierarchical baselines still run as generators
    assert resolve_engine("auto", "MVAPICH2", "allreduce") == "event"
    # non-planner-backed collectives of planner-backed libraries
    assert resolve_engine("auto", "PiP-MColl", "alltoall") == "event"
    assert resolve_engine("auto", "OpenMPI", "allreduce") == "event"
    # tracing always needs the event loop
    assert resolve_engine("auto", "PiP-MColl", "allreduce", tracing=True) \
        == "event"
    # "native"/"native-batch" were JIT replay tiers, since removed
    for name in ("fast", "native", "native-batch"):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(name, "PiP-MColl", "allreduce")
        with pytest.raises(ValueError, match=f"unknown engine '{name}'"):
            run_point("PiP-MColl", "allreduce", 2, 2, 512, engine=name)


def test_fastpath_supported_matches_registry():
    for lib, coll in registry_combinations():
        assert fastpath_supported(BENCH_NAME[lib], coll)
    assert not fastpath_supported("MVAPICH2", "allreduce")
    assert not fastpath_supported("PiP-MPICH", "allreduce")
    assert not fastpath_supported("PiP-MColl", "bcast")


def test_dag_engine_rejects_unsupported_pairs():
    with pytest.raises(ValueError, match="planner-backed"):
        run_point("MVAPICH2", "allreduce", 2, 2, 512, engine="dag")
    with pytest.raises(ValueError, match="planner-backed"):
        evaluate_point("PiP-MPICH", "scatter", 2, 2, 512)


def test_dag_engine_rejects_tracing():
    from repro.sim.trace import Tracer

    with pytest.raises(ValueError, match="trace"):
        run_point("PiP-MColl", "allreduce", 2, 2, 512, engine="dag",
                  tracer=Tracer())


def test_auto_degrades_to_event_instead_of_raising():
    result = run_point("MVAPICH2", "allreduce", 2, 2, 512, engine="auto")
    reference = run_point("MVAPICH2", "allreduce", 2, 2, 512, engine="event")
    assert result == reference


def test_dag_engine_honours_threshold_overrides():
    from repro.core.tuning import Thresholds

    kw = dict(thresholds=Thresholds.always_large())
    _assert_point_identical("pip-mcoll", "allreduce", 2, 2, 512, **kw)
    with pytest.raises(ValueError, match="thresholds"):
        run_point("PiP-MPICH", "allgather", 2, 2, 512, engine="dag",
                  thresholds=Thresholds())


def test_dag_engine_requires_measured_iteration():
    with pytest.raises(ValueError, match="measured"):
        evaluate_point("PiP-MColl", "allreduce", 2, 2, 512, measure=0)


# -- planner cache: repeated sweep points must not re-plan ----------------


def test_repeated_points_do_not_replan():
    spec = ("PiP-MColl", "allreduce", 3, 2, 7168)
    run_point(*spec, engine="dag")  # plans on first sight (or earlier test)
    before = planner_cache_info()
    run_point(*spec, engine="dag")
    run_point(*spec, engine="event")  # executor wrappers share the caches
    after = planner_cache_info()
    assert set(after) == set(before) and len(after) == 9
    for name in after:
        assert after[name].misses == before[name].misses, name
    assert sum(i.hits for i in after.values()) > sum(
        i.hits for i in before.values()
    )
