"""Column work units vs per-size DAG evaluation.

For every (point, size), ``evaluate_column`` must reproduce the DAG
engine's samples and message counts exactly — same floats, not "close"
floats — on axes that straddle the eager/rendezvous threshold, the hybrid
intranode-mechanism threshold and the PiP-MColl algorithm switches.
"""

import random

import pytest

from repro.core.tuning import Thresholds
from repro.sched.batch import evaluate_column
from repro.sched.fastpath import (
    clear_lowering_cache,
    evaluate_point,
    lowering_cache_info,
)
from repro.sched.registry import planner_cache_info, registry_combinations

#: canonical registry name -> the benchmark-facing display name
BENCH_NAME = {
    "pip-mcoll": "PiP-MColl",
    "pip-mcoll-small": "PiP-MColl-small",
    "pip-mpich": "PiP-MPICH",
    "openmpi": "OpenMPI",
    "mvapich2": "MVAPICH2",
    "intelmpi": "IntelMPI",
}

#: straddles the 16 KB eager/rendezvous default, the hybrid intranode
#: thresholds, and the PiP-MColl 64 KB algorithm switches
STRADDLE_AXIS = (16, 512, 4096, 16384, 32768, 65536, 131072, 262144)


def _assert_column_identical(lib, coll, nodes, ppn, sizes, **kw):
    col = evaluate_column(BENCH_NAME[lib], coll, nodes, ppn, sizes, **kw)
    assert set(col) == set(sizes)
    for s in sizes:
        ref = evaluate_point(lib, coll, nodes, ppn, s, **kw)
        got = col[s]
        label = f"{lib}/{coll} {nodes}x{ppn} {s}B"
        assert got.samples == ref.samples, label
        assert got.internode_messages == ref.internode_messages, label
    return col


# -- the acceptance grid: every registry pair, threshold-straddling axes --


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_column_identical_on_registry_grid(lib, coll):
    for nodes, ppn in ((2, 2), (3, 4)):
        _assert_column_identical(lib, coll, nodes, ppn, STRADDLE_AXIS)


def test_column_identical_on_randomized_shapes():
    """Fixed-seed fuzz over shapes, axes, and iteration protocols."""
    rng = random.Random(7)
    combos = registry_combinations()
    pool = (16, 96, 1024, 4096, 16384, 32768, 65536, 131072, 262144)
    for _ in range(8):
        lib, coll = rng.choice(combos)
        nodes = rng.randint(2, 4)
        ppn = rng.randint(1, 4)
        sizes = tuple(sorted(rng.sample(pool, rng.randint(2, 6))))
        _assert_column_identical(
            lib, coll, nodes, ppn, sizes,
            warmup=rng.randint(0, 2), measure=rng.randint(1, 3),
        )


# -- threshold-straddling axes --------------------------------------------


def test_threshold_straddling_axis_partitions():
    """An axis across the eager/rendezvous threshold stays exact."""
    _assert_column_identical(
        "pip-mcoll", "allgather", 2, 4,
        (512, 8192, 16384, 32768, 262144),
    )


def test_hybrid_mechanism_threshold_partitions():
    """An axis across OpenMPI's hybrid intranode threshold stays exact."""
    _assert_column_identical(
        "openmpi", "allgather", 2, 4, (64, 1024, 8192, 65536),
    )


# -- surface and argument checking ---------------------------------------


def test_batch_rejects_unsupported_pairs():
    with pytest.raises(ValueError, match="planner-backed"):
        evaluate_column("OpenMPI", "bcast", 2, 2, (512,))


def test_batch_rejects_threshold_overrides_without_thresholds():
    with pytest.raises(ValueError, match="thresholds"):
        evaluate_column(
            "PiP-MPICH", "allgather", 2, 2, (512,), thresholds=Thresholds()
        )


def test_batch_honours_threshold_overrides():
    kw = dict(thresholds=Thresholds.always_large())
    _assert_column_identical(
        "pip-mcoll", "allreduce", 2, 2, (512, 4096), **kw
    )


def test_batch_requires_measured_iteration():
    with pytest.raises(ValueError, match="measured"):
        evaluate_column("PiP-MColl", "allreduce", 2, 2, (512,), measure=0)


def test_batch_rejects_empty_axis():
    with pytest.raises(ValueError, match="empty"):
        evaluate_column("PiP-MColl", "allreduce", 2, 2, ())


# -- lowering cache -------------------------------------------------------


def test_repeated_columns_do_not_relower():
    clear_lowering_cache()
    sizes = (512, 1024, 4096)
    evaluate_column("PiP-MColl", "allgather", 2, 3, sizes)
    first = lowering_cache_info()
    assert first.misses > 0 and first.currsize > 0
    evaluate_column("PiP-MColl", "allgather", 2, 3, sizes)
    second = lowering_cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits


def test_lowering_cache_reports_through_planner_window():
    info = planner_cache_info()
    assert "dag_lowering" in info
    li = info["dag_lowering"]
    assert li == lowering_cache_info()
    assert hasattr(li, "hits") and hasattr(li, "misses")
