"""Unit tests for the benchmark harness (config, protocol, runner, report)."""

import numpy as np
import pytest

from repro.bench import (
    SCALES,
    FigureResult,
    current_scale,
    format_normalized,
    format_table,
    paper_iterations,
    run_point,
)
from repro.util.units import KB


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"small", "medium", "paper"}
        assert SCALES["paper"].nodes == 128
        assert SCALES["paper"].ppn == 18
        assert SCALES["paper"].world_size == 2304

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.setenv("PIPMCOLL_SCALE", "small")
        assert current_scale().name == "small"
        monkeypatch.setenv("PIPMCOLL_SCALE", "PAPER")
        assert current_scale().name == "paper"

    def test_default_is_medium(self, monkeypatch):
        monkeypatch.delenv("PIPMCOLL_SCALE", raising=False)
        assert current_scale().name == "medium"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("PIPMCOLL_SCALE", "gigantic")
        with pytest.raises(ValueError, match="gigantic"):
            current_scale()

    def test_node_sweep_within_preset(self):
        for scale in SCALES.values():
            assert max(scale.node_sweep) <= scale.nodes


class TestPaperIterations:
    """The §IV-A iteration protocol, by size class."""

    @pytest.mark.parametrize(
        "nbytes,expected",
        [
            (16, 10_000),
            (1 * KB, 10_000),
            (1 * KB + 1, 1_000),
            (8 * KB, 1_000),
            (8 * KB + 1, 100),
            (128 * KB - 1, 100),
            (128 * KB, 10),
            (512 * KB, 10),
        ],
    )
    def test_size_classes(self, nbytes, expected):
        assert paper_iterations(nbytes) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            paper_iterations(-1)


class TestRunPoint:
    def test_result_fields(self):
        r = run_point("PiP-MColl", "scatter", 2, 2, 64)
        assert r.library == "PiP-MColl"
        assert r.collective == "scatter"
        assert r.time > 0
        assert len(r.samples) == 2
        assert r.internode_messages > 0

    def test_deterministic_across_repeats(self):
        a = run_point("PiP-MPICH", "allreduce", 3, 2, 128)
        b = run_point("PiP-MPICH", "allreduce", 3, 2, 128)
        assert a.time == b.time

    def test_warmup_iterations_are_excluded(self):
        """With a fault-paying mechanism, iteration 1 is slower; the
        measured samples must be post-warm-up and equal."""
        r = run_point("OpenMPI", "allreduce", 2, 2, 64 * KB, warmup=1, measure=3)
        for s in r.samples[1:]:
            assert s == pytest.approx(r.samples[0], rel=1e-9)
        # and warm iterations are cheaper than a cold start would be
        cold = run_point("OpenMPI", "allreduce", 2, 2, 64 * KB, warmup=0, measure=1)
        assert r.samples[0] < cold.samples[0]

    def test_all_collectives_supported(self):
        for coll in ("scatter", "allgather", "allreduce", "alltoall",
                     "bcast", "gather", "reduce"):
            assert run_point("IntelMPI", coll, 2, 2, 32).time > 0

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError, match="alltoallw"):
            run_point("PiP-MColl", "alltoallw", 2, 2, 32)

    def test_measure_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one"):
            run_point("PiP-MColl", "scatter", 2, 2, 32, measure=0)


@pytest.fixture()
def figure():
    return FigureResult(
        fig_id="figXX",
        title="demo",
        xlabel="size",
        xs=["16B", "32B"],
        series={
            "PiP-MColl": [1.0e-6, 2.0e-6],
            "Other": [2.0e-6, 3.0e-6],
            "Slow": [10.0e-6, 1.0e-6],
        },
    )


class TestReport:
    def test_format_table_contains_all_cells(self, figure):
        text = format_table(figure)
        assert "figXX" in text
        for lib in figure.series:
            assert lib in text
        assert "1.000us" in text and "3.000us" in text

    def test_format_table_prints_rate_series_without_time_unit(self):
        # fig01's series are rates whose unit is in the series name
        rates = FigureResult(
            fig_id="fig01", title="rates", xlabel="pairs", xs=[1],
            series={"msgrate_4kB[msg/s]": [3037725.465],
                    "throughput_128kB[B/s]": [0.5]},
        )
        text = format_table(rates)
        assert "3037725.465" in text and "0.500" in text
        assert "3037725.465s" not in text
        assert "ms" not in text.splitlines()[-1]

    def test_format_normalized_ratios(self, figure):
        text = format_normalized(figure)
        assert "2.00x" in text  # Other at 16B
        assert "0.50x" in text  # Slow at 32B

    def test_normalized_cap(self, figure):
        text = format_normalized(figure, cap=4.0)
        assert ">4x" in text
        assert "10.00x" not in text

    def test_speedup_vs(self, figure):
        assert figure.speedup_vs("Other") == [2.0, 1.5]

    def test_best_speedup_vs_fastest_other(self, figure):
        # at 16B fastest other is 2us -> 2x; at 32B fastest other is 1us -> 0.5x
        assert figure.best_speedup_vs_fastest_other() == pytest.approx(2.0)
