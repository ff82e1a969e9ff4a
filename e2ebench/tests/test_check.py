"""The output check flags any bit-level change to a result."""

import math

from check import (figure_mismatches, load_reference, result_key,
                   result_matches)


def _series(reference, name):
    fig = reference["figures"][name]
    series = {label: [float.fromhex(v) for v in vals]
              for label, vals in fig["series"].items()}
    return series, fig["internode_messages"]


def test_reference_figures_match_themselves():
    reference = load_reference()
    for name in reference["figures"]:
        series, msgs = _series(reference, name)
        assert figure_mismatches(reference, name, series, msgs) == []


def test_one_ulp_change_to_a_series_is_flagged():
    reference = load_reference()
    series, msgs = _series(reference, "fig09")
    label = sorted(series)[0]
    series[label][3] = math.nextafter(series[label][3], math.inf)
    problems = figure_mismatches(reference, "fig09", series, msgs)
    assert problems == [f"fig09/{label}: values differ"]


def test_internode_total_change_is_flagged():
    reference = load_reference()
    series, msgs = _series(reference, "fig01")
    assert figure_mismatches(reference, "fig01", series, msgs + 1)


def test_one_ulp_change_to_a_served_sample_is_flagged():
    from repro.bench.microbench import MicrobenchResult
    from repro.bench.runner.points import Point

    reference = load_reference()
    point = Point("PiP-MColl", "allreduce", 4, 4, 1024, engine="auto")
    t, samples, msgs = reference["serve"][result_key(
        "PiP-MColl", "allreduce", 4, 4, 1024)]
    samples = [float.fromhex(s) for s in samples]
    good = MicrobenchResult("PiP-MColl", "allreduce", 4, 4, 1024,
                            float.fromhex(t), tuple(samples), msgs)
    assert result_matches(reference, point, good)
    samples[0] = math.nextafter(samples[0], -math.inf)
    bad = MicrobenchResult("PiP-MColl", "allreduce", 4, 4, 1024,
                           float.fromhex(t), tuple(samples), msgs)
    assert not result_matches(reference, point, bad)
