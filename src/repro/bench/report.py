"""ASCII rendering of figure results (the rows/series the paper plots)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.util.units import fmt_time

__all__ = ["FigureResult", "format_table", "format_normalized"]


@dataclass
class FigureResult:
    """One reproduced figure: x-axis points and one time series per library."""

    fig_id: str
    title: str
    xlabel: str
    xs: Sequence
    #: library name -> simulated seconds per iteration, one per x
    series: Dict[str, List[float]]
    notes: str = ""
    #: extra metadata (scale preset, shapes, ...)
    meta: Dict[str, str] = field(default_factory=dict)

    def speedup_vs(self, other: str, reference: str = "PiP-MColl") -> List[float]:
        """Per-x speedup of ``reference`` over ``other``."""
        ref = self.series[reference]
        oth = self.series[other]
        return [o / r if r > 0 else float("inf") for r, o in zip(ref, oth)]

    def best_speedup_vs_fastest_other(
        self, reference: str = "PiP-MColl"
    ) -> float:
        """Max over x of reference's speedup vs the fastest non-reference
        library — the paper's headline metric."""
        best = 0.0
        ref = self.series[reference]
        for i in range(len(self.xs)):
            others = [
                s[i] for name, s in self.series.items() if name != reference
            ]
            if others and ref[i] > 0:
                best = max(best, min(others) / ref[i])
        return best


def _col_width(values: List[str]) -> int:
    return max(len(v) for v in values)


def _fmt_value(series: str, value: float) -> str:
    """A series named with a bracketed unit (``msgrate_4kB[msg/s]``) is
    not a time: its header already carries the unit, so the value prints
    bare.  Every other series is simulated seconds."""
    if series.endswith("]") and "[" in series:
        return f"{value:.3f}"
    return fmt_time(value)


def format_table(result: FigureResult) -> str:
    """Absolute values, one row per x, one column per library: simulated
    times, or plain numbers for series that name their own unit."""
    libs = list(result.series)
    header = [result.xlabel] + libs
    rows = []
    for i, x in enumerate(result.xs):
        rows.append(
            [str(x)] + [_fmt_value(lib, result.series[lib][i]) for lib in libs]
        )
    widths = [
        _col_width([header[c]] + [r[c] for r in rows]) for c in range(len(header))
    ]
    lines = [f"== {result.fig_id}: {result.title} =="]
    if result.meta:
        lines.append(
            "   " + "  ".join(f"{k}={v}" for k, v in sorted(result.meta.items()))
        )
    lines.append(
        " | ".join(h.rjust(w) for h, w in zip(header, widths))
    )
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(r, widths)))
    if result.notes:
        lines.append(f"   note: {result.notes}")
    return "\n".join(lines)


def format_normalized(
    result: FigureResult, reference: str = "PiP-MColl", cap: Optional[float] = None
) -> str:
    """Times normalised to ``reference`` — the paper's bar-chart view.

    Values above ``cap`` are printed as ``>cap`` (the paper clips its bars
    the same way, e.g. at 4x in Fig. 9 and 6x in Fig. 13).
    """
    libs = list(result.series)
    header = [result.xlabel] + libs
    rows = []
    ref = result.series[reference]
    for i, x in enumerate(result.xs):
        row = [str(x)]
        for lib in libs:
            v = result.series[lib][i] / ref[i] if ref[i] > 0 else float("inf")
            if cap is not None and v > cap:
                row.append(f">{cap:g}x")
            else:
                row.append(f"{v:.2f}x")
        rows.append(row)
    widths = [
        _col_width([header[c]] + [r[c] for r in rows]) for c in range(len(header))
    ]
    lines = [f"== {result.fig_id} (normalised to {reference}) =="]
    lines.append(" | ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
