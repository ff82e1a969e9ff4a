"""Bit-for-bit output checks against the reference stored with the
benchmark (``reference.json``, written by ``make_reference.py``).

Floats are compared through ``float.hex``, so a one-ulp change, a sign
change of zero or a NaN payload all count as mismatches.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "REFERENCE_PATH", "load_reference", "figure_mismatches",
    "encode_figure", "encode_result", "result_key", "result_matches",
]

REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _hex_list(values: Iterable[float]) -> List[str]:
    return [float(v).hex() for v in values]


def encode_figure(series: Dict[str, List[float]], internode: int) -> dict:
    """A figure's returned values in reference form."""
    return {
        "series": {name: _hex_list(vals) for name, vals in series.items()},
        "internode_messages": int(internode),
    }


def figure_mismatches(reference: dict, name: str, series: dict,
                      internode: int) -> List[str]:
    """Why figure ``name``'s values differ from the reference (empty when
    they are bit-identical)."""
    want = reference["figures"].get(name)
    if want is None:
        return [f"{name}: no reference"]
    got = encode_figure(series, internode)
    problems = []
    if sorted(got["series"]) != sorted(want["series"]):
        problems.append(
            f"{name}: series names {sorted(got['series'])} "
            f"!= {sorted(want['series'])}")
    else:
        for label, vals in want["series"].items():
            if got["series"][label] != vals:
                problems.append(f"{name}/{label}: values differ")
    if got["internode_messages"] != want["internode_messages"]:
        problems.append(
            f"{name}: {got['internode_messages']} internode messages, "
            f"reference {want['internode_messages']}")
    return problems


def result_key(library: str, collective: str, nodes: int, ppn: int,
               msg_bytes: int) -> str:
    return f"{library}/{collective}/{nodes}x{ppn}/{msg_bytes}"


def encode_result(result) -> Tuple[str, list]:
    """``(key, [time, samples, internode])`` of a ``MicrobenchResult``."""
    key = result_key(result.library, result.collective, result.nodes,
                     result.ppn, result.msg_bytes)
    return key, [float(result.time).hex(), _hex_list(result.samples),
                 int(result.internode_messages)]


def result_matches(reference: dict, point, result) -> bool:
    """Whether a served ``result`` for ``point`` equals the reference."""
    key, value = encode_result(result)
    want_key = result_key(point.library, point.collective, point.nodes,
                          point.ppn, point.msg_bytes)
    return key == want_key and reference["serve"].get(key) == value
