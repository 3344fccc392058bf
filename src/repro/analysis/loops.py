"""Natural loops of an object-IR function, keyed by block label.

A label-keyed view of :func:`repro.analysis.flat.find_flat_loops`, the
one loop detection, for callers holding a
:class:`~repro.ir.function.Function`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Set

from repro.analysis.flat import find_flat_loops
from repro.ir.flat import LABEL_STRS, to_flat
from repro.ir.function import Function


class Loop(NamedTuple):
    """A natural loop: header plus the body of its back edges."""

    header: str
    body: Set[str]
    latches: Set[str]
    depth: int


def find_natural_loops(func: Function) -> List[Loop]:
    """Natural loops, loops sharing a header merged, innermost first."""
    flat = to_flat(func)
    names = [LABEL_STRS[lid] for lid in flat.labels]
    return [
        Loop(
            names[loop.header],
            {names[bi] for bi in loop.body},
            {names[bi] for bi in loop.latches},
            loop.depth,
        )
        for loop in find_flat_loops(flat)
    ]
