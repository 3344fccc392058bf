"""Dataflow and structural analyses shared by the optimization phases."""

from repro.analysis.liveness import SlotLiveness, compute_slot_liveness
from repro.analysis.defuse import rewrite_uses
from repro.analysis.flat import set_paranoid

__all__ = [
    "set_paranoid",
    "SlotLiveness",
    "compute_slot_liveness",
    "rewrite_uses",
]
