"""Dataflow and structural analyses shared by the optimization phases."""

from repro.analysis.liveness import Liveness, compute_liveness, SlotLiveness, compute_slot_liveness
from repro.analysis.reaching import (
    Definedness,
    ENTRY_DEFINED,
    compute_definedness,
    uninitialized_uses,
)
from repro.analysis.defuse import rewrite_uses
from repro.analysis.cache import (
    AnalysisCache,
    cfg_of,
    liveness_of,
    set_paranoid,
)

__all__ = [
    "AnalysisCache",
    "cfg_of",
    "liveness_of",
    "set_paranoid",
    "Liveness",
    "compute_liveness",
    "SlotLiveness",
    "compute_slot_liveness",
    "rewrite_uses",
    "Definedness",
    "ENTRY_DEFINED",
    "compute_definedness",
    "uninitialized_uses",
]
