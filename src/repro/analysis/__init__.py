"""Dataflow and structural analyses shared by the optimization phases."""

from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.loops import Loop, find_natural_loops
from repro.analysis.liveness import Liveness, compute_liveness, SlotLiveness, compute_slot_liveness
from repro.analysis.reaching import (
    Definedness,
    ENTRY_DEFINED,
    compute_definedness,
    uninitialized_uses,
)
from repro.analysis.defuse import (
    rewrite_uses,
    defined_reg,
    instruction_registers,
    single_def_registers,
)
from repro.analysis.cache import (
    AnalysisCache,
    cfg_of,
    dominators_of,
    liveness_of,
    loops_of,
    set_paranoid,
    slot_liveness_of,
)

__all__ = [
    "AnalysisCache",
    "cfg_of",
    "dominators_of",
    "liveness_of",
    "loops_of",
    "set_paranoid",
    "slot_liveness_of",
    "DominatorTree",
    "compute_dominators",
    "Loop",
    "find_natural_loops",
    "Liveness",
    "compute_liveness",
    "SlotLiveness",
    "compute_slot_liveness",
    "rewrite_uses",
    "defined_reg",
    "instruction_registers",
    "single_def_registers",
    "Definedness",
    "ENTRY_DEFINED",
    "compute_definedness",
    "uninitialized_uses",
]
