"""The fifteen candidate optimization phases (Table 1 of the paper).

Each phase has one implementation, over the flat IR: the kernels in
:mod:`repro.opt.flat`.

======  ================================  ==============================
Letter  Phase                             Ordering restrictions
======  ================================  ==============================
b       branch chaining
c       common subexpression elimination  triggers register assignment
d       remove unreachable code
g       loop unrolling                    after register allocation (k)
h       dead assignment elimination
i       block reordering
j       minimize loop jumps
k       register allocation               after instruction selection (s);
                                          triggers register assignment
l       loop transformations              after register allocation (k)
n       code abstraction
o       evaluation order determination    before register assignment
q       strength reduction
r       reverse branches
s       instruction selection
u       remove useless jumps
======  ================================  ==============================
"""

from repro.opt.base import (
    Phase,
    apply_phase,
    attempt_phase_on_flat,
    implicit_cleanup,
)

from repro.opt.flat.cflow import (
    BlockReordering,
    BranchChaining,
    RemoveUnreachableCode,
    RemoveUselessJumps,
    ReverseBranches,
)
from repro.opt.flat.cse import CommonSubexpressionElimination
from repro.opt.flat.deadassign import DeadAssignmentElimination
from repro.opt.flat.unrolling import LoopUnrolling
from repro.opt.flat.loopjumps import MinimizeLoopJumps
from repro.opt.flat.looptransforms import LoopTransformations
from repro.opt.flat.regalloc import RegisterAllocation
from repro.opt.flat.abstraction import CodeAbstraction
from repro.opt.flat.evalorder import EvaluationOrderDetermination
from repro.opt.flat.strength import StrengthReduction
from repro.opt.flat.selection import InstructionSelection

#: all candidate phases in the paper's Table 1 order
PHASES = (
    BranchChaining(),
    CommonSubexpressionElimination(),
    RemoveUnreachableCode(),
    LoopUnrolling(),
    DeadAssignmentElimination(),
    BlockReordering(),
    MinimizeLoopJumps(),
    RegisterAllocation(),
    LoopTransformations(),
    CodeAbstraction(),
    EvaluationOrderDetermination(),
    StrengthReduction(),
    ReverseBranches(),
    InstructionSelection(),
    RemoveUselessJumps(),
)

PHASE_IDS = tuple(phase.id for phase in PHASES)

_BY_ID = {phase.id: phase for phase in PHASES}


def phase_by_id(phase_id: str) -> Phase:
    """Look up a phase by its single-letter designation."""
    return _BY_ID[phase_id]


__all__ = [
    "Phase",
    "apply_phase",
    "attempt_phase_on_flat",
    "implicit_cleanup",
    "PHASES",
    "PHASE_IDS",
    "phase_by_id",
    "BranchChaining",
    "CommonSubexpressionElimination",
    "RemoveUnreachableCode",
    "LoopUnrolling",
    "DeadAssignmentElimination",
    "BlockReordering",
    "MinimizeLoopJumps",
    "RegisterAllocation",
    "LoopTransformations",
    "CodeAbstraction",
    "EvaluationOrderDetermination",
    "StrengthReduction",
    "ReverseBranches",
    "InstructionSelection",
    "RemoveUselessJumps",
]
