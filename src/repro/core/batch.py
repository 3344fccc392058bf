"""The conventional batch compiler (paper section 6 baseline).

VPO's batch mode applies optimization phases to every function in one
fixed order, looping over the aggressive phases until no phase changes
the program, which means many attempted phases are dormant.  The
probabilistic compiler (:mod:`repro.core.probabilistic`) is measured
against this baseline in Table 7.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.ir.flat import FlatFunction, from_flat, to_flat
from repro.ir.function import Function
from repro.machine.target import DEFAULT_TARGET, Target
from repro.observability import tracer as _obs
from repro.opt import attempt_phase_on_flat, phase_by_id
from repro.robustness.guard import GuardedPhaseRunner

#: phases applied once before the fixpoint loop: control-flow cleanup,
#: evaluation order determination (must precede register assignment),
#: then a first instruction selection
BATCH_PROLOGUE: Tuple[str, ...] = ("b", "i", "u", "r", "o", "s")

#: the fixpoint loop body, repeated until one full pass stays dormant
BATCH_LOOP: Tuple[str, ...] = (
    "s",
    "c",
    "h",
    "k",
    "l",
    "g",
    "j",
    "q",
    "n",
    "b",
    "i",
    "u",
    "r",
    "d",
)

#: the complete default order, for reporting
BATCH_ORDER: Tuple[str, ...] = BATCH_PROLOGUE + BATCH_LOOP


class CompilationReport:
    """Statistics from compiling one function."""

    __slots__ = (
        "function_name",
        "attempted",
        "active",
        "active_sequence",
        "elapsed",
        "code_size",
        "quarantined",
    )

    def __init__(
        self,
        function_name,
        attempted,
        active,
        active_sequence,
        elapsed,
        code_size,
        quarantined=0,
    ):
        self.function_name = function_name
        #: number of phases attempted (dormant included)
        self.attempted = attempted
        #: number of phases that changed the code
        self.active = active
        #: the active phase ids in application order
        self.active_sequence = active_sequence
        #: wall-clock compile time in seconds
        self.elapsed = elapsed
        #: static instructions in the final code
        self.code_size = code_size
        #: phase applications rejected by the guard (0 without one)
        self.quarantined = quarantined

    def __repr__(self):
        return (
            f"<CompilationReport {self.function_name}: attempted="
            f"{self.attempted} active={self.active} size={self.code_size}>"
        )


def attempt_phase(
    flat: FlatFunction,
    phase_id: str,
    target: Target,
    guard: Optional[GuardedPhaseRunner] = None,
) -> Optional[FlatFunction]:
    """One compiler step: the active candidate, or None when dormant
    (or quarantined, when a guard is given)."""
    if guard is not None:
        return guard.apply(flat, phase_by_id(phase_id), target)
    return attempt_phase_on_flat(flat, phase_by_id(phase_id), target)


class BatchCompiler:
    """Apply phases in VPO's fixed default order to a fixpoint."""

    def __init__(
        self,
        target: Optional[Target] = None,
        prologue: Sequence[str] = BATCH_PROLOGUE,
        loop: Sequence[str] = BATCH_LOOP,
        max_loop_iterations: int = 50,
        guard: Optional[GuardedPhaseRunner] = None,
    ):
        self.target = target or DEFAULT_TARGET
        self.prologue = tuple(prologue)
        self.loop = tuple(loop)
        self.max_loop_iterations = max_loop_iterations
        #: when set, phases run through the guarded runner: failing
        #: applications are quarantined and read as dormant, so one
        #: broken phase degrades code quality instead of crashing the
        #: compilation
        self.guard = guard

    def compile(self, func: Function) -> CompilationReport:
        """Optimize *func* in place with the default phase order."""
        start = time.perf_counter()
        attempted = 0
        quarantined_before = (
            len(self.guard.quarantine) if self.guard is not None else 0
        )
        active_sequence: List[str] = []
        flat = to_flat(func)
        for phase_id in self.prologue:
            attempted += 1
            candidate = attempt_phase(flat, phase_id, self.target, self.guard)
            if candidate is not None:
                flat = candidate
                active_sequence.append(phase_id)
        for _ in range(self.max_loop_iterations):
            any_active = False
            for phase_id in self.loop:
                attempted += 1
                candidate = attempt_phase(flat, phase_id, self.target, self.guard)
                if candidate is not None:
                    flat = candidate
                    active_sequence.append(phase_id)
                    any_active = True
            if not any_active:
                break
        else:
            raise RuntimeError(
                f"{func.name}: batch compilation did not reach a fixpoint"
            )
        from_flat(flat, into=func)
        elapsed = time.perf_counter() - start
        quarantined = (
            len(self.guard.quarantine) - quarantined_before
            if self.guard is not None
            else 0
        )
        report = CompilationReport(
            func.name,
            attempted,
            len(active_sequence),
            tuple(active_sequence),
            elapsed,
            func.num_instructions(),
            quarantined=quarantined,
        )
        tr = _obs.ACTIVE
        if tr is not None:
            tr.emit(
                "batch_compile",
                function=report.function_name,
                attempted=report.attempted,
                active=report.active,
                sequence="".join(report.active_sequence),
                quarantined=report.quarantined,
                code_size=report.code_size,
                wall=round(report.elapsed, 3),
            )
        return report
