"""The probabilistic batch compiler (paper section 6, Figure 8).

Instead of a fixed phase order, the compiler keeps a running
probability of each phase being active, seeded with the start-of-
compilation probabilities (Table 4's St column) and updated after every
active phase from the enabling/disabling tables::

    p[i] += (1 - p[i]) * e[i][j] - p[i] * d[i][j]

At each step the phase with the highest probability is applied and its
own probability reset to zero.  The paper reports this reaches code
quality comparable to the batch compiler in under one third of the
compile time, because most dormant attempts are skipped.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.batch import CompilationReport, attempt_phase
from repro.core.interactions import InteractionAnalysis
from repro.ir.flat import from_flat, to_flat
from repro.ir.function import Function
from repro.machine.target import DEFAULT_TARGET, Target
from repro.observability import tracer as _obs
from repro.opt import PHASE_IDS
from repro.robustness.guard import GuardedPhaseRunner


def update_probabilities(
    probability: Dict[str, float],
    phase_ids: Sequence[str],
    active: str,
    interactions: InteractionAnalysis,
) -> None:
    """Figure 8's update after phase *active* was active: for every
    other phase i, ``p[i] += (1 - p[i]) * e[i][active] - p[i] *
    d[i][active]``, in place."""
    enabling = interactions.enabling
    disabling = interactions.disabling
    for pid in phase_ids:
        if pid == active:
            continue
        enable = enabling.get(pid, {}).get(active, 0.0)
        disable = disabling.get(pid, {}).get(active, 0.0)
        p = probability[pid]
        probability[pid] = p + (1.0 - p) * enable - p * disable


class ProbabilisticCompiler:
    """Dynamically select the next phase by activity probability."""

    def __init__(
        self,
        interactions: InteractionAnalysis,
        target: Optional[Target] = None,
        threshold: float = 0.0,
        max_steps: int = 500,
        use_benefits: bool = False,
        guard: Optional[GuardedPhaseRunner] = None,
    ):
        self.interactions = interactions
        self.target = target or DEFAULT_TARGET
        #: phases with probability at or below this are never applied
        self.threshold = threshold
        self.max_steps = max_steps
        #: section 6's suggested refinement: weight selection by each
        #: phase's measured code-size benefit, not just P(active)
        self.use_benefits = use_benefits
        #: when set, phases run through the guarded runner; a
        #: quarantined application reads as dormant, which zeroes the
        #: phase's probability and lets the algorithm move on
        self.guard = guard

    def _selection_score(self, phase_id: str, probability: float) -> float:
        if not self.use_benefits:
            return probability
        # expected instructions removed = P(active) * mean shrinkage;
        # phases that grow code (unrolling) rank by probability alone,
        # scaled down so shrinking phases go first.
        effect = self.interactions.size_effect.get(phase_id, 0.0)
        benefit = max(0.25, -effect)
        return probability * benefit

    def compile(self, func: Function) -> CompilationReport:
        """Optimize *func* in place with Figure 8's algorithm."""
        start = time.perf_counter()
        phase_ids: Sequence[str] = self.interactions.phase_ids or PHASE_IDS

        probability: Dict[str, float] = {
            pid: self.interactions.start.get(pid, 0.0) for pid in phase_ids
        }
        attempted = 0
        quarantined_before = (
            len(self.guard.quarantine) if self.guard is not None else 0
        )
        active_sequence: List[str] = []
        flat = to_flat(func)
        for _ in range(self.max_steps):
            best = max(
                phase_ids,
                key=lambda pid: (self._selection_score(pid, probability[pid]), pid),
            )
            if probability[best] <= self.threshold:
                break
            attempted += 1
            candidate = attempt_phase(flat, best, self.target, self.guard)
            if candidate is not None:
                flat = candidate
                active_sequence.append(best)
                update_probabilities(probability, phase_ids, best, self.interactions)
            probability[best] = 0.0
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
                "prob_compile",
                function=report.function_name,
                attempted=report.attempted,
                active=report.active,
                sequence="".join(report.active_sequence),
                quarantined=report.quarantined,
                code_size=report.code_size,
                wall=round(report.elapsed, 3),
            )
        return report
