"""Table-driven probabilistic policy — Figure 8, generalized.

The paper's section 6 probabilistic compiler keeps a running
probability of each phase being active (seeded from Table 4's St
column, updated from the measured enabling/disabling tables) and
always applies the arg-max phase.  That is *one deterministic rollout*
of a policy.  This strategy generalizes it into a search: the first
rollout is exactly Figure 8's greedy trajectory, and the remaining
budget is spent on stochastic rollouts that *sample* the next phase
proportionally to the running probabilities, exploring orderings the
greedy trajectory never sees while still concentrating on phases the
interaction tables say can be active.

Unlike the fixed-length strategies, rollouts are adaptive: a rollout
ends when no phase's probability exceeds the threshold, so the
attempted-phase budget measures what the policy actually spent.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.interactions import InteractionAnalysis
from repro.core.probabilistic import update_probabilities
from repro.ir.flat import from_flat
from repro.ir.function import Function
from repro.machine.target import Target
from repro.opt import PHASE_IDS, attempt_phase_on_flat, phase_by_id
from repro.search.common import SearchResult, SearchStrategy, codesize_objective


class TableDrivenPolicy(SearchStrategy):
    """Search with rollouts of the Figure 8 probability dynamics."""

    name = "policy"

    def __init__(
        self,
        func: Function,
        interactions: InteractionAnalysis,
        objective: Callable[[Function], float] = codesize_objective,
        rollouts: int = 24,
        max_steps: int = 40,
        threshold: float = 0.0,
        seed: int = 2006,
        target: Optional[Target] = None,
    ):
        super().__init__(func, objective, seed=seed, target=target)
        self.interactions = interactions
        self.rollouts = rollouts
        self.max_steps = max_steps
        self.threshold = threshold

    # ------------------------------------------------------------------

    def _select(self, probability, phase_ids, stochastic: bool) -> Optional[str]:
        """The next phase to attempt, or None when the rollout is done."""
        candidates = [
            pid for pid in phase_ids if probability[pid] > self.threshold
        ]
        if not candidates:
            return None
        if not stochastic:
            return max(candidates, key=lambda pid: (probability[pid], pid))
        weights = [probability[pid] for pid in candidates]
        return self.rng.choices(candidates, weights=weights, k=1)[0]

    def _rollout(self, stochastic: bool) -> Tuple[Tuple[str, ...], Function]:
        phase_ids: Sequence[str] = self.interactions.phase_ids or PHASE_IDS
        probability = {
            pid: self.interactions.start.get(pid, 0.0) for pid in phase_ids
        }
        flat = self.base_flat
        applied: List[str] = []
        for _ in range(self.max_steps):
            best = self._select(probability, phase_ids, stochastic)
            if best is None:
                break
            self.attempted_phases += 1
            applied.append(best)
            candidate = attempt_phase_on_flat(flat, phase_by_id(best), self.target)
            if candidate is not None:
                flat = candidate
                update_probabilities(probability, phase_ids, best, self.interactions)
            probability[best] = 0.0
        return tuple(applied), from_flat(flat)

    # ------------------------------------------------------------------

    def run(self) -> SearchResult:
        best_fitness = float("inf")
        best_sequence: Tuple[str, ...] = ()
        best_function = self.base.clone()
        history: List[float] = []
        for index in range(self.rollouts):
            # rollout 0 is exactly the Figure 8 greedy trajectory
            sequence, func = self._rollout(stochastic=index > 0)
            fitness = self._score(func)
            if fitness < best_fitness:
                best_fitness = fitness
                best_sequence = sequence
                best_function = func
            history.append(best_fitness)
        return self._result(best_sequence, best_fitness, best_function, history)
