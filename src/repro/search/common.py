"""Shared search-strategy interface, result type, and objectives.

Every non-exhaustive search in :mod:`repro.search` — the GA, the hill
climber, the bandits, simulated annealing, random sampling, and the
table-driven probabilistic policy — answers the same question the
paper's related work ([3], [4], [5], [9], [14]) asks: *how close to
the true optimum does a budgeted search get?*  With the space
enumerated exhaustively (this repository's main result) that question
has an exact answer, so all strategies share one result type and one
budget currency:

- :class:`SearchResult` — the best sequence/fitness/function found,
  plus the accounting the oracle harness scores: objective
  ``evaluations`` actually performed, evaluations avoided by the
  fingerprint cache, and ``attempted_phases`` (every phase
  application, active or dormant — the same unit as Table 3's
  "Attempt" column, so a strategy's budget is directly comparable to
  the exhaustive enumeration's);
- :class:`SearchStrategy` — the common machinery: a cloned base
  instance, a seeded RNG, fingerprint-cached evaluation (sequences
  that produce an already-seen instance are not re-priced, the
  section 4.2 redundancy detection applied to searching), and
  attempted-phase accounting.

:class:`SearchResult` was extracted from the GA-centric
``search/genetic.py`` (where it was ``GeneticSearchResult``); the old
name is re-exported there and here for backward compatibility.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fingerprint import fingerprint_function
from repro.ir.flat import from_flat, to_flat
from repro.ir.function import Function
from repro.machine.target import DEFAULT_TARGET, Target
from repro.opt import PHASE_IDS, attempt_phase_on_flat, phase_by_id


def codesize_objective(func: Function) -> float:
    """Static instruction count (the paper's code-size criterion)."""
    return float(func.num_instructions())


def dynamic_count_objective(run: Callable[[Function], int]):
    """Wrap a measurement callback into an objective."""

    def objective(func: Function) -> float:
        return float(run(func))

    return objective


class SearchResult:
    """Outcome of one search run, whatever the strategy.

    The first six fields (and their positional order) are the legacy
    ``GeneticSearchResult`` contract; ``strategy`` and
    ``attempted_phases`` are the search-lab additions and keyword-only.
    """

    __slots__ = (
        "best_sequence",
        "best_fitness",
        "best_function",
        "evaluations",
        "cache_hits",
        "history",
        "strategy",
        "attempted_phases",
    )

    def __init__(
        self,
        best_sequence,
        best_fitness,
        best_function,
        evaluations,
        cache_hits,
        history,
        *,
        strategy: str = "?",
        attempted_phases: int = 0,
    ):
        self.best_sequence = best_sequence
        self.best_fitness = best_fitness
        self.best_function = best_function
        #: objective evaluations actually performed
        self.evaluations = evaluations
        #: evaluations avoided by the fingerprint cache
        self.cache_hits = cache_hits
        #: best fitness after each generation / restart / episode
        self.history = history
        #: which strategy produced this result
        self.strategy = strategy
        #: phase applications attempted (active or dormant) — the
        #: Table 3 "Attempt" budget this search consumed
        self.attempted_phases = attempted_phases

    def to_dict(self) -> Dict[str, object]:
        """The deterministic, JSON-able view (no Function object)."""
        return {
            "strategy": self.strategy,
            "sequence": "".join(self.best_sequence),
            "fitness": self.best_fitness,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "attempted_phases": self.attempted_phases,
            "history": list(self.history),
        }

    def __repr__(self):
        return (
            f"<SearchResult [{self.strategy}] fitness={self.best_fitness} "
            f"seq={''.join(self.best_sequence)} evals={self.evaluations} "
            f"attempted={self.attempted_phases}>"
        )


#: backward-compatible alias (the pre-extraction name)
GeneticSearchResult = SearchResult


class SearchStrategy:
    """Base class for phase-order searches.

    Subclasses implement :meth:`run` returning a :class:`SearchResult`
    built through :meth:`_result`, and price candidates through
    :meth:`_evaluate` (sequence) or :meth:`_score` (materialized
    function), which maintain the fingerprint cache and the
    evaluation / attempted-phase counters.

    Fixed ``seed`` ⇒ bit-identical results: every subclass draws all
    randomness from ``self.rng`` and breaks ties deterministically.
    """

    #: registry/leaderboard name; subclasses override
    name = "strategy"

    def __init__(
        self,
        func: Function,
        objective: Callable[[Function], float] = codesize_objective,
        sequence_length: int = 12,
        seed: int = 2006,
        target: Optional[Target] = None,
    ):
        self.base = func.clone()
        #: flat form of the base, shared by every sequence evaluation
        #: (phase attempts never mutate their input)
        self.base_flat = to_flat(self.base)
        self.objective = objective
        self.sequence_length = sequence_length
        self.seed = seed
        self.rng = random.Random(seed)
        self.target = target or DEFAULT_TARGET
        self._fitness_by_instance: Dict[object, float] = {}
        self.evaluations = 0
        self.cache_hits = 0
        self.attempted_phases = 0

    # ------------------------------------------------------------------
    # Evaluation (fingerprint-cached, budget-counted)
    # ------------------------------------------------------------------

    def _apply(self, sequence: Sequence[str]) -> Function:
        """Apply *sequence* to the base; counts every attempt."""
        flat = self.base_flat
        for phase_id in sequence:
            self.attempted_phases += 1
            flat = (
                attempt_phase_on_flat(flat, phase_by_id(phase_id), self.target)
                or flat
            )
        return from_flat(flat)

    def _score(self, func: Function) -> float:
        """Objective value of *func*, cached by instance fingerprint."""
        key = fingerprint_function(func).key
        cached = self._fitness_by_instance.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        fitness = self.objective(func)
        self._fitness_by_instance[key] = fitness
        self.evaluations += 1
        return fitness

    def _evaluate(self, sequence: Sequence[str]) -> Tuple[float, Function]:
        func = self._apply(sequence)
        return self._score(func), func

    def _random_sequence(self) -> Tuple[str, ...]:
        return tuple(
            self.rng.choice(PHASE_IDS) for _ in range(self.sequence_length)
        )

    # ------------------------------------------------------------------

    def _result(
        self,
        best_sequence: Tuple[str, ...],
        best_fitness: float,
        best_function: Function,
        history: List[float],
    ) -> SearchResult:
        return SearchResult(
            best_sequence,
            best_fitness,
            best_function,
            self.evaluations,
            self.cache_hits,
            history,
            strategy=self.name,
            attempted_phases=self.attempted_phases,
        )

    def run(self) -> SearchResult:
        raise NotImplementedError
