"""Oracle harness: score every search strategy against exhaustion.

The exhaustive enumerations of sections 4-5 are normally the *product*
of this repo; here they are the *measuring instrument*.  For a seed
function whose space fits in memory, the true optimum over every
enumerated instance is known, so a heuristic search can be scored on
exactly the questions the paper's section 7 leaves open: how close
does it get (distance-to-optimal), how often does it land on the
optimum (probability-of-optimal), and what does it spend to get there
(attempted-phase budget — the same currency as Table 3's ``Attempt``
column)?

The harness enumerates each seed function's full space (or loads it
from a :class:`~repro.core.store.SpaceStore`, rebuilding the
instances with :func:`~repro.core.dag.materialize_instances`), prices
every instance with the multi-objective
:class:`~repro.search.cost.CostModel` (one VM execution per distinct
control flow), extracts single-objective optima and the leaf Pareto
frontier, then runs every registered strategy for several independent
trials and writes a JSON leaderboard.

A structural invariant checked here and in CI: a strategy applies
phase sequences starting from the enumeration root, so every instance
it visits is *in* the enumerated space, and the exhaustive optimum can
never be beaten.  ``beats_oracle`` must stay ``False`` everywhere —
a ``True`` would mean the enumeration or the search is broken.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.dag import SpaceDAG, materialize_instances
from repro.core.dynamic import DynamicCountOracle
from repro.core.enumeration import EnumerationConfig, enumerate_space, _node_key
from repro.core.fingerprint import fingerprint_function
from repro.core.interactions import InteractionAnalysis, analyze_interactions
from repro.ir.function import Function, Program
from repro.observability import tracer as _obs
from repro.opt import implicit_cleanup
from repro.programs import PROGRAMS, compile_benchmark
from repro.search.annealing import SimulatedAnnealer
from repro.search.bandit import BanditSearcher
from repro.search.common import SearchResult, SearchStrategy
from repro.search.cost import (
    OBJECTIVES,
    PARETO_OBJECTIVES,
    CostModel,
    CostVector,
    pareto_frontier,
)
from repro.search.genetic import GeneticSearcher
from repro.search.hillclimb import HillClimber
from repro.search.policy import TableDrivenPolicy
from repro.search.random_sampling import RandomSampler

SCHEMA_VERSION = 1

#: default leaderboard location (CI's search-smoke job asserts on it)
DEFAULT_OUT = os.path.join("benchmarks", "results", "search.json")


class SeedFunction(NamedTuple):
    """One scored function: a bundled benchmark and a function name."""

    benchmark: str
    function: str

    @property
    def label(self) -> str:
        return f"{self.benchmark}.{self.function}"


#: one study function per paper benchmark (Table 2's six categories),
#: each chosen so its full space enumerates in well under a minute.
#: sha.rol is the frontier showcase: its four leaves include a genuine
#: code-size/register-pressure trade-off (see docs/SEARCH.md).
SEED_FUNCTIONS: Tuple[SeedFunction, ...] = (
    SeedFunction("bitcount", "ntbl_bitcount"),
    SeedFunction("dijkstra", "next_rand"),
    SeedFunction("fft", "fcos"),
    SeedFunction("jpeg", "descale"),
    SeedFunction("sha", "rol"),
    SeedFunction("stringsearch", "set_pattern"),
)

#: the CI subset: the two cheapest spaces that still exercise a
#: multi-point Pareto frontier (sha.rol) and a multi-leaf space
QUICK_FUNCTIONS: Tuple[SeedFunction, ...] = (
    SeedFunction("sha", "rol"),
    SeedFunction("jpeg", "descale"),
)


def _build_ga(func, objective, seed, interactions):
    return GeneticSearcher(
        func,
        objective,
        population_size=12,
        generations=10,
        seed=seed,
        interactions=interactions,
    )


def _build_hillclimb(func, objective, seed, interactions):
    return HillClimber(func, objective, restarts=3, max_steps=40, seed=seed)


def _build_random(func, objective, seed, interactions):
    return RandomSampler(func, objective, samples=120, seed=seed)


def _build_bandit_eps(func, objective, seed, interactions):
    return BanditSearcher(func, objective, episodes=120, policy="epsilon", seed=seed)


def _build_bandit_ucb(func, objective, seed, interactions):
    return BanditSearcher(func, objective, episodes=120, policy="ucb", seed=seed)


def _build_anneal(func, objective, seed, interactions):
    return SimulatedAnnealer(func, objective, steps=120, seed=seed)


def _build_policy(func, objective, seed, interactions):
    return TableDrivenPolicy(func, interactions, objective, rollouts=24, seed=seed)


#: strategy name -> builder(func, objective, seed, interactions).
#: Budgets are roughly matched (~120 sequence evaluations each) so the
#: leaderboard compares search quality, not raw budget; the policy
#: strategy is adaptive and typically spends far less.
STRATEGY_BUILDERS: Dict[str, Callable[..., SearchStrategy]] = {
    "ga": _build_ga,
    "hillclimb": _build_hillclimb,
    "random": _build_random,
    "bandit-eps": _build_bandit_eps,
    "bandit-ucb": _build_bandit_ucb,
    "anneal": _build_anneal,
    "policy": _build_policy,
}


class HarnessConfig(NamedTuple):
    """Knobs of one ``repro search-bench`` run."""

    functions: Tuple[SeedFunction, ...] = SEED_FUNCTIONS
    strategies: Tuple[str, ...] = tuple(STRATEGY_BUILDERS)
    trials: int = 3
    seed: int = 2006
    objective: str = "dynamic_count"
    max_nodes: int = 20_000
    time_limit: Optional[float] = None
    store: Optional[str] = None
    quick: bool = False


def quick_config(**overrides) -> HarnessConfig:
    """The CI configuration: two functions, two trials."""
    settings = dict(functions=QUICK_FUNCTIONS, trials=2, quick=True)
    settings.update(overrides)
    return HarnessConfig(**settings)


# ----------------------------------------------------------------------
# Space preparation
# ----------------------------------------------------------------------


def _enumeration_config(config: HarnessConfig) -> EnumerationConfig:
    # keep_functions stays off so store-loaded and freshly enumerated
    # spaces go through the same materialize_instances path (and the
    # same store signature).
    return EnumerationConfig(
        max_nodes=config.max_nodes,
        time_limit=config.time_limit,
    )


def _prepare_space(seed_func: SeedFunction, config: HarnessConfig):
    """Enumerate (or load) one seed function's space, instances attached.

    Returns ``(program, root_func, dag, space_info)``.
    """
    from repro.core.store import SpaceStore

    program = compile_benchmark(seed_func.benchmark)
    func = program.functions.get(seed_func.function)
    if func is None:
        raise ValueError(
            f"benchmark {seed_func.benchmark!r} has no function "
            f"{seed_func.function!r}"
        )
    implicit_cleanup(func)
    enum_config = _enumeration_config(config)
    fingerprint = fingerprint_function(
        func, keep_text=enum_config.exact, remap=enum_config.remap
    )
    root_key = _node_key(fingerprint, func)

    store = SpaceStore(config.store) if config.store else None
    result = None
    from_store = False
    if store is not None:
        result = store.get(seed_func.function, root_key, enum_config)
        from_store = result is not None
    if result is None:
        result = enumerate_space(func, enum_config)
        if not result.completed:
            raise ValueError(
                f"{seed_func.label}: space not fully enumerated "
                f"({result.abort_reason}); the exhaustive optimum would be "
                "a lie — raise --max-nodes or pick a smaller function"
            )
        if store is not None:
            store.put(seed_func.function, root_key, enum_config, result)
    if not result.completed:
        raise ValueError(
            f"{seed_func.label}: stored space is incomplete; "
            "refusing to score against a truncated optimum"
        )
    materialized = materialize_instances(result.dag, func)
    space_info = {
        "nodes": len(result.dag),
        "leaves": len(result.dag.leaves()),
        "levels": result.dag.depth(),
        "control_flows": result.dag.distinct_control_flows(),
        "attempted_phases": result.attempted_phases,
        "from_store": from_store,
        "materialized_edges": materialized,
    }
    return program, func, result, space_info


def _optima(prices: Dict[int, CostVector]) -> Dict[str, Dict[str, int]]:
    """Per-objective minimum over *prices* (deterministic tie-break)."""
    return {
        name: dict(
            zip(("node", "value"), CostModel.optimum(prices, name))
        )
        for name in OBJECTIVES
    }


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


def _score_strategy(
    name: str,
    builder: Callable[..., SearchStrategy],
    func: Function,
    objective: Callable[[Function], float],
    interactions: InteractionAnalysis,
    optimal_value: int,
    config: HarnessConfig,
) -> Dict[str, object]:
    trials: List[Dict[str, object]] = []
    hits = 0
    for trial in range(config.trials):
        trial_seed = config.seed + trial
        strategy = builder(func, objective, trial_seed, interactions)
        result: SearchResult = strategy.run()
        fitness = int(result.best_fitness)
        if fitness == optimal_value:
            hits += 1
        trials.append(
            {
                "seed": trial_seed,
                "fitness": fitness,
                "sequence": list(result.best_sequence),
                "evaluations": result.evaluations,
                "cache_hits": result.cache_hits,
                "attempted_phases": result.attempted_phases,
            }
        )
    best = min(trial["fitness"] for trial in trials)
    mean = sum(trial["fitness"] for trial in trials) / len(trials)
    scale = max(float(optimal_value), 1.0)
    return {
        "trials": trials,
        "best_fitness": best,
        "mean_fitness": mean,
        "best_distance": best - optimal_value,
        "mean_distance": mean - optimal_value,
        "mean_ratio": mean / scale,
        "p_optimal": hits / len(trials),
        "mean_attempted": sum(t["attempted_phases"] for t in trials) / len(trials),
        "beats_oracle": best < optimal_value,
    }


def run_search_bench(config: HarnessConfig = HarnessConfig()) -> Dict[str, object]:
    """Run the full harness; returns the leaderboard dict."""
    unknown = [name for name in config.strategies if name not in STRATEGY_BUILDERS]
    if unknown:
        raise ValueError(
            f"unknown strategies {unknown}; "
            f"registered: {', '.join(STRATEGY_BUILDERS)}"
        )
    if config.objective not in OBJECTIVES:
        raise ValueError(
            f"bad objective {config.objective!r}; expected one of {OBJECTIVES}"
        )
    tracer = _obs.ACTIVE
    if tracer is not None:
        tracer.emit(
            "search_start",
            functions=len(config.functions),
            strategies=len(config.strategies),
        )
    started = time.monotonic()
    functions: Dict[str, Dict[str, object]] = {}
    for seed_func in config.functions:
        program, func, enum_result, space_info = _prepare_space(seed_func, config)
        dag = enum_result.dag
        entry = PROGRAMS[seed_func.benchmark].entry
        oracle = DynamicCountOracle(
            program, seed_func.function, lambda vm: vm.run(entry, ())
        )
        model = CostModel(oracle)
        space_prices = model.price_space(dag)
        leaf_prices = model.price_leaves(dag)
        space_info["oracle_executions"] = model.executions
        frontier = pareto_frontier(
            leaf_prices,
            keys={nid: dag.nodes[nid].key for nid in leaf_prices},
        )
        optimal = _optima(space_prices)
        optimal_value = optimal[config.objective]["value"]
        if tracer is not None:
            tracer.emit(
                "search_space",
                function=seed_func.label,
                nodes=space_info["nodes"],
                leaves=space_info["leaves"],
                pareto=len(frontier),
            )
        interactions = analyze_interactions([enum_result])

        def objective(candidate: Function) -> float:
            return float(getattr(model.vector_for(candidate), config.objective))

        strategies: Dict[str, Dict[str, object]] = {}
        for name in config.strategies:
            scored = _score_strategy(
                name,
                STRATEGY_BUILDERS[name],
                func,
                objective,
                interactions,
                optimal_value,
                config,
            )
            strategies[name] = scored
            if tracer is not None:
                tracer.emit(
                    "search_strategy",
                    function=seed_func.label,
                    strategy=name,
                    fitness=scored["best_fitness"],
                    distance=scored["best_distance"],
                    attempted=scored["mean_attempted"],
                )
        functions[seed_func.label] = {
            "benchmark": seed_func.benchmark,
            "function": seed_func.function,
            "space": space_info,
            "optimal": optimal,
            "optimal_leaf": _optima(leaf_prices),
            "pareto": {
                "objectives": list(PARETO_OBJECTIVES),
                "points": [
                    {
                        "node": node_id,
                        "values": dict(zip(PARETO_OBJECTIVES, values)),
                        "is_leaf": dag.nodes[node_id].is_leaf(),
                    }
                    for node_id, values in frontier
                ],
            },
            "strategies": strategies,
        }
    leaderboard = {
        "schema_version": SCHEMA_VERSION,
        "tool": "repro search-bench",
        "quick": config.quick,
        "objective": config.objective,
        "pareto_objectives": list(PARETO_OBJECTIVES),
        "trials": config.trials,
        "seed": config.seed,
        "elapsed": round(time.monotonic() - started, 3),
        "functions": functions,
        "ranking": _ranking(functions, config.strategies),
    }
    if tracer is not None:
        tracer.emit(
            "search_done",
            functions=len(functions),
            strategies=len(config.strategies),
        )
    return leaderboard


def _ranking(
    functions: Dict[str, Dict[str, object]], strategies: Sequence[str]
) -> List[Dict[str, object]]:
    """Cross-function ranking: mean of per-function mean ratios.

    The ratio (mean fitness / exhaustive optimum, >= 1.0) normalizes
    across functions whose objectives differ by orders of magnitude;
    ties break on attempted-phase budget, then name.
    """
    rows = []
    for name in strategies:
        ratios = [
            entry["strategies"][name]["mean_ratio"]
            for entry in functions.values()
        ]
        p_optimal = [
            entry["strategies"][name]["p_optimal"]
            for entry in functions.values()
        ]
        attempted = [
            entry["strategies"][name]["mean_attempted"]
            for entry in functions.values()
        ]
        count = max(len(ratios), 1)
        rows.append(
            {
                "strategy": name,
                "mean_ratio": sum(ratios) / count,
                "p_optimal": sum(p_optimal) / count,
                "mean_attempted": sum(attempted) / count,
                "beats_oracle": any(
                    entry["strategies"][name]["beats_oracle"]
                    for entry in functions.values()
                ),
            }
        )
    rows.sort(
        key=lambda row: (
            row["mean_ratio"],
            -row["p_optimal"],
            row["mean_attempted"],
            row["strategy"],
        )
    )
    return rows


# ----------------------------------------------------------------------
# Rendering / persistence
# ----------------------------------------------------------------------


def format_leaderboard(leaderboard: Dict[str, object]) -> str:
    """Human-readable leaderboard (the ``repro search-bench`` output)."""
    lines: List[str] = []
    objective = leaderboard["objective"]
    lines.append(
        f"search-bench: objective={objective} trials={leaderboard['trials']} "
        f"seed={leaderboard['seed']}"
    )
    for label, entry in leaderboard["functions"].items():
        space = entry["space"]
        optimal = entry["optimal"][objective]
        lines.append(
            f"\n{label}: {space['nodes']} instances, {space['leaves']} leaves, "
            f"{space['control_flows']} control flows, "
            f"{space['oracle_executions']} executions"
            f"{' (from store)' if space['from_store'] else ''}"
        )
        lines.append(
            f"  exhaustive optimum: {objective}={optimal['value']} "
            f"(node {optimal['node']})"
        )
        points = entry["pareto"]["points"]
        lines.append(
            f"  pareto frontier ({' x '.join(entry['pareto']['objectives'])}): "
            f"{len(points)} point(s)"
        )
        for point in points:
            values = ", ".join(
                f"{name}={value}" for name, value in point["values"].items()
            )
            lines.append(f"    node {point['node']}: {values}")
        lines.append(
            f"  {'strategy':<12} {'best':>10} {'mean':>12} {'dist':>8} "
            f"{'p(opt)':>7} {'attempted':>10}"
        )
        for name, scored in entry["strategies"].items():
            lines.append(
                f"  {name:<12} {scored['best_fitness']:>10} "
                f"{scored['mean_fitness']:>12.1f} {scored['best_distance']:>8} "
                f"{scored['p_optimal']:>7.2f} {scored['mean_attempted']:>10.1f}"
            )
    lines.append("\nranking (mean fitness / exhaustive optimum, lower is better):")
    for position, row in enumerate(leaderboard["ranking"], start=1):
        lines.append(
            f"  {position}. {row['strategy']:<12} ratio={row['mean_ratio']:.4f} "
            f"p(opt)={row['p_optimal']:.2f} "
            f"attempted={row['mean_attempted']:.1f}"
        )
    return "\n".join(lines)


def write_leaderboard(
    leaderboard: Dict[str, object], path: str = DEFAULT_OUT
) -> str:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(leaderboard, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
