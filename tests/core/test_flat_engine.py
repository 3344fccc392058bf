"""One phase engine, several drivers: the same space down every path.

Each phase has one implementation (``repro.opt.PHASES``, over the flat
IR), and ``tests/core/test_goldens.py`` pins what the spaces are.  The
enumerator still drives the phases along two paths — the unguarded
prefix-sharing hot path and the guard (which checks every candidate) —
and these tests require whole serialized DAGs to match across them, along with every result
statistic a path could plausibly skew.  The companion round-trip tests
live in ``tests/ir/test_flat.py``.
"""

import gc
import hashlib
import json

import pytest

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.opt import implicit_cleanup, phase_by_id
from repro.programs import compile_benchmark
from repro.search.harness import SEED_FUNCTIONS

from tests.conftest import GCD_SRC, MAXI_SRC, SUM_ARRAY_SRC, compile_fn

#: guard settings that vet every edge without changing the space
GUARDED = dict(validate=True, sanitize="fast")


def dag_digest(dag) -> str:
    """Content digest of the fully serialized DAG (nodes, edges,
    phase outcomes — everything a checkpoint would persist)."""
    return hashlib.sha256(
        json.dumps(ckpt.dag_to_dict(dag), sort_keys=True).encode("utf-8")
    ).hexdigest()


def both_paths(func, **overrides):
    """(unguarded, guarded) enumerations of *func*."""
    plain = enumerate_space(func.clone(), EnumerationConfig(**overrides))
    guarded = enumerate_space(
        func.clone(), EnumerationConfig(**GUARDED, **overrides)
    )
    assert not guarded.quarantine, guarded.quarantine.format_report()
    return plain, guarded


def assert_results_identical(plain, guarded):
    assert dag_digest(plain.dag) == dag_digest(guarded.dag)
    assert plain.attempted_phases == guarded.attempted_phases
    assert plain.phases_applied == guarded.phases_applied
    assert plain.completed == guarded.completed
    assert plain.abort_reason == guarded.abort_reason


class TestEngineParity:
    @pytest.mark.parametrize(
        "seed", SEED_FUNCTIONS, ids=[s.label for s in SEED_FUNCTIONS]
    )
    def test_seed_spaces_are_bit_identical(self, seed):
        func = compile_benchmark(seed.benchmark).functions[seed.function]
        implicit_cleanup(func)
        assert_results_identical(*both_paths(func))

    def test_small_function_spaces_are_bit_identical(self):
        assert_results_identical(*both_paths(compile_fn(MAXI_SRC, "maxi")))
        # gcd and sum_array have spaces in the thousands; a budget keeps
        # the test fast while still walking hundreds of shared nodes,
        # through the loop phases' object-IR transforms too
        for source, name in ((GCD_SRC, "gcd"), (SUM_ARRAY_SRC, "sum_array")):
            plain, guarded = both_paths(compile_fn(source, name), max_nodes=400)
            assert plain.abort_reason == "max_nodes"
            assert_results_identical(plain, guarded)

    def test_bounded_enumeration_aborts_identically(self):
        # budget cutoffs must land on the same node on both paths
        func = compile_fn(SUM_ARRAY_SRC, "sum_array")
        plain, guarded = both_paths(func, max_nodes=40)
        assert plain.abort_reason == "max_nodes"
        assert_results_identical(plain, guarded)


class TestCustomPhases:
    def test_wrapped_phase_simply_runs(self):
        # the enumerator calls whatever phase object it is given: an
        # instrumented wrapper of a stock phase runs, and the space is
        # unchanged
        calls = []
        stock = phase_by_id("s")

        class Instrumented:
            def __getattr__(self, attr):
                return getattr(stock, attr)

            def run(self, flat, target=None):
                calls.append(flat.name)
                return stock.run(flat, target)

        func = compile_fn(MAXI_SRC, "maxi")
        phases = tuple(
            Instrumented() if phase.id == "s" else phase
            for phase in EnumerationConfig().phases
        )
        result = enumerate_space(func.clone(), EnumerationConfig(phases=phases))
        assert calls, "the wrapped phase never executed"
        reference = enumerate_space(func.clone(), EnumerationConfig())
        assert dag_digest(result.dag) == dag_digest(reference.dag)


def test_flat_analyses_die_with_their_functions():
    """Analyses live on their FlatFunction only: once an enumeration's
    result is dropped, none of the FlatAnalyses it built stays alive (a
    process-global content-keyed table used to pin them all)."""
    from repro.analysis.flat import FlatAnalyses

    def alive():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, FlatAnalyses)}

    gc.collect()
    before = alive()
    func = compile_benchmark("sha").functions["rol"]
    implicit_cleanup(func)
    result = enumerate_space(func, EnumerationConfig())
    assert result.completed
    del result, func
    gc.collect()
    assert alive() - before == set()


@pytest.mark.parametrize(
    "bench, name, overrides",
    [
        ("bitcount", "main", {}),
        ("sha", "word_sum", {"max_nodes": 300, "collapse": "semantic"}),
        ("sha", "word_sum", {"max_nodes": 300, "sanitize": "full"}),
    ],
    ids=["plain", "semantic", "sanitize-full"],
)
def test_enumeration_leaves_no_cyclic_garbage(bench, name, overrides):
    """Reference counting frees every discarded candidate: no analysis
    points back at its function (object or flat), so an enumeration
    leaves nothing for the cyclic collector, which took about 40% of
    bit_count's wall time while candidates were cycles."""
    program = compile_benchmark(bench)
    func = program.functions[name]
    implicit_cleanup(func)
    config = EnumerationConfig(**overrides)
    if config.needs_program():
        config.program = program
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = enumerate_space(func, config)
        assert len(result.dag) > 100
        del result
        gc.collect()
        garbage = sorted({type(obj).__name__ for obj in gc.garbage})
        count = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert count == 0, f"{count} objects in reference cycles: {garbage}"
