"""The flat engine's contract: bit-identical DAGs, object-engine parity.

The flat expansion engine (``repro.opt.flat`` kernels over the packed
``repro.ir.flat`` representation) exists purely for speed — it must
never change *what* is enumerated.  These tests enumerate whole spaces
under both engines and require the full serialized DAGs to match, along
with every result statistic an engine could plausibly skew.  The
companion round-trip tests live in ``tests/ir/test_flat.py``.
"""

import gc
import hashlib
import json

import pytest

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.memo import TransitionMemo
from repro.opt import implicit_cleanup, phase_by_id
from repro.programs import compile_benchmark
from repro.search.harness import SEED_FUNCTIONS

from tests.conftest import GCD_SRC, MAXI_SRC, SUM_ARRAY_SRC, compile_fn


def dag_digest(dag) -> str:
    """Content digest of the fully serialized DAG (nodes, edges,
    phase outcomes — everything a checkpoint would persist)."""
    return hashlib.sha256(
        json.dumps(ckpt.dag_to_dict(dag), sort_keys=True).encode("utf-8")
    ).hexdigest()


def both_engines(func, **overrides):
    results = {}
    for engine in ("object", "flat"):
        results[engine] = enumerate_space(
            func.clone(), EnumerationConfig(engine=engine, **overrides)
        )
    return results["object"], results["flat"]


def assert_results_identical(obj, flat):
    assert dag_digest(obj.dag) == dag_digest(flat.dag)
    assert obj.attempted_phases == flat.attempted_phases
    assert obj.phases_applied == flat.phases_applied
    assert obj.completed == flat.completed
    assert obj.abort_reason == flat.abort_reason


class TestEngineParity:
    @pytest.mark.parametrize(
        "seed", SEED_FUNCTIONS, ids=[s.label for s in SEED_FUNCTIONS]
    )
    def test_seed_spaces_are_bit_identical(self, seed):
        func = compile_benchmark(seed.benchmark).functions[seed.function]
        implicit_cleanup(func)
        assert_results_identical(*both_engines(func))

    def test_small_function_spaces_are_bit_identical(self):
        assert_results_identical(*both_engines(compile_fn(MAXI_SRC, "maxi")))
        # gcd and sum_array have spaces in the thousands; a budget keeps
        # the test fast while still walking hundreds of shared nodes
        for source, name in ((GCD_SRC, "gcd"), (SUM_ARRAY_SRC, "sum_array")):
            obj, flat = both_engines(
                compile_fn(source, name), max_nodes=400
            )
            assert obj.abort_reason == "max_nodes"
            assert_results_identical(obj, flat)

    def test_bounded_enumeration_aborts_identically(self):
        # budget cutoffs must land on the same node under both engines
        func = compile_fn(SUM_ARRAY_SRC, "sum_array")
        obj, flat = both_engines(func, max_nodes=40)
        assert obj.abort_reason == "max_nodes"
        assert_results_identical(obj, flat)

    def test_memo_interop(self):
        # a memo filled by one engine serves the other bit-identically
        func = compile_fn(MAXI_SRC, "maxi")
        reference = enumerate_space(func.clone(), EnumerationConfig())
        memo = TransitionMemo()
        enumerate_space(
            func.clone(), EnumerationConfig(engine="object", memo=memo)
        )
        warm = enumerate_space(
            func.clone(), EnumerationConfig(engine="flat", memo=memo)
        )
        assert dag_digest(warm.dag) == dag_digest(reference.dag)


class TestEngineGate:
    def test_custom_phase_objects_force_the_object_path(self):
        # kernels dispatch on phase.id, so an instrumented wrapper with
        # a stock id must silently fall back to the object engine —
        # and still produce the same space
        calls = []
        stock = phase_by_id("s")

        class Instrumented:
            def __getattr__(self, attr):
                return getattr(stock, attr)

            def run(self, func, target=None):
                calls.append(func.name)
                return stock.run(func, target)

        func = compile_fn(MAXI_SRC, "maxi")
        phases = tuple(
            Instrumented() if phase.id == "s" else phase
            for phase in EnumerationConfig().phases
        )
        result = enumerate_space(
            func.clone(), EnumerationConfig(engine="flat", phases=phases)
        )
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
    result = enumerate_space(func, EnumerationConfig(engine="flat"))
    assert result.completed
    del result, func
    gc.collect()
    assert alive() - before == set()
