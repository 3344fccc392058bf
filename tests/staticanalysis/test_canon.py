"""Semantic canonicalization: keys, proofs, and the collapser protocol.

The collapse machinery stakes soundness on two properties tested here:

- the canonical summary really is canonical — forms the symbolic
  evaluator normalizes (commutative operand order, linear combinations,
  provably-overwritten stores) share one key, genuinely different
  computations do not;
- a proved equivalence is never a lie: whenever
  :func:`prove_semantic_equivalent` says yes, the VM agrees on every
  recorded input vector.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core import checkpoint as ckpt
from repro.frontend import compile_source
from repro.ir.flat import from_flat, to_flat
from repro.ir.function import Program
from repro.opt import apply_phase, implicit_cleanup, phase_by_id
from repro.staticanalysis.canon import (
    SemanticCollapser,
    prove_semantic_equivalent,
    semantic_key,
)
from repro.vm import Interpreter
from tests.test_properties import phase_sequences, programs

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _fn(source, name="f"):
    """The program and its function *name*, as a flat instance."""
    program = compile_source(source)
    func = program.function(name)
    implicit_cleanup(func)
    return program, to_flat(func)


class TestSemanticKey:
    def test_commutative_operands_share_key(self):
        _, a = _fn("int f(int x, int y) { return x + y; }")
        _, b = _fn("int f(int x, int y) { return y + x; }")
        assert semantic_key(a) is not None
        assert semantic_key(a) == semantic_key(b)

    def test_linear_forms_share_key(self):
        _, a = _fn("int f(int x) { return x * 4; }")
        _, b = _fn("int f(int x) { return x + x + x + x; }")
        assert semantic_key(a) == semantic_key(b)

    def test_provably_overwritten_store_is_normalized_away(self):
        _, a = _fn("int g; int f(int x) { g = 1; g = 2; return x; }")
        _, b = _fn("int g; int f(int x) { g = 2; return x; }")
        assert semantic_key(a) is not None
        assert semantic_key(a) == semantic_key(b)

    def test_call_in_window_blocks_dead_store_drop(self):
        src = "int g; int h(void){ return 0; } "
        _, a = _fn(src + "int f(int x) { g = 1; h(); g = 2; return x; }")
        _, b = _fn(src + "int f(int x) { h(); g = 2; return x; }")
        # h() may observe g == 1; the logs must stay distinguishable.
        assert semantic_key(a) != semantic_key(b)

    def test_different_computations_differ(self):
        _, a = _fn("int f(int x) { return x + 1; }")
        _, b = _fn("int f(int x) { return x + 2; }")
        assert semantic_key(a) != semantic_key(b)

    def test_key_survives_clone_and_checkpoint_round_trip(self):
        _, func = _fn("int f(int x, int y) { if (x > y) return x; return y; }")
        key = semantic_key(func)
        assert key == semantic_key(func.clone())
        restored = ckpt.function_from_dict(ckpt.function_to_dict(from_flat(func)))
        assert key == semantic_key(to_flat(restored))


class TestProof:
    def test_equivalent_pair_proves(self):
        _, a = _fn("int f(int x, int y) { return x + y; }")
        _, b = _fn("int f(int x, int y) { return y + x; }")
        assert prove_semantic_equivalent(a, b)

    def test_reflexive(self):
        _, func = _fn("int f(int x) { int i0; int s = 0; "
                      "for (i0 = 0; i0 < x; i0++) s += i0; return s; }")
        assert prove_semantic_equivalent(func, func.clone())

    def test_different_values_do_not_prove(self):
        _, a = _fn("int f(int x) { return x + 1; }")
        _, b = _fn("int f(int x) { return x + 2; }")
        assert not prove_semantic_equivalent(a, b)

    def test_phase_legality_mismatch_never_proves(self):
        _, a = _fn("int f(int x) { return x + 1; }")
        b = a.clone()
        b.reg_assigned = True
        # Identical code, different attemptable-phase set: a merge
        # would change which phases the node offers.  Must stay split.
        assert not prove_semantic_equivalent(a, b)

    @settings(max_examples=15, **_SETTINGS)
    @given(programs(), phase_sequences, phase_sequences)
    def test_proof_is_never_refuted_by_the_vm(self, source, seq_a, seq_b):
        """prove_semantic_equivalent => the VM agrees on every vector."""
        program, base = _fn(source)
        a = from_flat(base)
        b = from_flat(base)
        for phase_id in seq_a:
            apply_phase(a, phase_by_id(phase_id))
        for phase_id in seq_b:
            apply_phase(b, phase_by_id(phase_id))
        if not prove_semantic_equivalent(to_flat(a), to_flat(b)):
            return
        for vector in [(0, 0), (1, -2), (7, 3)]:
            values = []
            for func in (a, b):
                spliced = Program()
                spliced.globals = program.globals
                spliced.functions = dict(program.functions)
                spliced.functions["f"] = func
                values.append(Interpreter(spliced).run("f", vector).value)
            assert values[0] == values[1], (vector, seq_a, seq_b)


class TestCollapserProtocol:
    def test_register_first_wins(self):
        collapser = SemanticCollapser()
        _, func = _fn("int f(int x) { return x; }")
        assert collapser.register("digest", 0, func)
        assert not collapser.register("digest", 5, func)
        assert collapser.index == {"digest": 0}
        assert 5 not in collapser.reps

    def test_forget_undoes_register(self):
        collapser = SemanticCollapser()
        _, func = _fn("int f(int x) { return x; }")
        collapser.register("digest", 3, func)
        collapser.forget("digest", 3)
        assert collapser.index == {}
        assert collapser.reps == {}

    def test_forget_leaves_other_owner_alone(self):
        collapser = SemanticCollapser()
        _, func = _fn("int f(int x) { return x; }")
        collapser.register("digest", 1, func)
        collapser.forget("digest", 2)
        assert collapser.index == {"digest": 1}

    def test_state_dict_round_trip(self):
        collapser = SemanticCollapser()
        _, func = _fn("int f(int x) { return x * 3; }")
        digest = collapser.digest_of(func)
        collapser.register(digest, 0, func)
        collapser.stats["candidates"] = 7
        state = collapser.state_dict()
        restored = SemanticCollapser()
        restored.restore(state)
        assert restored.index == collapser.index
        assert restored.stats["candidates"] == 7
        rep = restored.rep_function(0)
        assert rep is not None
        assert semantic_key(rep) == digest

    def test_uncanonical_instances_never_index(self):
        collapser = SemanticCollapser()
        assert not collapser.register(None, 0, None)
        assert collapser.index == {}
