"""Tests for the IR alias oracle and its use in translation validation."""

import pytest

from repro.core.checkpoint import function_from_dict, function_to_dict
from repro.frontend import compile_source
from repro.ir.flat import from_flat, to_flat
from repro.machine.target import FP
from repro.staticanalysis.alias import AliasOracle, oracle_for
from repro.staticanalysis.transval import TranslationValidator, prove_equivalent

_FP_ATOM = ("reg", FP.index, FP.pseudo)


def _frame(offset):
    return ("lin", ((_FP_ATOM, 1),), offset)


def _global(name, offset=0, extra=()):
    terms = ((("sym", name, "hi"), 1), (("sym", name, "lo"), 1)) + tuple(extra)
    return ("lin", terms, offset)


def _compiled():
    source = """
    int g;
    int h[4];
    int f(int n) {
        int x;
        x = n;
        g = n * 2;
        return x;
    }
    int main() { return f(5); }
    """
    program = compile_source(source)
    return program, program.functions["f"]


class TestRegionDisjointness:
    def setup_method(self):
        program, func = _compiled()
        self.oracle = oracle_for(func, program)

    def test_frame_vs_global(self):
        assert self.oracle.distinct(_frame(0), _global("g"))
        assert self.oracle.distinct(_global("g"), _frame(4))

    def test_different_globals(self):
        assert self.oracle.distinct(_global("g"), _global("h"))

    def test_same_global_not_distinct(self):
        assert not self.oracle.distinct(_global("g"), _global("g"))

    def test_out_of_bounds_global_gets_no_claim(self):
        assert not self.oracle.distinct(_frame(0), _global("g", 4))
        assert not self.oracle.distinct(_frame(0), _global("h", 16))

    def test_dynamic_global_index_in_bounds_by_contract(self):
        dynamic = _global("h", 0, extra=(((("reg", 5, True)), 4),))
        assert self.oracle.distinct(_frame(0), dynamic)

    def test_out_of_frame_offset_gets_no_claim(self):
        assert not self.oracle.distinct(_frame(-4), _global("g"))
        assert not self.oracle.distinct(_frame(10_000), _global("g"))

    def test_unknown_global_name_gets_no_region_claim(self):
        # frame offset 8 is in neither frame_private nor (with only 8
        # bytes of frame) provably in bounds... use a non-private slot:
        # without a known extent the region rule cannot fire, and
        # privacy does not apply to non-private offsets.
        assert not self.oracle.distinct(_frame(8), _global("nosuch"))
        # A *private* slot still gets the privacy claim: the unknown
        # symbol is source-built, so its target is a source object.
        assert self.oracle.distinct(_frame(0), _global("nosuch"))


class TestFramePrivacy:
    def setup_method(self):
        program, func = _compiled()
        # Both of f's scalar slots (the spilled param and x) are
        # address-free, so codegen published them as private.
        assert func.mem_facts == {"frame_private": [0, 4]}
        self.oracle = oracle_for(func, program)

    def test_private_slot_vs_global_loaded_pointer(self):
        derived = ("lin", ((("load", 0, _global("g")), 1),), 0)
        assert self.oracle.distinct(_frame(0), derived)

    def test_private_slot_vs_opaque_register(self):
        # A live-in or call-preserved register may hold a planted
        # frame address (spill reload): no claim, ever.
        opaque = ("lin", ((("reg", 5, True), 1),), 0)
        assert not self.oracle.distinct(_frame(0), opaque)

    def test_private_slot_vs_call_result(self):
        derived = ("lin", ((("call", 0, 0), 1),), 0)
        assert not self.oracle.distinct(_frame(0), derived)

    def test_private_slot_vs_load_from_unknown_frame_cell(self):
        # A load from a *non-private* exact frame offset may be a
        # spill reload of an address register.
        spilly = ("lin", ((("load", 0, _frame(8)), 1),), 0)
        assert not self.oracle.distinct(_frame(0), spilly)

    def test_private_slot_vs_load_from_private_cell(self):
        source_value = ("lin", ((("load", 0, _frame(4)), 1),), 0)
        assert self.oracle.distinct(_frame(0), source_value)

    def test_no_facts_degrades_to_layout_only(self):
        bare = AliasOracle(frame_size=8)
        assert not bare.distinct(
            _frame(0), ("lin", ((("load", 0, _global("g")), 1),), 0)
        )


class TestProverIntegration:
    def test_load_hoist_across_global_store_needs_the_oracle(self):
        program, func = _compiled()
        before = func.clone()
        after = func.clone()
        block = after.blocks[0]
        # Hoist the frame-slot load of x (address computation plus the
        # load itself) above the store to g.
        moved = block.insts[13:15]
        del block.insts[13:15]
        block.insts[8:8] = moved
        before = to_flat(before)
        after = to_flat(after)
        assert not prove_equivalent(before, after)
        oracle = oracle_for(before, program)
        assert prove_equivalent(before, after, oracle=oracle)

    def test_validator_builds_oracles_by_default(self):
        program, func = _compiled()
        validator = TranslationValidator(program=program, entry="main")
        assert validator._oracle_for(func) is not None
        disabled = TranslationValidator(
            program=program, entry="main", alias_oracle=False
        )
        assert disabled._oracle_for(func) is None

    def test_collapse_validator_stays_structural(self):
        # DAG-collapse verdicts must not depend on source contracts.
        import inspect

        from repro.staticanalysis import canon

        assert "alias_oracle=False" in inspect.getsource(canon)


class TestMemFactsPlumbing:
    def test_checkpoint_round_trip(self):
        __, func = _compiled()
        data = function_to_dict(func)
        assert data["mem_facts"] == {"frame_private": [0, 4]}
        rebuilt = function_from_dict(data)
        assert rebuilt.mem_facts == func.mem_facts

    def test_old_checkpoints_tolerated(self):
        __, func = _compiled()
        data = function_to_dict(func)
        del data["mem_facts"]
        assert function_from_dict(data).mem_facts is None

    def test_clone_and_flat_round_trip(self):
        __, func = _compiled()
        assert func.clone().mem_facts == func.mem_facts
        assert from_flat(to_flat(func)).mem_facts == func.mem_facts

    def test_hand_built_functions_have_no_facts(self):
        from repro.ir.function import Function

        func = Function("bare")
        assert func.mem_facts is None
        oracle = oracle_for(func)
        assert oracle.frame_private == frozenset()
