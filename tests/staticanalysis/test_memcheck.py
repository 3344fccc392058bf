"""Tests for the MEM0xx memory-access sanitizer checks."""

import pytest

from repro.frontend import compile_source
from repro.ir.flat import to_flat
from repro.ir.function import Function, GlobalVar, Program
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg, Sym
from repro.machine.target import FP, RV
from repro.programs import PROGRAMS, compile_benchmark
from repro.staticanalysis import sanitize_function
from repro.staticanalysis.memcheck import CATALOG, memory_findings


def _codes(findings):
    return sorted({finding.code for finding in findings})


def _func_with(insts, locals_words=2):
    func = Function("t")
    for index in range(locals_words):
        func.add_local(f"x{index}", 1, "int", False, False)
    block = func.add_block("L0")
    block.insts.extend(insts)
    block.insts.append(Assign(Reg(RV.index, pseudo=False), Const(0)))
    block.insts.append(Return())
    return func


def _pseudo(index):
    return Reg(index, pseudo=True)


class TestWildAccesses:
    def test_mem001_load_from_constant_address(self):
        r = _pseudo(20)
        func = _func_with([Assign(r, Mem(Const(0)))])
        assert "MEM001" in _codes(memory_findings(to_flat(func)))

    def test_mem002_store_to_constant_address(self):
        func = _func_with([Assign(Mem(Const(64)), Const(7))])
        assert "MEM002" in _codes(memory_findings(to_flat(func)))

    def test_constant_address_via_arithmetic(self):
        r = _pseudo(20)
        insts = [
            Assign(r, BinOp("add", Const(40), Const(24))),
            Assign(Mem(r), Const(1)),
        ]
        assert "MEM002" in _codes(memory_findings(to_flat(_func_with(insts))))


class TestAlignment:
    def test_mem003_misaligned_frame_access(self):
        r = _pseudo(20)
        insts = [
            Assign(r, BinOp("add", FP, Const(2))),
            Assign(Mem(r), Const(1)),
        ]
        assert "MEM003" in _codes(memory_findings(to_flat(_func_with(insts))))

    def test_aligned_frame_access_is_clean(self):
        r = _pseudo(20)
        insts = [
            Assign(r, BinOp("add", FP, Const(4))),
            Assign(Mem(r), Const(1)),
        ]
        assert memory_findings(to_flat(_func_with(insts))) == []


class TestGlobalBounds:
    def _program(self, words=2):
        program = Program()
        program.add_global(GlobalVar("garr", words, "int", [0] * words, True))
        return program

    def _global_access(self, offset):
        hi, base, addr = _pseudo(20), _pseudo(21), _pseudo(22)
        return [
            Assign(hi, Sym("garr", "hi")),
            Assign(base, BinOp("add", hi, Sym("garr", "lo"))),
            Assign(addr, BinOp("add", base, Const(offset))),
            Assign(Mem(addr), Const(7)),
        ]

    def test_mem004_past_the_end(self):
        program = self._program(words=2)
        func = _func_with(self._global_access(8))
        findings = memory_findings(to_flat(func), program=program)
        assert "MEM004" in _codes(findings)

    def test_mem004_negative_offset(self):
        program = self._program(words=2)
        func = _func_with(self._global_access(-4))
        assert "MEM004" in _codes(memory_findings(to_flat(func), program=program))

    def test_in_bounds_global_is_clean(self):
        program = self._program(words=2)
        func = _func_with(self._global_access(4))
        assert memory_findings(to_flat(func), program=program) == []

    def test_unknown_global_not_flagged(self):
        # No program context: extent unknown, no claim.
        func = _func_with(self._global_access(8))
        assert memory_findings(to_flat(func)) == []


class TestMustSemantics:
    def test_join_of_differing_values_is_unknown(self):
        """An address that is wild on only one path must not be
        flagged — findings are must-facts, not may-facts."""
        func = Function("t")
        func.add_local("x", 1, "int", False, False)
        r = _pseudo(20)
        entry = func.add_block("L0")
        then = func.add_block("L1")
        other = func.add_block("L2")
        join = func.add_block("L3")
        entry.insts.append(Compare(Reg(0, pseudo=False), Const(0)))
        entry.insts.append(CondBranch("eq", "L1"))
        entry.insts.append(Jump("L2"))
        then.insts.append(Assign(r, Const(0)))  # wild on this path
        then.insts.append(Jump("L3"))
        other.insts.append(Assign(r, FP))       # valid on this path
        other.insts.append(Jump("L3"))
        join.insts.append(Assign(Mem(r), Const(1)))
        join.insts.append(Assign(Reg(RV.index, pseudo=False), Const(0)))
        join.insts.append(Return())
        assert memory_findings(to_flat(func)) == []

    def test_loop_reaches_fixpoint(self):
        source = """
        int a[8];
        int f(int n) {
            int i;
            int total;
            total = 0;
            for (i = 0; i < n; i++) {
                total += a[i & 7];
            }
            return total;
        }
        int main() { return f(5); }
        """
        program = compile_source(source)
        for func in program.functions.values():
            assert memory_findings(to_flat(func), program=program) == []


class TestIntegration:
    def test_full_mode_includes_memory_findings(self):
        func = _func_with([Assign(_pseudo(20), Mem(Const(0)))])
        full = sanitize_function(func, mode="full")
        assert "MEM001" in _codes(full)
        fast = sanitize_function(func, mode="fast")
        assert "MEM001" not in _codes(fast)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_seed_benchmarks_are_clean(self, name):
        program = compile_benchmark(name)
        for func in program.functions.values():
            assert memory_findings(to_flat(func), program=program) == []

    def test_catalog_matches_sanitize_docstring(self):
        from repro.staticanalysis import sanitize

        for code, summary in CATALOG.items():
            assert code in sanitize.__doc__
