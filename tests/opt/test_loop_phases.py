"""Unit tests for the loop phases: l (transforms) and g (unrolling)."""

import pytest

from repro.analysis.loops import find_natural_loops
from repro.ir.instructions import Assign, Compare
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import DEFAULT_TARGET
from repro.ir.flat import to_flat
from repro.opt import apply_phase, attempt_phase_on_flat, phase_by_id
from repro.vm import Interpreter
from tests.conftest import SUM_ARRAY_SRC, ObjectPhase, apply_sequence, compile_prog

L = ObjectPhase(phase_by_id("l"))
G = ObjectPhase(phase_by_id("g"))

LICM_SRC = """
int a[50];
int f(int n) {
    int i;
    int total = 0;
    for (i = 0; i < 50; i++)
        total += a[i] * n;
    return total;
}
"""


def prepared(src, name, prefix="schs"):
    """Compile and run the standard prefix enabling the loop phases.

    The trailing "riu" cleans redundant control flow (reverse branches
    in particular makes top-tested loop blocks contiguous, which loop
    unrolling requires — the r-enables-g relation of the paper).
    """
    program = compile_prog(src)
    func = program.function(name)
    apply_sequence(func, prefix)
    apply_phase(func, phase_by_id("k"))
    apply_sequence(func, "schsriu")
    return program, func


class TestLegality:
    def test_illegal_before_register_allocation(self):
        program = compile_prog(SUM_ARRAY_SRC)
        func = program.function("sum_array")
        assert not L.applicable(func)
        assert not G.applicable(func)
        assert not apply_phase(func, L.phase)
        assert not apply_phase(func, G.phase)


class TestLoopTransformations:
    def test_active_on_loop_with_invariants(self):
        program, func = prepared(LICM_SRC, "f")
        assert apply_phase(func, L.phase)

    def test_semantics_preserved(self):
        base = compile_prog(LICM_SRC)
        vm = Interpreter(base)
        for i in range(50):
            vm.store_global("a", i * i % 31, i)
        expected = vm.run("f", (7,)).value

        program, func = prepared(LICM_SRC, "f")
        apply_phase(func, L.phase)
        apply_sequence(func, "schsu")
        vm2 = Interpreter(program)
        for i in range(50):
            vm2.store_global("a", i * i % 31, i)
        assert vm2.run("f", (7,)).value == expected

    def test_idempotent(self):
        program, func = prepared(LICM_SRC, "f")
        apply_phase(func, L.phase)
        assert not apply_phase(func, L.phase)

    def test_strength_reduction_removes_loop_multiply(self):
        # The i*4 array indexing multiply should be reduced to a
        # pointer-like increment (Figure 5 of the paper).
        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        muls_before = _loop_multiplies(func)
        if muls_before == 0:
            pytest.skip("multiply already folded by prior phases")
        assert apply_phase(func, L.phase)
        assert _loop_multiplies(func) < muls_before

    def test_reduces_dynamic_instruction_count(self):
        base = compile_prog(SUM_ARRAY_SRC)
        vm = Interpreter(base)
        for i in range(100):
            vm.store_global("a", i, i)
        baseline = vm.run("sum_array")

        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        before_dyn = _run_sum(program)
        changed = apply_phase(func, L.phase)
        apply_sequence(func, "shcs")
        after = _run_sum(program)
        assert after.value == baseline.value
        if changed:
            assert after.total_insts <= before_dyn.total_insts


def _loop_multiplies(func):
    loops = find_natural_loops(func)
    labels = set()
    for loop in loops:
        labels |= loop.body
    count = 0
    for block in func.blocks:
        if block.label not in labels:
            continue
        for inst in block.insts:
            if isinstance(inst, Assign):
                for node in inst.src.walk():
                    if isinstance(node, BinOp) and node.op == "mul":
                        count += 1
    return count


def _run_sum(program):
    vm = Interpreter(program)
    for i in range(100):
        vm.store_global("a", i, i)
    return vm.run("sum_array")


class TestLoopUnrolling:
    def test_unrolls_once_per_loop(self):
        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        size_before = func.num_instructions()
        assert apply_phase(func, G.phase)
        assert func.num_instructions() > size_before
        assert not apply_phase(func, G.phase)  # marked as unrolled

    def test_semantics_preserved(self):
        base = compile_prog(SUM_ARRAY_SRC)
        vm = Interpreter(base)
        for i in range(100):
            vm.store_global("a", 2 * i + 1, i)
        expected = vm.run("sum_array").value

        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        assert apply_phase(func, G.phase)
        vm2 = Interpreter(program)
        for i in range(100):
            vm2.store_global("a", 2 * i + 1, i)
        assert vm2.run("sum_array").value == expected

    def test_reduces_dynamic_jumps(self):
        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        apply_sequence(func, "jbu")  # rotate first so unroll pays off
        before = _run_sum(program)
        if not apply_phase(func, G.phase):
            pytest.skip("loop not unrollable in this shape")
        apply_sequence(func, "bu")
        after = _run_sum(program)
        assert after.value == before.value

    def test_oversized_loop_not_unrolled(self):
        big_src = (
            "int a[50];\nint f(void) {\n int i; int t = 0;\n"
            " for (i = 0; i < 50; i++) {\n"
            + "".join(f"  t += a[i] + {k};\n" for k in range(20))
            + " }\n return t;\n}\n"
        )
        program, func = prepared(big_src, "f")
        assert not apply_phase(func, G.phase)

    def test_clone_keeps_unrolled_marker(self):
        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        apply_phase(func, G.phase)
        clone = func.clone()
        assert clone.unrolled == func.unrolled

    def test_attempt_leaves_the_parent_marker_alone(self):
        # clones share the unrolled set, so g must rebind it, not add
        program, func = prepared(SUM_ARRAY_SRC, "sum_array")
        flat = to_flat(func)
        candidate = attempt_phase_on_flat(flat, G.phase)
        assert candidate is not None and candidate.unrolled
        assert not flat.unrolled
