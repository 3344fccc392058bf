"""Unit tests for the compulsory register assignment."""

import random

import pytest

from repro.ir.flat import REG_OBJS, iter_rids, reg_id
from repro.ir.function import Function, Program
from repro.ir.instructions import Assign, Call, Return
from repro.ir.operands import BinOp, Const, Reg
from repro.machine.target import ALLOCATABLE, DEFAULT_TARGET, RV
from repro.opt.flat.assign import _simplify, flat_assign_registers
from repro.vm import Interpreter
from tests.conftest import GCD_SRC, SUM_ARRAY_SRC, compile_fn, compile_prog, on_object

assign_registers = on_object(flat_assign_registers)


def all_registers(func):
    regs = set()
    for inst in func.instructions():
        regs |= inst.defs() | inst.uses()
    return regs


class TestAssignment:
    def test_no_pseudos_remain(self, sum_array_func):
        assign_registers(sum_array_func, DEFAULT_TARGET)
        assert not any(reg.pseudo for reg in all_registers(sum_array_func))
        assert sum_array_func.reg_assigned

    def test_only_allocatable_registers_used(self, gcd_func):
        before = {reg for reg in all_registers(gcd_func) if not reg.pseudo}
        assign_registers(gcd_func, DEFAULT_TARGET)
        new_regs = {
            reg for reg in all_registers(gcd_func) if not reg.pseudo
        } - before
        assert all(reg.index in ALLOCATABLE for reg in new_regs)

    def test_interfering_values_get_distinct_registers(self):
        func = Function("f", returns_value=True)
        t1, t2 = func.new_reg(), func.new_reg()
        block = func.add_block("L0")
        block.insts = [
            Assign(t1, Const(1)),
            Assign(t2, Const(2)),
            Assign(RV, BinOp("add", t1, t2)),
            Return(),
        ]
        assign_registers(func, DEFAULT_TARGET)
        first, second = block.insts[0].dst, block.insts[1].dst
        assert first != second

    def test_value_live_across_call_avoids_caller_saved(self):
        func = Function("f", returns_value=True)
        t1 = func.new_reg()
        block = func.add_block("L0")
        block.insts = [
            Assign(t1, Const(42)),
            Call("g", 0),
            Assign(RV, t1),
            Return(),
        ]
        assign_registers(func, DEFAULT_TARGET)
        assigned = block.insts[0].dst
        assert assigned.index not in range(4)

    def test_semantics_preserved(self):
        program = compile_prog(SUM_ARRAY_SRC)
        func = program.function("sum_array")
        vm = Interpreter(program)
        for i in range(100):
            vm.store_global("a", i, i)
        base = vm.run("sum_array").value

        program2 = compile_prog(SUM_ARRAY_SRC)
        assign_registers(program2.function("sum_array"), DEFAULT_TARGET)
        vm2 = Interpreter(program2)
        for i in range(100):
            vm2.store_global("a", i, i)
        assert vm2.run("sum_array").value == base

    def test_spilling_handles_extreme_pressure(self):
        # 20 simultaneously live values exceed the 13 allocatable
        # registers; assignment must spill and stay correct.
        func = Function("f", returns_value=True)
        temps = [func.new_reg() for _ in range(20)]
        block = func.add_block("L0")
        for i, temp in enumerate(temps):
            block.insts.append(Assign(temp, Const(i)))
        acc = func.new_reg()
        block.insts.append(Assign(acc, Const(0)))
        for temp in temps:
            new_acc = func.new_reg()
            block.insts.append(Assign(new_acc, BinOp("add", acc, temp)))
            acc = new_acc
        block.insts.append(Assign(RV, acc))
        block.insts.append(Return())
        # force all 20 to be live at once by summing in reverse order
        assign_registers(func, DEFAULT_TARGET)
        assert not any(reg.pseudo for reg in all_registers(func))
        program = Program()
        program.add_function(func)
        assert Interpreter(program).run("f").value == sum(range(20))


def sorted_simplify(pseudos, interference, forbidden, k):
    """The simplify step as a re-sort of every low-degree pseudo on each
    step; returns the stack and how many steps took the spill choice."""
    index_of = {p: REG_OBJS[p].index for p in pseudos}
    degree = {
        p: bin(interference[p]).count("1") + bin(forbidden[p]).count("1")
        for p in pseudos
    }
    stack, spill_steps = [], 0
    remaining = set(pseudos)
    removed = set()
    while remaining:
        candidates = sorted(
            (p for p in remaining if degree[p] < k), key=lambda p: index_of[p]
        )
        if candidates:
            chosen = candidates[0]
        else:
            chosen = max(remaining, key=lambda p: (degree[p], index_of[p]))
            spill_steps += 1
        stack.append(chosen)
        remaining.discard(chosen)
        removed.add(chosen)
        for neighbor in iter_rids(interference[chosen]):
            if neighbor not in removed:
                degree[neighbor] -= 1
    return stack, spill_steps


def random_interference(rng):
    """A random symmetric interference graph over pseudos whose indexes
    are drawn out of order (so rid order and index order differ), with
    random hardware constraints."""
    indexes = rng.sample(range(64), rng.randint(1, 40))
    pseudos = sorted(reg_id(Reg(index, pseudo=True)) for index in indexes)
    density = rng.random()
    interference = {p: 0 for p in pseudos}
    for i, a in enumerate(pseudos):
        for b in pseudos[i + 1 :]:
            if rng.random() < density:
                interference[a] |= 1 << b
                interference[b] |= 1 << a
    forbidden = {p: rng.getrandbits(13) if rng.random() < 0.3 else 0 for p in pseudos}
    return pseudos, interference, forbidden


class TestSimplify:
    def test_heap_pops_the_sorted_stack(self):
        rng = random.Random(2006)
        k = len(ALLOCATABLE)
        spilling = 0
        for _ in range(3000):
            pseudos, interference, forbidden = random_interference(rng)
            expected, spill_steps = sorted_simplify(
                pseudos, interference, forbidden, k
            )
            assert _simplify(pseudos, interference, forbidden, k) == expected
            spilling += spill_steps > 0
        # dense graphs leave no low-degree pseudo at some step
        assert spilling > 500
