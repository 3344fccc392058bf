"""Unit tests for evaluation order determination (phase o)."""

from repro.ir.function import Function, Program
from repro.ir.instructions import Assign, Call, Compare, CondBranch, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import DEFAULT_TARGET, FP, RV
from repro.opt import phase_by_id
from repro.vm import Interpreter
from tests.conftest import ObjectPhase

O = ObjectPhase(phase_by_id("o"))


def interleaved_function():
    """Two independent chains interleaved so both temporaries are live
    simultaneously; scheduling one chain first frees its register."""
    func = Function("f", returns_value=True)
    t1, t2, t3, t4 = (Reg(i) for i in range(1, 5))
    block = func.add_block("L0")
    block.insts = [
        Assign(t1, Const(1)),
        Assign(t2, Const(2)),
        Assign(t3, BinOp("add", t1, Const(10))),
        Assign(t4, BinOp("add", t2, Const(20))),
        Assign(RV, BinOp("add", t3, t4)),
        Return(),
    ]
    return func


class TestScheduling:
    def test_reorders_to_reduce_pressure(self):
        func = interleaved_function()
        assert O.run(func, DEFAULT_TARGET)

    def test_idempotent(self):
        func = interleaved_function()
        O.run(func, DEFAULT_TARGET)
        assert not O.run(func, DEFAULT_TARGET)

    def test_semantics_preserved(self):
        for reorder in (False, True):
            func = interleaved_function()
            if reorder:
                O.run(func, DEFAULT_TARGET)
            program = Program()
            program.add_function(func)
            assert Interpreter(program).run("f").value == 33

    def test_illegal_after_register_assignment(self):
        func = interleaved_function()
        func.reg_assigned = True
        assert not O.applicable(func)

    def test_dependences_respected(self):
        # A store/load pair must not be reordered.
        func = Function("f", returns_value=True)
        func.add_local("x", 1, "int", False)
        t1 = Reg(1)
        block = func.add_block("L0")
        block.insts = [
            Assign(Mem(FP), Reg(0, pseudo=False)),
            Assign(t1, Mem(FP)),
            Assign(RV, t1),
            Return(),
        ]
        O.run(func, DEFAULT_TARGET)
        insts = block.insts
        store = next(i for i, x in enumerate(insts) if isinstance(x.dst, Mem)) if any(
            isinstance(x, Assign) and isinstance(x.dst, Mem) for x in insts
        ) else None
        load = next(
            i
            for i, x in enumerate(insts)
            if isinstance(x, Assign) and isinstance(x.dst, Reg) and x.dst == t1
        )
        assert store is not None and store < load

    def test_transfer_stays_last(self):
        func = Function("f", returns_value=True)
        block = func.add_block("L0")
        other = func.add_block("other")
        block.insts = [
            Assign(Reg(1), Const(1)),
            Compare(Reg(1), Const(0)),
            CondBranch("eq", "other"),
        ]
        other.insts = [Assign(RV, Const(0)), Return()]
        O.run(func, DEFAULT_TARGET)
        assert isinstance(block.insts[-1], CondBranch)

    def test_compare_branch_pairing_kept(self):
        func = Function("f", returns_value=True)
        block = func.add_block("L0")
        other = func.add_block("other")
        block.insts = [
            Compare(Reg(1), Const(0)),
            CondBranch("eq", "other"),
        ]
        other.insts = [Assign(RV, Const(0)), Return()]
        before = list(block.insts)
        O.run(func, DEFAULT_TARGET)
        assert block.insts == before
