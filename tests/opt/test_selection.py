"""Unit tests for instruction selection (phase s)."""

from repro.ir.function import Function
from repro.ir.instructions import Assign, Call, Compare, Return
from repro.ir.operands import BinOp, Const, Mem, Reg, Sym
from repro.machine.target import DEFAULT_TARGET, FP, RV
from repro.ir.flat import reg_id, to_flat
from repro.opt import InstructionSelection, phase_by_id
from tests.conftest import ObjectPhase

S = ObjectPhase(phase_by_id("s"))


def count_register_uses(func):
    """Textual use counts by register, via the kernel's rid counts."""
    counts = InstructionSelection._count_register_uses(to_flat(func))
    return {reg: counts.get(reg_id(reg), 0) for reg in func_registers(func)}


def func_registers(func):
    regs = set()
    for inst in func.instructions():
        regs |= inst.defs() | inst.uses()
    return regs


def one_block(insts, returns_value=True):
    func = Function("f", returns_value=returns_value)
    block = func.add_block("L0")
    block.insts = list(insts) + [Return()]
    return func


class TestCombining:
    def test_address_computation_folds_into_load(self):
        t1 = Reg(1)
        func = one_block(
            [
                Assign(t1, BinOp("add", FP, Const(8))),
                Assign(RV, Mem(t1)),
            ]
        )
        assert S.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(RV, Mem(BinOp("add", FP, Const(8))))

    def test_copy_collapsed(self):
        t1 = Reg(1)
        func = one_block(
            [Assign(t1, Reg(2, pseudo=False)), Assign(RV, BinOp("add", t1, Const(1)))]
        )
        assert S.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(
            RV, BinOp("add", Reg(2, pseudo=False), Const(1))
        )

    def test_triple_combination_via_fixpoint(self):
        t1, t2 = Reg(1), Reg(2)
        func = one_block(
            [
                Assign(t1, FP),
                Assign(t2, BinOp("add", t1, Const(8))),
                Assign(RV, Mem(t2)),
            ]
        )
        assert S.run(func, DEFAULT_TARGET)
        assert len(func.blocks[0].insts) == 2

    def test_constant_load_folds_into_compare(self):
        t1 = Reg(1)
        func = one_block([Assign(t1, Const(1000)), Compare(Reg(2), t1)])
        assert S.run(func, DEFAULT_TARGET)
        assert Compare(Reg(2), Const(1000)) in func.blocks[0].insts

    def test_illegal_combination_rejected(self):
        # HI + LO cannot merge: the result is not one legal instruction.
        t1 = Reg(1)
        func = one_block(
            [
                Assign(t1, Sym("g", "hi")),
                Assign(RV, BinOp("add", t1, Sym("g", "lo"))),
            ]
        )
        assert not S.run(func, DEFAULT_TARGET)

    def test_multiple_uses_not_combined(self):
        t1 = Reg(1)
        func = one_block(
            [
                Assign(t1, BinOp("add", FP, Const(8))),
                Assign(Reg(2), Mem(t1)),
                Assign(RV, Mem(t1)),
            ]
        )
        assert not S.run(func, DEFAULT_TARGET)

    def test_operand_redefined_between_blocks_combination(self):
        t1 = Reg(1)
        r2 = Reg(2, pseudo=False)
        func = one_block(
            [
                Assign(t1, BinOp("add", r2, Const(1))),
                Assign(r2, Const(0)),  # redefines the operand
                Assign(RV, t1),
            ]
        )
        changed = S.run(func, DEFAULT_TARGET)
        # rv = r2 + 1 would be wrong; the only admissible change is none.
        assert not changed

    def test_memory_write_blocks_load_forwarding(self):
        t1 = Reg(1)
        func = one_block(
            [
                Assign(t1, Mem(FP)),
                Assign(Mem(BinOp("add", FP, Const(4))), Reg(2, pseudo=False)),
                Assign(RV, BinOp("add", t1, Const(0))),
            ]
        )
        before = list(func.blocks[0].insts)
        S.run(func, DEFAULT_TARGET)
        # the load must not move past the store textually; it may still
        # fold "t1+0" but t1's load must remain intact
        assert before[0] in func.blocks[0].insts

    def test_call_blocks_combination(self):
        t1 = Reg(1)
        func = one_block(
            [
                Assign(t1, Mem(FP)),
                Call("g", 0),
                Assign(RV, BinOp("add", t1, Const(1))),
            ]
        )
        assert not S.run(func, DEFAULT_TARGET)

    def test_use_by_call_not_absorbed(self):
        func = one_block(
            [Assign(Reg(0, pseudo=False), Const(3)), Call("g", 1)]
        )
        assert not S.run(func, DEFAULT_TARGET)


class TestFolding:
    def test_standalone_constant_folding(self):
        func = one_block([Assign(RV, BinOp("add", Const(2), Const(3)))])
        assert S.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(RV, Const(5))

    def test_folding_respects_legality(self):
        # 1 << 20 exceeds the immediate limit; the fold must not commit.
        func = one_block([Assign(RV, BinOp("lsl", Const(1), Const(20)))])
        assert not S.run(func, DEFAULT_TARGET)

    def test_fold_after_substitution(self):
        t1 = Reg(1)
        func = one_block(
            [Assign(t1, Const(4)), Assign(RV, BinOp("mul", Reg(2), t1))]
        )
        assert S.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(RV, BinOp("mul", Reg(2), Const(4)))


class TestUseCounting:
    def test_counts_expression_occurrences(self):
        func = one_block(
            [Assign(RV, BinOp("add", Reg(1), Reg(1))), Assign(Reg(2), Reg(1))]
        )
        counts = count_register_uses(func)
        assert counts[Reg(1)] == 3

    def test_counts_implicit_uses(self):
        func = one_block([Call("g", 2)], returns_value=True)
        counts = count_register_uses(func)
        assert counts[Reg(0, pseudo=False)] == 2  # call arg + return
        assert counts[Reg(1, pseudo=False)] == 1
