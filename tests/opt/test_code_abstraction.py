"""Unit tests for code abstraction (phase n): cross-jump and hoist."""

from repro.ir.function import Function
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Reg
from repro.machine.target import DEFAULT_TARGET, RV
from repro.opt import phase_by_id
from tests.conftest import ObjectPhase

N = ObjectPhase(phase_by_id("n"))
R = lambda i: Reg(i, pseudo=False)


def diamond(then_insts, else_insts, join_insts=None):
    func = Function("f", returns_value=True)
    entry = func.add_block("entry")
    then = func.add_block("then")
    else_ = func.add_block("else_")
    join = func.add_block("join")
    entry.insts = [Compare(R(1), Const(0)), CondBranch("eq", "else_")]
    then.insts = list(then_insts) + [Jump("join")]
    else_.insts = list(else_insts)
    join.insts = list(join_insts or []) + [Assign(RV, R(2)), Return()]
    return func


class TestCrossJumping:
    def test_common_suffix_moved_to_join(self):
        shared = [Assign(R(2), BinOp("add", R(3), Const(1)))]
        func = diamond(
            [Assign(R(3), Const(1))] + shared,
            [Assign(R(3), Const(2))] + shared,
        )
        assert N.run(func, DEFAULT_TARGET)
        join = func.block("join")
        assert join.insts[0] == shared[0]
        assert shared[0] not in func.block("then").insts
        assert shared[0] not in func.block("else_").insts

    def test_differing_suffixes_untouched(self):
        func = diamond(
            [Assign(R(2), Const(1))],
            [Assign(R(2), Const(2))],
        )
        assert not N.run(func, DEFAULT_TARGET)

    def test_conditional_predecessor_blocks_cross_jump(self):
        # A predecessor reaching the join via a conditional branch
        # cannot contribute its suffix.
        func = Function("f", returns_value=True)
        entry = func.add_block("entry")
        other = func.add_block("other")
        join = func.add_block("join")
        shared = Assign(R(2), Const(7))
        entry.insts = [shared, Compare(R(1), Const(0)), CondBranch("eq", "join")]
        other.insts = [shared]
        join.insts = [Assign(RV, R(2)), Return()]
        assert not N.run(func, DEFAULT_TARGET)

    def test_semantics_preserved(self):
        from repro.ir.function import Program
        from repro.vm import Interpreter

        shared = [Assign(R(2), BinOp("add", R(3), Const(10)))]
        for transform in (False, True):
            func = diamond(
                [Assign(R(3), Const(1))] + shared,
                [Assign(R(3), Const(2))] + shared,
            )
            if transform:
                assert N.run(func, DEFAULT_TARGET)
            program = Program()
            program.add_function(func)
            for r1 in (0, 1):
                # the second argument arrives in r1, the register the
                # diamond branches on
                expected = 12 if r1 == 0 else 11
                assert Interpreter(program).run("f", (0, r1)).value == expected


class TestHoisting:
    def make(self, taken_first, fall_first):
        func = Function("f", returns_value=True)
        entry = func.add_block("entry")
        fall = func.add_block("fall")
        taken = func.add_block("taken")
        entry.insts = [Compare(R(1), Const(0)), CondBranch("eq", "taken")]
        fall.insts = [fall_first, Assign(RV, Const(1)), Return()]
        taken.insts = [taken_first, Assign(RV, Const(2)), Return()]
        return func

    def test_identical_first_instruction_hoisted(self):
        shared = Assign(R(5), BinOp("add", R(6), Const(1)))
        func = self.make(shared, shared)
        assert N.run(func, DEFAULT_TARGET)
        entry = func.block("entry")
        # inserted between the compare and the branch
        assert entry.insts[1] == shared
        assert shared not in func.block("fall").insts
        assert shared not in func.block("taken").insts

    def test_compare_never_hoisted(self):
        shared = Compare(R(5), Const(3))
        func = self.make(shared, shared)
        func.block("fall").insts.insert(1, CondBranch("lt", "taken"))
        # would clobber the branch's condition code
        assert not N.run(func, DEFAULT_TARGET)

    def test_different_first_instructions_untouched(self):
        func = self.make(Assign(R(5), Const(1)), Assign(R(5), Const(2)))
        assert not N.run(func, DEFAULT_TARGET)

    def test_successor_with_extra_predecessor_blocks_hoist(self):
        shared = Assign(R(5), Const(1))
        func = self.make(shared, shared)
        func.add_block("extra").insts = [Jump("taken")]
        func.blocks[-1], func.blocks[-2] = func.blocks[-2], func.blocks[-1]
        # rebuild positions: ensure extra jumps into taken
        assert not N.run(func, DEFAULT_TARGET)
