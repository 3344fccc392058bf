"""Unit tests for the control-flow phases: b, d, i, r, u, j."""

from repro.ir.function import Function
from repro.ir.instructions import (
    Assign,
    Compare,
    CondBranch,
    Jump,
    Return,
)
from repro.ir.operands import BinOp, Const, Reg
from repro.machine.target import DEFAULT_TARGET, RV
from repro.opt import phase_by_id
from tests.conftest import ObjectPhase


def run_phase(func, phase_id):
    return ObjectPhase(phase_by_id(phase_id)).run(func, DEFAULT_TARGET)


def labels(func):
    return [block.label for block in func.blocks]


class TestBranchChaining:
    def make_chain(self):
        func = Function("f")
        a = func.add_block("a")
        hop = func.add_block("hop")
        c = func.add_block("c")
        a.insts = [Jump("hop")]
        hop.insts = [Jump("c")]
        c.insts = [Return()]
        return func, a

    def test_jump_chain_collapsed(self):
        func, a = self.make_chain()
        assert run_phase(func, "b")
        assert a.insts[-1] == Jump("c")

    def test_intermediate_block_removed_when_unreachable(self):
        func, _a = self.make_chain()
        run_phase(func, "b")
        assert "hop" not in labels(func)

    def test_conditional_branch_retargeted(self):
        func = Function("f")
        a = func.add_block("a")
        fall = func.add_block("fall")
        hop = func.add_block("hop")
        c = func.add_block("c")
        a.insts = [Compare(Reg(1), Const(0)), CondBranch("eq", "hop")]
        fall.insts = [Return()]
        hop.insts = [Jump("c")]
        c.insts = [Return()]
        assert run_phase(func, "b")
        assert a.insts[-1] == CondBranch("eq", "c")

    def test_dormant_when_no_chains(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Assign(Reg(1), Const(1))]
        b.insts = [Return()]
        assert not run_phase(func, "b")

    def test_cyclic_chain_does_not_hang(self):
        func = Function("f")
        a = func.add_block("a")
        x = func.add_block("x")
        y = func.add_block("y")
        a.insts = [Jump("x")]
        x.insts = [Jump("y")]
        y.insts = [Jump("x")]
        run_phase(func, "b")  # must terminate


class TestRemoveUnreachable:
    def test_island_removed(self):
        func = Function("f")
        a = func.add_block("a")
        island = func.add_block("island")
        c = func.add_block("c")
        a.insts = [Jump("c")]
        island.insts = [Assign(Reg(1), Const(1)), Jump("c")]
        c.insts = [Return()]
        assert run_phase(func, "d")
        assert labels(func) == ["a", "c"]

    def test_dormant_when_all_reachable(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Jump("b")]
        b.insts = [Return()]
        assert not run_phase(func, "d")


class TestBlockReordering:
    def test_jump_to_next_block_deleted(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Jump("b")]
        b.insts = [Return()]
        assert run_phase(func, "i")
        assert a.terminator() is None

    def test_single_pred_target_moved(self):
        func = Function("f")
        a = func.add_block("a")
        mid = func.add_block("mid")
        target = func.add_block("target")
        a.insts = [Jump("target")]
        mid.insts = [Return()]
        target.insts = [Assign(RV, Const(1)), Return()]
        assert run_phase(func, "i")
        assert labels(func) == ["a", "target", "mid"]
        assert a.terminator() is None

    def test_moved_fallthrough_block_gets_explicit_jump(self):
        func = Function("f")
        a = func.add_block("a")
        mid = func.add_block("mid")
        target = func.add_block("target")
        tail = func.add_block("tail")
        a.insts = [Jump("target")]
        mid.insts = [Compare(Reg(1), Const(0)), CondBranch("eq", "target"), ]
        target.insts = [Assign(Reg(2), Const(1))]  # falls into tail
        tail.insts = [Return()]
        # target has two preds -> not movable; make mid jump elsewhere
        mid.insts = [Return()]
        assert run_phase(func, "i")
        # target moves up behind a (getting an explicit jump to tail),
        # then the cascade moves tail up behind target and deletes that
        # jump too: a -> target -> tail, all fallthrough.
        assert labels(func) == ["a", "target", "tail", "mid"]
        assert func.block("a").terminator() is None
        assert func.block("target").terminator() is None

    def test_multi_pred_target_not_moved(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        t = func.add_block("t")
        a.insts = [Jump("t")]
        b.insts = [Jump("t")]
        t.insts = [Return()]
        # t is b's positional next: the jump in b is removed instead.
        assert run_phase(func, "i")
        assert b.terminator() is None
        assert a.insts == [Jump("t")]


class TestReverseBranches:
    def make(self):
        func = Function("f")
        a = func.add_block("a")
        over = func.add_block("over")
        near = func.add_block("near")
        far = func.add_block("far")
        a.insts = [Compare(Reg(1), Const(0)), CondBranch("lt", "near")]
        over.insts = [Jump("far")]
        near.insts = [Assign(RV, Const(1)), Return()]
        far.insts = [Assign(RV, Const(2)), Return()]
        return func, a

    def test_branch_reversed_and_jump_block_removed(self):
        func, a = self.make()
        assert run_phase(func, "r")
        assert a.insts[-1] == CondBranch("ge", "far")
        assert "over" not in labels(func)

    def test_jump_block_with_other_preds_kept(self):
        func, a = self.make()
        func.block("far").insts = [Jump("over")]
        assert not run_phase(func, "r")


class TestUselessJumps:
    def test_jump_to_next_removed(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Jump("b")]
        b.insts = [Return()]
        assert run_phase(func, "u")
        assert a.insts == []

    def test_branch_to_next_removed(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Compare(Reg(1), Const(0)), CondBranch("eq", "b")]
        b.insts = [Return()]
        assert run_phase(func, "u")
        assert a.insts == [Compare(Reg(1), Const(0))]

    def test_real_jump_kept(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        c = func.add_block("c")
        a.insts = [Jump("c")]
        b.insts = [Return()]
        c.insts = [Return()]
        assert not run_phase(func, "u")


class TestMinimizeLoopJumps:
    def make_while_loop(self):
        """entry -> head(test, exits to out) -> body -> jump head."""
        func = Function("f", returns_value=True)
        entry = func.add_block("entry")
        head = func.add_block("head")
        body = func.add_block("body")
        out = func.add_block("out")
        entry.insts = [Assign(Reg(1, pseudo=False), Const(0))]
        head.insts = [
            Compare(Reg(1, pseudo=False), Const(10)),
            CondBranch("ge", "out"),
        ]
        body.insts = [
            Assign(Reg(1, pseudo=False), BinOp("add", Reg(1, pseudo=False), Const(1))),
            Jump("head"),
        ]
        out.insts = [Assign(RV, Reg(1, pseudo=False)), Return()]
        return func

    def test_loop_rotated(self):
        func = self.make_while_loop()
        assert run_phase(func, "j")
        body = func.block("body")
        # The latch now ends with the duplicated, inverted test.
        assert body.insts[-1] == CondBranch("lt", "body")
        assert Compare(Reg(1, pseudo=False), Const(10)) in body.insts

    def test_dormant_after_rotation(self):
        func = self.make_while_loop()
        run_phase(func, "j")
        assert not run_phase(func, "j")

    def test_semantics_preserved(self):
        from repro.ir.function import Program
        from repro.vm import Interpreter

        for rotate in (False, True):
            func = self.make_while_loop()
            if rotate:
                assert run_phase(func, "j")
            program = Program()
            program.add_function(func)
            assert Interpreter(program).run("f").value == 10

    def test_dormant_without_loops(self):
        func = Function("f")
        a = func.add_block("a")
        a.insts = [Return()]
        assert not run_phase(func, "j")
