"""Unit tests for the implicit merge/empty-block cleanup."""

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import Const, Reg
from repro.opt.flat.cleanup import (
    flat_implicit_cleanup,
    flat_merge_fallthrough_blocks,
    flat_remove_empty_blocks,
)
from tests.conftest import on_object

implicit_cleanup = on_object(flat_implicit_cleanup)
merge_fallthrough_blocks = on_object(flat_merge_fallthrough_blocks)
remove_empty_blocks = on_object(flat_remove_empty_blocks)


def labels(func):
    return [block.label for block in func.blocks]


class TestRemoveEmptyBlocks:
    def test_empty_block_removed_and_branches_retargeted(self):
        func = Function("f")
        a = func.add_block("a")
        empty = func.add_block("empty")
        c = func.add_block("c")
        a.insts = [Compare(Reg(1), Const(0)), CondBranch("eq", "empty")]
        c.insts = [Return()]
        assert remove_empty_blocks(func)
        assert labels(func) == ["a", "c"]
        assert a.insts[-1] == CondBranch("eq", "c")

    def test_chain_of_empty_blocks(self):
        func = Function("f")
        a = func.add_block("a")
        func.add_block("e1")
        func.add_block("e2")
        d = func.add_block("d")
        a.insts = [Jump("e1")]
        d.insts = [Return()]
        assert remove_empty_blocks(func)
        assert labels(func) == ["a", "d"]
        assert a.insts[-1] == Jump("d")

    def test_empty_entry_block_kept(self):
        func = Function("f")
        func.add_block("entry")
        exit_ = func.add_block("exit")
        exit_.insts = [Return()]
        assert not remove_empty_blocks(func)
        assert labels(func) == ["entry", "exit"]


class TestMergeFallthrough:
    def test_single_pred_fallthrough_merged(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Assign(Reg(1), Const(1))]
        b.insts = [Assign(Reg(2), Const(2)), Return()]
        assert merge_fallthrough_blocks(func)
        assert labels(func) == ["a"]
        assert len(func.blocks[0].insts) == 3

    def test_branch_target_not_merged(self):
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        c = func.add_block("c")
        a.insts = [Compare(Reg(1), Const(0)), CondBranch("eq", "c")]
        b.insts = [Assign(Reg(2), Const(2))]
        c.insts = [Return()]
        # c has two predecessors (a's branch, b's fallthrough): keep it.
        merge_fallthrough_blocks(func)
        assert "c" in labels(func)

    def test_jump_linked_blocks_not_merged(self):
        # That is block reordering's job (phase i), not cleanup's.
        func = Function("f")
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Jump("b")]
        b.insts = [Return()]
        assert not merge_fallthrough_blocks(func)
        assert labels(func) == ["a", "b"]


class TestImplicitCleanup:
    def test_runs_to_fixpoint(self):
        func = Function("f")
        a = func.add_block("a")
        func.add_block("empty")  # removing this enables the merge below
        c = func.add_block("c")
        a.insts = [Assign(Reg(1), Const(1))]
        c.insts = [Return()]
        assert implicit_cleanup(func)
        assert labels(func) == ["a"]
