"""Unit tests for dead assignment elimination (phase h)."""

from repro.ir.function import Function
from repro.ir.instructions import Assign, Call, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import DEFAULT_TARGET, FP, RV
from repro.opt import phase_by_id
from tests.conftest import ObjectPhase

H = ObjectPhase(phase_by_id("h"))


def one_block(insts, returns_value=True, locals_spec=("x",)):
    func = Function("f", returns_value=returns_value)
    for name in locals_spec:
        func.add_local(name, 1, "int", False)
    block = func.add_block("L0")
    block.insts = list(insts) + [Return()]
    return func


class TestDeadRegisters:
    def test_unused_assignment_removed(self):
        func = one_block([Assign(Reg(1), Const(5)), Assign(RV, Const(0))])
        assert H.run(func, DEFAULT_TARGET)
        assert Assign(Reg(1), Const(5)) not in func.blocks[0].insts

    def test_chain_of_dead_assignments_removed(self):
        func = one_block(
            [
                Assign(Reg(1), Const(5)),
                Assign(Reg(2), BinOp("add", Reg(1), Const(1))),
                Assign(RV, Const(0)),
            ]
        )
        assert H.run(func, DEFAULT_TARGET)
        assert len(func.blocks[0].insts) == 2  # rv= and RET

    def test_live_value_kept(self):
        func = one_block([Assign(Reg(1), Const(5)), Assign(RV, Reg(1))])
        assert not H.run(func, DEFAULT_TARGET)

    def test_return_value_live_for_returning_function(self):
        func = one_block([Assign(RV, Const(1))])
        assert not H.run(func, DEFAULT_TARGET)

    def test_return_value_dead_in_void_function(self):
        func = one_block([Assign(RV, Const(1))], returns_value=False)
        assert H.run(func, DEFAULT_TARGET)

    def test_overwritten_value_removed(self):
        func = one_block([Assign(RV, Const(1)), Assign(RV, Const(2))])
        assert H.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(RV, Const(2))

    def test_dead_load_removed(self):
        func = one_block([Assign(Reg(1), Mem(FP)), Assign(RV, Const(0))])
        assert H.run(func, DEFAULT_TARGET)

    def test_argument_setup_before_call_kept(self):
        func = one_block([Assign(Reg(0, pseudo=False), Const(1)), Call("g", 1)])
        assert not H.run(func, DEFAULT_TARGET)

    def test_clobbered_argument_register_removed(self):
        # r1 set but the call takes only one argument: r1 is clobbered.
        func = one_block([Assign(Reg(1, pseudo=False), Const(1)), Call("g", 1)])
        assert H.run(func, DEFAULT_TARGET)


class TestDeadCompares:
    def test_compare_without_branch_removed(self):
        func = one_block([Compare(Reg(1), Const(0)), Assign(RV, Const(0))])
        assert H.run(func, DEFAULT_TARGET)
        assert Compare(Reg(1), Const(0)) not in func.blocks[0].insts

    def test_compare_feeding_branch_kept(self):
        func = Function("f", returns_value=True)
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Compare(Reg(1, pseudo=False), Const(0)), CondBranch("eq", "b")]
        b.insts = [Assign(RV, Const(0)), Return()]
        assert not H.run(func, DEFAULT_TARGET)

    def test_shadowed_compare_removed(self):
        func = Function("f", returns_value=True)
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [
            Compare(Reg(1, pseudo=False), Const(0)),  # overwritten below
            Compare(Reg(2, pseudo=False), Const(0)),
            CondBranch("eq", "b"),
        ]
        b.insts = [Assign(RV, Const(0)), Return()]
        assert H.run(func, DEFAULT_TARGET)
        assert len(a.insts) == 2


class TestDeadStores:
    def test_store_never_loaded_removed(self):
        func = one_block(
            [Assign(Mem(FP), Reg(1, pseudo=False)), Assign(RV, Const(0))]
        )
        assert H.run(func, DEFAULT_TARGET)
        assert len(func.blocks[0].insts) == 2

    def test_store_loaded_later_kept(self):
        func = one_block(
            [Assign(Mem(FP), Reg(1, pseudo=False)), Assign(RV, Mem(FP))]
        )
        assert not H.run(func, DEFAULT_TARGET)

    def test_store_read_through_address_register_kept(self):
        addr = Reg(5)
        func = one_block(
            [
                Assign(Mem(FP), Reg(1, pseudo=False)),
                Assign(addr, FP),
                Assign(RV, Mem(addr)),
            ]
        )
        assert not H.run(func, DEFAULT_TARGET)

    def test_array_store_never_removed(self):
        # A store through a computed (non-slot) address must stay.
        base, addr = Reg(5), Reg(6)
        func = one_block(
            [
                Assign(base, BinOp("add", FP, Const(4))),
                Assign(addr, BinOp("add", base, Reg(2, pseudo=False))),
                Assign(Mem(addr), Reg(1, pseudo=False)),
                Assign(RV, Const(0)),
            ],
            locals_spec=(),
        )
        func.add_local("arr", 4, "int", True)
        assert not any(
            isinstance(inst, Assign)
            and isinstance(inst.dst, Mem)
            and inst not in func.blocks[0].insts
            for inst in list(func.blocks[0].insts)
        )
        H.run(func, DEFAULT_TARGET)
        stores = [
            inst
            for inst in func.blocks[0].insts
            if isinstance(inst, Assign) and isinstance(inst.dst, Mem)
        ]
        assert len(stores) == 1

    def test_store_live_across_blocks_kept(self):
        func = Function("f", returns_value=True)
        func.add_local("x", 1, "int", False)
        a = func.add_block("a")
        b = func.add_block("b")
        a.insts = [Assign(Mem(FP), Reg(1, pseudo=False))]
        b.insts = [Assign(RV, Mem(FP)), Return()]
        assert not H.run(func, DEFAULT_TARGET)
