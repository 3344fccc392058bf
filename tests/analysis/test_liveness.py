"""Unit tests for register and slot liveness."""

from repro.analysis.liveness import compute_liveness, compute_slot_liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import FP, RV
from tests.conftest import compile_fn


def straightline():
    func = Function("f", returns_value=True)
    block = func.add_block("L0")
    block.insts = [
        Assign(Reg(1), Const(1)),
        Assign(Reg(2), BinOp("add", Reg(1), Const(2))),
        Assign(RV, Reg(2)),
        Return(),
    ]
    return func


class TestRegisterLiveness:
    def test_straightline_chain(self):
        func = straightline()
        liveness = compute_liveness(func)
        before = liveness.live_before_each(func, "L0")
        assert Reg(1) not in before[0]
        assert Reg(1) in before[1]
        assert Reg(2) in before[2]
        assert RV in before[3]

    def test_return_value_live_only_when_function_returns(self):
        func = straightline()
        func.returns_value = False
        liveness = compute_liveness(func)
        # the copy into RV is now dead at its own position
        after = liveness.live_after_each(func, "L0")
        assert RV not in after[2]

    def test_loop_carried_liveness(self):
        func = Function("f", returns_value=True)
        head = func.add_block("head")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        head.insts = [Compare(Reg(1), Const(10)), CondBranch("ge", "exit")]
        body.insts = [Assign(Reg(1), BinOp("add", Reg(1), Const(1))), Jump("head")]
        exit_.insts = [Assign(RV, Reg(1)), Return()]
        liveness = compute_liveness(func)
        assert Reg(1) in liveness.live_in["head"]
        assert Reg(1) in liveness.live_out["body"]

    def test_branch_keeps_both_paths_alive(self):
        func = Function("f", returns_value=True)
        entry = func.add_block("entry")
        then = func.add_block("then")
        other = func.add_block("other")
        entry.insts = [
            Assign(Reg(5), Const(1)),
            Assign(Reg(6), Const(2)),
            Compare(Reg(7), Const(0)),
            CondBranch("eq", "other"),
        ]
        then.insts = [Assign(RV, Reg(5)), Return()]
        other.insts = [Assign(RV, Reg(6)), Return()]
        liveness = compute_liveness(func)
        assert {Reg(5), Reg(6)} <= set(liveness.live_out["entry"])


class TestSlotLiveness:
    def test_dead_store_detected(self):
        func = Function("f", returns_value=True)
        func.add_local("x", 1, "int", False)  # offset 0
        block = func.add_block("L0")
        block.insts = [
            Assign(Mem(FP), Reg(1, pseudo=False)),  # store never loaded
            Assign(RV, Const(0)),
            Return(),
        ]
        slots = compute_slot_liveness(func)
        after = slots.live_after_each("L0")
        assert 0 not in after[0]

    def test_store_then_load_is_live(self):
        func = Function("f", returns_value=True)
        func.add_local("x", 1, "int", False)
        block = func.add_block("L0")
        block.insts = [
            Assign(Mem(FP), Reg(1, pseudo=False)),
            Assign(RV, Mem(FP)),
            Return(),
        ]
        slots = compute_slot_liveness(func)
        after = slots.live_after_each("L0")
        assert 0 in after[0]

    def test_load_through_address_register_keeps_slot_live(self):
        # t1 = fp + 0; rv = M[t1] must count as a read of slot 0.
        func = Function("f", returns_value=True)
        func.add_local("x", 1, "int", False)
        block = func.add_block("L0")
        t1 = Reg(1)
        block.insts = [
            Assign(Mem(FP), Reg(2, pseudo=False)),
            Assign(t1, FP),
            Assign(RV, Mem(t1)),
            Return(),
        ]
        slots = compute_slot_liveness(func)
        after = slots.live_after_each("L0")
        assert 0 in after[0]

    def test_arrays_not_tracked(self, sum_array_func):
        slots = compute_slot_liveness(sum_array_func)
        offsets = {slot.offset for slot in sum_array_func.scalar_slots()}
        assert slots.tracked == offsets
