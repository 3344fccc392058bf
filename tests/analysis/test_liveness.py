"""Unit tests for register liveness (flat) and slot liveness."""

from repro.analysis.flat import compute_flat_liveness
from repro.analysis.liveness import compute_slot_liveness
from repro.ir.flat import mask_of, to_flat
from repro.ir.function import Function
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import FP, RV


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


def live(mask, reg) -> bool:
    return bool(mask & mask_of((reg,)))


class TestRegisterLiveness:
    def test_straightline_chain(self):
        flat = to_flat(straightline())
        liveness = compute_flat_liveness(flat)
        # live before instruction i: the block's live-in, then live
        # after instruction i - 1
        before = [liveness.live_in[0]] + liveness.live_after_each(flat, 0)[:-1]
        assert not live(before[0], Reg(1))
        assert live(before[1], Reg(1))
        assert live(before[2], Reg(2))
        assert live(before[3], RV)

    def test_return_value_live_only_when_function_returns(self):
        func = straightline()
        func.returns_value = False
        flat = to_flat(func)
        liveness = compute_flat_liveness(flat)
        # the copy into RV is now dead at its own position
        after = liveness.live_after_each(flat, 0)
        assert not live(after[2], RV)

    def test_loop_carried_liveness(self):
        func = Function("f", returns_value=True)
        head = func.add_block("head")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        head.insts = [Compare(Reg(1), Const(10)), CondBranch("ge", "exit")]
        body.insts = [Assign(Reg(1), BinOp("add", Reg(1), Const(1))), Jump("head")]
        exit_.insts = [Assign(RV, Reg(1)), Return()]
        liveness = compute_flat_liveness(to_flat(func))
        assert live(liveness.live_in[0], Reg(1))  # head
        assert live(liveness.live_out[1], Reg(1))  # body

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
        liveness = compute_flat_liveness(to_flat(func))
        out = liveness.live_out[0]
        assert live(out, Reg(5)) and live(out, Reg(6))


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
