"""Unit tests for the def/use rewriting helpers and the def facts the
phases read off the flat IR (``DEF_RID``, ``flat_single_defs_of``)."""

from repro.analysis.defuse import rewrite_registers, rewrite_uses
from repro.analysis.flat import flat_single_defs_of
from repro.ir.flat import DEF_RID, INST_OBJS, REG_OBJS, intern_inst, to_flat
from repro.ir.function import Function
from repro.ir.instructions import Assign, Call, Compare, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import RV


def defined_reg(inst):
    """The register a register assignment defines, read off DEF_RID."""
    rid = DEF_RID[intern_inst(inst)]
    return None if rid < 0 else REG_OBJS[rid]


def single_def_registers(func):
    """flat_single_defs_of over *func*, keyed and valued by objects."""
    singles = flat_single_defs_of(to_flat(func))
    return {REG_OBJS[rid]: INST_OBJS[iid] for rid, iid in singles.items()}


class TestDefinedReg:
    def test_register_assign(self):
        assert defined_reg(Assign(Reg(1), Const(0))) == Reg(1)

    def test_store_defines_nothing(self):
        assert defined_reg(Assign(Mem(Reg(1)), Reg(2))) is None

    def test_non_assign(self):
        assert defined_reg(Jump("L1")) is None


class TestRewriteUses:
    def test_rewrites_source_operands(self):
        inst = Assign(Reg(1), BinOp("add", Reg(2), Reg(3)))
        out = rewrite_uses(inst, {Reg(2): Const(5)})
        assert out == Assign(Reg(1), BinOp("add", Const(5), Reg(3)))

    def test_destination_register_never_rewritten(self):
        inst = Assign(Reg(1), Reg(2))
        out = rewrite_uses(inst, {Reg(1): Reg(9)})
        assert out.dst == Reg(1)

    def test_store_address_is_a_use(self):
        inst = Assign(Mem(BinOp("add", Reg(1), Const(4))), Reg(2))
        out = rewrite_uses(inst, {Reg(1): Reg(7)})
        assert out == Assign(Mem(BinOp("add", Reg(7), Const(4))), Reg(2))

    def test_compare_operands_rewritten(self):
        inst = Compare(Reg(1), Reg(2))
        out = rewrite_uses(inst, {Reg(1): Reg(3), Reg(2): Const(0)})
        assert out == Compare(Reg(3), Const(0))

    def test_no_change_returns_same_object(self):
        inst = Assign(Reg(1), Reg(2))
        assert rewrite_uses(inst, {Reg(9): Reg(3)}) is inst

    def test_transfers_untouched(self):
        inst = Jump("L1")
        assert rewrite_uses(inst, {Reg(1): Reg(2)}) is inst


class TestRewriteRegisters:
    def test_rewrites_both_defs_and_uses(self):
        inst = Assign(Reg(1), BinOp("add", Reg(1), Const(4)))
        out = rewrite_registers(inst, {Reg(1): Reg(9)})
        assert out == Assign(Reg(9), BinOp("add", Reg(9), Const(4)))

    def test_store_destination_address_rewritten(self):
        inst = Assign(Mem(Reg(1)), Reg(2))
        out = rewrite_registers(inst, {Reg(1): Reg(3), Reg(2): Reg(4)})
        assert out == Assign(Mem(Reg(3)), Reg(4))


class TestSingleDefRegisters:
    def _func(self, insts, params=False):
        func = Function("f", returns_value=True)
        block = func.add_block("L0")
        block.insts = list(insts) + [Return()]
        return func

    def test_single_textual_def_found(self):
        func = self._func([Assign(Reg(1), Const(4)), Assign(RV, Reg(1))])
        singles = single_def_registers(func)
        assert Reg(1) in singles
        assert singles[Reg(1)] == Assign(Reg(1), Const(4))

    def test_double_def_excluded(self):
        func = self._func(
            [
                Assign(Reg(1), Const(4)),
                Assign(Reg(1), Const(5)),
                Assign(RV, Reg(1)),
            ]
        )
        assert Reg(1) not in single_def_registers(func)

    def test_call_clobbered_register_excluded(self):
        func = self._func([Call("g", 0), Assign(Reg(1, pseudo=False), Const(1)),
                           Assign(RV, Reg(1, pseudo=False))])
        assert Reg(1, pseudo=False) not in single_def_registers(func)

    def test_argument_register_has_implicit_entry_def(self):
        # r0 is read before any def (it carries an argument), so its
        # later textual def is not its only source.
        r0 = Reg(0, pseudo=False)
        func = self._func(
            [
                Assign(Reg(8, pseudo=False), r0),  # use of the argument
                Assign(r0, Const(7)),  # textual def
                Assign(RV, BinOp("add", Reg(8, pseudo=False), r0)),
            ]
        )
        singles = single_def_registers(func)
        assert r0 not in singles
        assert Reg(8, pseudo=False) in singles
