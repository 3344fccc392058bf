"""Unit tests for strength reduction (phase q)."""

from hypothesis import given, strategies as st

from repro.ir.function import Function, Program
from repro.ir.instructions import Assign, Return
from repro.ir.operands import BinOp, Const, Reg
from repro.machine.target import DEFAULT_TARGET, RV
from repro.opt import phase_by_id
from repro.opt.flat.strength import expand_multiply
from repro.vm import Interpreter
from tests.conftest import ObjectPhase

Q = ObjectPhase(phase_by_id("q"))


def multiply_function(constant):
    """int f(x) { return x * constant; } with an explicit mul RTL."""
    func = Function("f", returns_value=True)
    block = func.add_block("L0")
    block.insts = [
        Assign(RV, BinOp("mul", Reg(1, pseudo=False), Const(constant))),
        Return(),
    ]
    return func


def run_multiply(func, x):
    program = Program()
    program.add_function(func)
    # the second argument arrives in r1, the register the function reads
    return Interpreter(program).run(func.name, (0, x)).value


class TestExpansion:
    def test_power_of_two_becomes_single_shift(self):
        func = multiply_function(8)
        assert Q.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(
            RV, BinOp("lsl", Reg(1, pseudo=False), Const(3))
        )

    def test_two_set_bits_use_shifted_add(self):
        func = multiply_function(10)  # 8 + 2
        assert Q.run(func, DEFAULT_TARGET)
        insts = func.blocks[0].insts
        assert len(insts) == 3  # shift, shifted-add, ret
        assert insts[1].src.op == "add"

    def test_multiply_by_zero(self):
        func = multiply_function(0)
        assert Q.run(func, DEFAULT_TARGET)
        assert func.blocks[0].insts[0] == Assign(RV, Const(0))

    def test_dense_constant_kept_as_multiply(self):
        func = multiply_function(0b1111)  # four set bits: too expensive
        assert not Q.run(func, DEFAULT_TARGET)

    def test_register_multiply_untouched(self):
        func = Function("f", returns_value=True)
        block = func.add_block("L0")
        block.insts = [
            Assign(RV, BinOp("mul", Reg(1, pseudo=False), Reg(2, pseudo=False))),
            Return(),
        ]
        assert not Q.run(func, DEFAULT_TARGET)

    def test_same_source_and_destination_skipped(self):
        func = Function("f", returns_value=True)
        block = func.add_block("L0")
        block.insts = [Assign(RV, BinOp("mul", RV, Const(8))), Return()]
        assert not Q.run(func, DEFAULT_TARGET)

    def test_expansion_instructions_are_legal(self):
        insts = expand_multiply(
            Reg(2, pseudo=False), Reg(1, pseudo=False), 10, DEFAULT_TARGET
        )
        assert all(DEFAULT_TARGET.is_legal(inst) for inst in insts)


@given(st.integers(-1024, 1024), st.integers(-(2**20), 2**20))
def test_expanded_sequence_computes_the_product(constant, x):
    func = multiply_function(constant)
    applied = Q.run(func, DEFAULT_TARGET)
    expected = _mask32(x * constant)
    assert run_multiply(func, x) == expected
    if applied:
        # when q fires, the mul is gone
        assert not any(
            isinstance(inst, Assign)
            and isinstance(inst.src, BinOp)
            and inst.src.op == "mul"
            for inst in func.blocks[0].insts
        )


def _mask32(value):
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value
