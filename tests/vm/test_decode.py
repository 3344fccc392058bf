"""The decode contract: what the shared table of decoded blocks may and
may not reuse, and the fuel budget inside a decoded segment."""

import math
import sys
import threading

import pytest

from repro.analysis.flat import reset_flat_analysis_caches
from repro.frontend import compile_source
from repro.ir.function import Function, GlobalVar, Program
from repro.ir.instructions import Assign, Call, Return
from repro.ir.operands import BinOp, Const, Mem, Reg, Sym
from repro.machine.target import Target
from repro.vm import Interpreter, VMFuelExhausted
from repro.vm import interpreter as vm_module

R0, R1 = Reg(0, pseudo=False), Reg(1, pseudo=False)


@pytest.fixture(autouse=True)
def fresh_table():
    reset_flat_analysis_caches()
    yield
    reset_flat_analysis_caches()


def function(name, *insts, returns_value=True):
    func = Function(name, returns_value=returns_value)
    func.add_block("L0").insts.extend(insts)
    return func


def program_of(*functions, globals_=()):
    program = Program()
    for var in globals_:
        program.add_global(var)
    for func in functions:
        program.add_function(func)
    return program


def load_g():
    """``f`` returning the word at global ``g``: one Sym-using block."""
    return function(
        "f",
        Assign(R1, Sym("g", "hi")),
        Assign(R1, BinOp("add", R1, Sym("g", "lo"))),
        Assign(R0, Mem(R1)),
        Return(),
    )


def test_in_place_block_edit_is_seen_by_the_next_run():
    func = function("f", Assign(R0, Const(1)), Return())
    vm = Interpreter(program_of(func))
    assert vm.run("f").value == 1
    # no invalidate_analyses(): the table is keyed by the instructions
    func.blocks[0].insts[0] = Assign(R0, Const(2))
    assert vm.run("f").value == 2


def test_symbols_resolve_per_globals_layout():
    func = load_g()
    near = program_of(func, globals_=[GlobalVar("g", 1, "int", [5])])
    far = program_of(
        func,
        globals_=[GlobalVar("pad", 3, "int", is_array=True), GlobalVar("g", 1, "int", [9])],
    )
    assert near.globals["g"].address != far.globals["g"].address
    assert Interpreter(near).run("f").value == 5
    assert Interpreter(far).run("f").value == 9
    assert Interpreter(near).run("f").value == 5


def test_target_cost_model_is_part_of_the_key():
    class Costly(Target):
        def cost(self, inst):
            return 10

    program = compile_source("int f(int x) { return x * 3 + 1; }")
    plain = Interpreter(program).run("f", (4,))
    costly = Interpreter(program, target=Costly()).run("f", (4,))
    assert costly.total_insts == plain.total_insts
    assert costly.cycles == 10 * plain.total_insts != plain.cycles
    assert Interpreter(program).run("f", (4,)).cycles == plain.cycles


def test_interpreters_share_blocks_but_not_memory():
    program = program_of(load_g(), globals_=[GlobalVar("g", 1, "int", [0])])
    first, second = Interpreter(program), Interpreter(program)
    first.store_global("g", 11)
    second.store_global("g", 22)
    assert first.run("f").value == 11
    decoded = dict(vm_module._DECODED)
    assert len(decoded) == 1
    assert second.run("f").value == 22
    assert vm_module._DECODED == decoded  # a hit, not a second decode


def test_table_never_exceeds_its_bound():
    bound = vm_module._DECODED_MAX
    for value in range(bound + 40):
        func = function("f", Assign(R0, Const(value)), Return())
        assert Interpreter(program_of(func)).run("f").value == value
        assert len(vm_module._DECODED) <= bound


def test_float_zero_signs_stay_apart():
    # Const(0.0) and Const(-0.0) are distinct constants, so the two
    # blocks are distinct table keys
    positive = function("f", Assign(R0, Const(0.0)), Return())
    negative = function("f", Assign(R0, Const(-0.0)), Return())
    assert positive.blocks[0].insts != negative.blocks[0].insts
    for func, sign in ((positive, 1.0), (negative, -1.0), (positive, 1.0)):
        value = Interpreter(program_of(func)).run("f").value
        assert value == 0.0 and math.copysign(1.0, value) == sign


def test_threads_share_the_table():
    # interpreters on several threads hit, miss and clear the one table
    # while each program must still read its own layout's addresses
    func = load_g()
    programs = [
        program_of(
            func,
            globals_=[
                GlobalVar("pad", k, "int", is_array=True),
                GlobalVar("g", 1, "int", [k]),
            ],
        )
        for k in range(1, 9)
    ]
    wrong = []

    def work(seed):
        try:
            for i in range(150):
                k = (seed + i) % len(programs) + 1
                if Interpreter(programs[k - 1]).run("f").value != k:
                    wrong.append(k)
                churn = function("f", Assign(R0, Const(seed * 1000 + i)), Return())
                Interpreter(program_of(churn)).run("f")
        except Exception as error:  # a thread's failure must fail the test
            wrong.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(vm_module._DECODED) <= vm_module._DECODED_MAX


class TestFuelInsideSegments:
    """``f`` runs 2 instructions and a call (one segment), then an add
    and a return; ``g`` runs an add and a return.  Costs: 1 per ALU
    instruction, 2 per call."""

    @staticmethod
    def program():
        caller = function(
            "f",
            Assign(R0, Const(1)),
            Assign(R1, Const(2)),
            Call("g", 1),
            Assign(R0, BinOp("add", R0, Const(2))),
            Return(),
        )
        callee = function("g", Assign(R0, BinOp("add", R0, Const(1))), Return())
        return program_of(caller, callee)

    def exhaust(self, fuel):
        vm = Interpreter(self.program(), fuel=fuel)
        with pytest.raises(VMFuelExhausted, match=f"exceeded {fuel} dynamic"):
            vm.run("f")
        return vm.total_insts, vm.per_function, vm.cycles

    def test_out_of_fuel_at_the_call(self):
        assert self.exhaust(2) == (3, {"f": 3}, 4)

    def test_out_of_fuel_inside_the_callee(self):
        assert self.exhaust(3) == (4, {"f": 3, "g": 1}, 5)
        assert self.exhaust(4) == (5, {"f": 3, "g": 2}, 6)

    def test_out_of_fuel_after_the_return(self):
        assert self.exhaust(5) == (6, {"f": 4, "g": 2}, 7)

    def test_exact_budget_completes(self):
        result = Interpreter(self.program(), fuel=7).run("f")
        assert (result.value, result.total_insts) == (4, 7)
        assert (result.per_function, result.cycles) == ({"f": 5, "g": 2}, 8)
