"""Focused unit tests for loop transformation internals (phase l)."""

from repro.analysis.flat import find_flat_loops
from repro.analysis.loops import find_natural_loops
from repro.ir.flat import LABEL_STRS, from_flat, to_flat
from repro.ir.function import Function, Program
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import DEFAULT_TARGET, RV
from repro.opt import phase_by_id
from repro.opt.flat.looptransforms import ensure_preheader
from repro.vm import Interpreter
from tests.conftest import ObjectPhase

L = ObjectPhase(phase_by_id("l"))
R = lambda i: Reg(i, pseudo=False)


def counting_loop(extra_body=(), bound=10):
    """r1 counts 0..bound; r2 accumulates; post-allocation shape."""
    func = Function("f", returns_value=True)
    func.reg_assigned = True
    func.sel_applied = True
    func.alloc_applied = True
    entry = func.add_block("entry")
    head = func.add_block("head")
    body = func.add_block("body")
    exit_ = func.add_block("exit")
    entry.insts = [Assign(R(1), Const(0)), Assign(R(2), Const(0))]
    head.insts = [Compare(R(1), Const(bound)), CondBranch("ge", "exit")]
    body.insts = list(extra_body) + [
        Assign(R(2), BinOp("add", R(2), R(1))),
        Assign(R(1), BinOp("add", R(1), Const(1))),
        Jump("head"),
    ]
    exit_.insts = [Assign(RV, R(2)), Return()]
    return func


def execute(func):
    program = Program()
    program.add_function(func)
    return Interpreter(program).run("f").value


class TestEnsurePreheader:
    def test_existing_sole_predecessor_reused(self):
        flat = to_flat(counting_loop())
        (loop,) = find_flat_loops(flat)
        preheader = ensure_preheader(flat, loop)
        assert LABEL_STRS[flat.labels[preheader]] == "entry"
        assert len(flat.blocks) == 4  # nothing created

    def test_created_when_entry_has_other_successors(self):
        func = counting_loop()
        # make entry conditional: it may skip the loop entirely
        entry = func.block("entry")
        entry.insts += [Compare(R(1), Const(0)), CondBranch("lt", "exit")]
        flat = to_flat(func)
        (loop,) = find_flat_loops(flat)
        before = len(flat.blocks)
        preheader = ensure_preheader(flat, loop)
        assert len(flat.blocks) == before + 1
        assert flat.blocks[preheader] == []
        # the preheader falls through to the header
        assert LABEL_STRS[flat.labels[preheader + 1]] == "head"
        assert execute(from_flat(flat)) == sum(range(10))


class TestLicm:
    def test_invariant_moved_to_preheader(self):
        invariant = Assign(R(5), BinOp("add", R(6), Const(12)))
        func = counting_loop(extra_body=[invariant])
        assert L.run(func, DEFAULT_TARGET)
        (loop,) = find_natural_loops(func)
        for label in loop.body:
            assert invariant not in func.block(label).insts

    def test_semantics_preserved_after_licm(self):
        invariant = Assign(R(5), BinOp("add", R(6), Const(12)))
        plain = counting_loop(extra_body=[invariant])
        moved = counting_loop(extra_body=[invariant])
        L.run(moved, DEFAULT_TARGET)
        assert execute(plain) == execute(moved)

    def test_division_never_speculated(self):
        # r6 is 0 at runtime; hoisting r5 = 1/r6 out of a zero-trip
        # loop would trap where the original never divides.
        trap = Assign(R(5), BinOp("div", Const(1), R(6)))
        func = counting_loop(extra_body=[trap], bound=0)
        L.run(func, DEFAULT_TARGET)
        (loop,) = find_natural_loops(func)
        in_loop = any(trap in func.block(label).insts for label in loop.body)
        assert in_loop  # still inside; zero-trip loop never executes it
        assert execute(func) == 0

    def test_loads_not_moved_past_stores(self):
        load = Assign(R(5), Mem(R(7)))
        store = Assign(Mem(R(8)), R(2))
        func = counting_loop(extra_body=[load, store])
        L.run(func, DEFAULT_TARGET)
        (loop,) = find_natural_loops(func)
        assert any(load in func.block(label).insts for label in loop.body)


class TestStrengthReduction:
    def make_scaled_loop(self):
        """body computes r3 = r1 * 4 each iteration."""
        scaled = Assign(R(3), BinOp("mul", R(1), Const(4)))
        use = Assign(R(2), BinOp("add", R(2), R(3)))
        func = Function("f", returns_value=True)
        func.reg_assigned = True
        func.sel_applied = True
        func.alloc_applied = True
        entry = func.add_block("entry")
        head = func.add_block("head")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        entry.insts = [Assign(R(1), Const(0)), Assign(R(2), Const(0))]
        head.insts = [Compare(R(1), Const(10)), CondBranch("ge", "exit")]
        body.insts = [
            scaled,
            use,
            Assign(R(1), BinOp("add", R(1), Const(1))),
            Jump("head"),
        ]
        exit_.insts = [Assign(RV, R(2)), Return()]
        return func, scaled

    def test_multiply_reduced_to_increment(self):
        func, scaled = self.make_scaled_loop()
        assert L.run(func, DEFAULT_TARGET)
        (loop,) = find_natural_loops(func)
        for label in loop.body:
            for inst in func.block(label).insts:
                if isinstance(inst, Assign):
                    assert not (
                        isinstance(inst.src, BinOp) and inst.src.op == "mul"
                    ), "multiply survived strength reduction"

    def test_semantics_after_reduction(self):
        func, _scaled = self.make_scaled_loop()
        plain_value = execute(self.make_scaled_loop()[0])
        L.run(func, DEFAULT_TARGET)
        assert execute(func) == plain_value == sum(4 * i for i in range(10))

    def test_iv_elimination_rewrites_compare(self):
        func, _scaled = self.make_scaled_loop()
        L.run(func, DEFAULT_TARGET)
        # after reduction + elimination the loop compare no longer
        # mentions r1 (the original induction variable)
        (loop,) = find_natural_loops(func)
        compares = [
            inst
            for label in loop.body
            for inst in func.block(label).insts
            if isinstance(inst, Compare)
        ]
        assert compares
        assert all(R(1) not in inst.uses() for inst in compares)
