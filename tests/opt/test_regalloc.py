"""Unit tests for register allocation (phase k)."""

from repro.ir.instructions import Assign
from repro.ir.operands import Mem, Reg
from repro.machine.target import DEFAULT_TARGET
from repro.opt import apply_phase, phase_by_id
from repro.vm import Interpreter
from tests.conftest import GCD_SRC, SUM_ARRAY_SRC, ObjectPhase, apply_sequence, compile_prog

K = ObjectPhase(phase_by_id("k"))
S = ObjectPhase(phase_by_id("s"))


def memory_access_count(func):
    return sum(
        1
        for inst in func.instructions()
        if inst.reads_memory() or inst.writes_memory()
    )


class TestLegality:
    def test_illegal_before_instruction_selection(self):
        program = compile_prog(GCD_SRC)
        func = program.function("gcd")
        assert not K.applicable(func)
        assert not apply_phase(func, K.phase)

    def test_legal_after_instruction_selection(self):
        program = compile_prog(GCD_SRC)
        func = program.function("gcd")
        assert apply_phase(func, S.phase)
        assert K.applicable(func)


class TestAllocation:
    def test_promotes_scalar_slots_to_registers(self):
        program = compile_prog(GCD_SRC)
        func = program.function("gcd")
        apply_phase(func, S.phase)
        before = memory_access_count(func)
        assert apply_phase(func, K.phase)
        assert func.alloc_applied
        assert memory_access_count(func) < before

    def test_creates_register_moves_for_selection(self):
        # k's rewrites are moves that s then collapses (the paper's
        # k-enables-s relation).
        program = compile_prog(GCD_SRC)
        func = program.function("gcd")
        apply_phase(func, S.phase)
        assert not apply_phase(func, S.phase)  # s at fixpoint
        apply_phase(func, K.phase)
        assert apply_phase(func, S.phase)  # k re-enabled s

    def test_dormant_second_time(self):
        program = compile_prog(GCD_SRC)
        func = program.function("gcd")
        apply_phase(func, S.phase)
        assert apply_phase(func, K.phase)
        assert not apply_phase(func, K.phase)

    def test_semantics_preserved(self):
        base = compile_prog(GCD_SRC)
        expected = Interpreter(base).run("gcd", (252, 105)).value
        assert expected == 21
        program = compile_prog(GCD_SRC)
        func = program.function("gcd")
        apply_sequence(func, "sks")
        assert Interpreter(program).run("gcd", (252, 105)).value == 21

    def test_array_slots_never_promoted(self):
        src = """
        int f(int n) {
            int tmp[4];
            int i;
            int s = 0;
            for (i = 0; i < 4; i++) tmp[i] = n + i;
            for (i = 0; i < 4; i++) s += tmp[i];
            return s;
        }
        """
        program = compile_prog(src)
        func = program.function("f")
        apply_sequence(func, "scs")
        apply_phase(func, K.phase)
        # array accesses remain memory accesses
        assert memory_access_count(func) > 0
        assert Interpreter(program).run("f", (10,)).value == 46

    def test_allocation_on_sum_array_matches_semantics(self):
        base = compile_prog(SUM_ARRAY_SRC)
        vm = Interpreter(base)
        for i in range(100):
            vm.store_global("a", 3 * i, i)
        expected = vm.run("sum_array").value

        program = compile_prog(SUM_ARRAY_SRC)
        func = program.function("sum_array")
        apply_sequence(func, "schkshc")
        vm2 = Interpreter(program)
        for i in range(100):
            vm2.store_global("a", 3 * i, i)
        assert vm2.run("sum_array").value == expected


class TestDeadStoreInterference:
    """Regression: a dead store into a colored slot still physically
    writes the slot's register, so a written slot must interfere with
    everything live across the store — even when the stored value is
    never read (it is overwritten first)."""

    SRC = """
int f(int x, int y) {
    int a = x;
    int b = y;
    int c = 1;
    b = x;
    return a + b * 3 + c * 7;
}
"""

    def test_dead_store_does_not_clobber_live_slot(self):
        program = compile_prog(self.SRC)
        func = program.function("f")
        reference = [
            Interpreter(compile_prog(self.SRC)).run("f", vector).value
            for vector in [(2, 3), (0, 0), (1, 1), (-5, 7)]
        ]
        apply_phase(func, S.phase)
        assert apply_phase(func, K.phase)
        values = [
            Interpreter(program).run("f", vector).value
            for vector in [(2, 3), (0, 0), (1, 1), (-5, 7)]
        ]
        assert values == reference

    def test_written_slots_interfere_with_live_slots(self):
        # The dead store to b and the still-live a must not share a
        # register: walk the coloring and assert the rewritten moves
        # never write a register that carries another slot's live value.
        program = compile_prog(self.SRC)
        func = program.function("f")
        apply_phase(func, S.phase)
        from repro.analysis.flat import flat_liveness_of, flat_slot_liveness_of
        from repro.ir.flat import to_flat
        from repro.opt import RegisterAllocation

        flat = to_flat(func)
        slot_liveness = flat_slot_liveness_of(flat)
        referenced = set()
        for block_refs in slot_liveness.frame_refs.refs:
            for ref in block_refs:
                referenced |= ref.reads | ref.writes
        candidates = sorted(referenced)
        forbidden, slot_edges = RegisterAllocation._interference(
            flat, candidates, flat_liveness_of(flat), slot_liveness
        )
        coloring = RegisterAllocation._color(candidates, forbidden, slot_edges)
        assert coloring
        for offset, index in coloring.items():
            for other in slot_edges[offset]:
                assert coloring.get(other) != index
