"""Mutation tests: every sanitizer layer must catch its seeded defect.

Each test takes healthy compiled IR, applies one targeted corruption
(drop a def, retarget a branch, widen an operand, misorder phases, ...)
and asserts the sanitizer reports the *right* diagnostic code — not
just any failure.  This pins the catalogue in docs/STATIC_ANALYSIS.md
to behaviour.
"""

import pytest

from repro.core.batch import BatchCompiler
from repro.frontend import compile_source
from repro.ir.flat import to_flat
from repro.ir.function import LocalSlot
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Reg
from repro.machine.target import DEFAULT_TARGET
from repro.opt import apply_phase, phase_by_id
from repro.robustness.guard import GuardedPhaseRunner
from repro.staticanalysis import (
    FAST,
    FULL,
    EdgeChecker,
    check_contract,
    contract_for,
    contract_registry,
    sanitize_function,
    sanitize_program,
    validate_contracts,
)
from tests.conftest import GCD_SRC, MAXI_SRC, SQUARE_SRC, compile_fn


def codes(findings):
    return {finding.code for finding in findings}


@pytest.fixture
def square():
    return compile_fn(SQUARE_SRC, "square")


@pytest.fixture
def gcd():
    return compile_fn(GCD_SRC, "gcd")


class TestCleanBaseline:
    def test_clean_functions_have_no_findings(self, square, gcd):
        assert sanitize_function(square, DEFAULT_TARGET, mode=FULL) == []
        assert sanitize_function(gcd, DEFAULT_TARGET, mode=FULL) == []

    def test_whole_program_clean(self):
        program = compile_source(GCD_SRC + MAXI_SRC)
        from repro.opt import implicit_cleanup

        for func in program.functions.values():
            implicit_cleanup(func)
        assert sanitize_program(program, DEFAULT_TARGET, mode=FULL) == []


class TestStructuralMutations:
    def test_retarget_branch_to_unknown_label(self, gcd):
        for block in gcd.blocks:
            last = block.insts[-1] if block.insts else None
            if isinstance(last, (Jump, CondBranch)):
                block.insts[-1] = (
                    Jump("__void__")
                    if isinstance(last, Jump)
                    else CondBranch(last.relop, "__void__")
                )
                break
        assert "CFG004" in codes(sanitize_function(gcd, mode=FAST))

    def test_retarget_branch_into_another_function(self):
        program = compile_source(GCD_SRC + MAXI_SRC)
        from repro.opt import implicit_cleanup

        gcd = program.functions["gcd"]
        maxi = program.functions["maxi"]
        implicit_cleanup(gcd)
        implicit_cleanup(maxi)
        # A gcd label maxi does not have (gcd has more blocks, so its
        # high labels are unique to it across the shared L* namespace).
        own = {block.label for block in maxi.blocks}
        foreign = next(
            block.label for block in gcd.blocks if block.label not in own
        )
        for block in maxi.blocks:
            last = block.insts[-1] if block.insts else None
            if isinstance(last, CondBranch):
                block.insts[-1] = CondBranch(last.relop, foreign)
                break
        found = codes(sanitize_function(maxi, program=program, mode=FAST))
        assert "CFG008" in found
        # Without program context the same defect reads as CFG004.
        assert "CFG004" in codes(sanitize_function(maxi, mode=FAST))

    def test_duplicate_block_labels(self, gcd):
        gcd.blocks[1].label = gcd.blocks[0].label
        assert "CFG002" in codes(sanitize_function(gcd, mode=FAST))

    def test_transfer_mid_block(self, gcd):
        target = gcd.blocks[-1].label
        gcd.blocks[0].insts.insert(0, Jump(target))
        assert "CFG003" in codes(sanitize_function(gcd, mode=FAST))

    def test_fallthrough_off_the_end(self, square):
        square.blocks[-1].insts.pop()  # drop the Return
        assert "CFG005" in codes(sanitize_function(square, mode=FAST))


class TestMachineMutations:
    def test_widened_operand(self, square):
        wide = DEFAULT_TARGET.alu_imm_limit * 16
        reg = Reg(square.next_pseudo - 1, pseudo=True)
        square.blocks[0].insts.insert(
            1, Assign(reg, BinOp("add", reg, Const(wide)))
        )
        found = codes(sanitize_function(square, DEFAULT_TARGET, mode=FAST))
        assert "MACH002" in found
        assert "MACH001" not in found

    def test_hardware_register_outside_file(self, square):
        square.blocks[0].insts.insert(
            0, Assign(Reg(99, pseudo=False), Const(1))
        )
        assert "MACH003" in codes(sanitize_function(square, mode=FAST))

    def test_pseudo_after_assignment(self, square):
        BatchCompiler().compile(square)
        assert square.reg_assigned
        square.blocks[0].insts.insert(
            0, Assign(Reg(7, pseudo=True), Const(1))
        )
        assert "MACH004" in codes(sanitize_function(square, mode=FAST))

    def test_never_allocated_pseudo(self, square):
        bogus = square.next_pseudo + 10
        square.blocks[0].insts.insert(
            0, Assign(Reg(bogus, pseudo=True), Const(1))
        )
        assert "MACH005" in codes(sanitize_function(square, mode=FAST))


class TestFrameMutations:
    def test_slot_outside_frame(self, square):
        square.frame["bad"] = LocalSlot(
            "bad", square.frame_size, 1, "int", False, False
        )
        assert "FRAME001" in codes(sanitize_function(square, mode=FAST))

    def test_overlapping_slots(self, square):
        square.frame["x"] = LocalSlot("x", 0, 2, "int", False, False)
        square.frame["y"] = LocalSlot("y", 4, 1, "int", False, False)
        square.frame_size = max(square.frame_size, 8)
        assert "FRAME002" in codes(sanitize_function(square, mode=FAST))


class TestDataflowMutations:
    def test_dropped_def(self, gcd):
        """Deleting the defining assignment of a later-used register
        must surface as a use-before-def."""
        dropped = None
        for block in gcd.blocks:
            for index, inst in enumerate(block.insts):
                if not isinstance(inst, Assign):
                    continue
                defs = inst.defs()
                if len(defs) == 1 and next(iter(defs)).pseudo:
                    dropped = (block, index)
                    break
            if dropped:
                break
        assert dropped is not None
        block, index = dropped
        del block.insts[index]
        found = codes(sanitize_function(gcd, mode=FULL))
        assert "DFA001" in found or "CC001" in found

    def test_condbranch_with_unset_cc(self, gcd):
        # Delete the Compare feeding a conditional branch: the cc is
        # garbage on every path into the branch.
        removed = False
        for block in gcd.blocks:
            if block.insts and isinstance(block.insts[-1], CondBranch):
                for index, inst in enumerate(block.insts):
                    if isinstance(inst, Compare):
                        del block.insts[index]
                        removed = True
                        break
            if removed:
                break
        assert removed
        assert "DFA002" in codes(sanitize_function(gcd, mode=FULL))

    def test_return_value_maybe_uninitialized(self):
        # Zero-argument function: in square/gcd the return-value
        # register doubles as the first argument register, so it is
        # defined at entry and the mutation would be masked.
        func = compile_fn("int five() { int a; a = 5; return a; }", "five")
        assert func.returns_value
        rv = Reg(0, pseudo=False)
        for block in func.blocks:
            block.insts = [
                inst
                for inst in block.insts
                if not (isinstance(inst, Assign) and inst.dst == rv)
            ]
        assert "CC002" in codes(sanitize_function(func, mode=FULL))

    def test_call_arity_mismatch(self):
        program = compile_source(
            MAXI_SRC + "int two(void) { return maxi(1, 2); }"
        )
        from repro.ir.instructions import Call

        two = program.functions["two"]
        for block in two.blocks:
            for index, inst in enumerate(block.insts):
                if isinstance(inst, Call):
                    block.insts[index] = Call(inst.name, 1)
        found = codes(sanitize_function(two, program=program, mode=FAST))
        assert "CC004" in found

    def test_call_to_unknown_function(self):
        program = compile_source(MAXI_SRC)
        from repro.ir.instructions import Call

        maxi = program.functions["maxi"]
        maxi.blocks[0].insts.insert(0, Call("__missing__", 0))
        found = codes(sanitize_function(maxi, program=program, mode=FAST))
        assert "CC003" in found


class TestContractMutations:
    def test_registry_is_complete_and_consistent(self):
        assert validate_contracts() == []
        assert len(contract_registry()) == 17

    def test_illegal_phase_order(self, square):
        """Register allocation before instruction selection violates
        regalloc's requires clause."""
        contract = contract_for("k")
        assert "selection-done" in contract.requires
        before = square.clone()
        assert not before.sel_applied
        after = square.clone()
        violations = check_contract("k", before, after)
        assert violations
        found = {v.code for v in violations}
        assert "CON001" in found
        assert any(
            v.code == "CON001" and "selection-done" in v.detail
            for v in violations
        )

    def test_broken_establishes(self, square):
        """The compulsory assignment pass must leave no pseudo
        registers; an ``after`` that still has them violates CON002."""
        before = square.clone()
        after = square.clone()
        after.reg_assigned = True  # claims assignment ran ...
        # ... but pseudo registers survive in the body (unchanged).
        violations = check_contract("assign", before, after)
        assert "CON002" in {v.code for v in violations}

    def test_monotone_invariant_broken(self, square):
        """No phase may silently retract registers-assigned."""
        BatchCompiler().compile(square)
        before = square.clone()
        after = square.clone()
        after.reg_assigned = False
        violations = check_contract("u", before, after)
        assert "CON003" in {v.code for v in violations}


class TestGuardIntegration:
    def test_sanitizer_quarantines_corrupted_phase(self, gcd):
        """A phase whose output drops a def must be quarantined with
        kind 'sanitizer', and the parent left untouched."""
        from repro.ir.flat import DEF_RID, KIND, K_ASSIGN, REG_OBJS
        from repro.opt import Phase

        class _Corrupting(Phase):
            id = "u"
            name = "corrupting stand-in"

            def __init__(self):
                self.fired = False

            def run(self, flat, target):
                if self.fired:
                    return False
                for block in flat.blocks:
                    for index, iid in enumerate(block):
                        if KIND[iid] == K_ASSIGN and REG_OBJS[DEF_RID[iid]].pseudo:
                            del block[index]
                            flat.invalidate_analyses()
                            self.fired = True
                            return True
                return False

        checker = EdgeChecker(mode=FULL)
        runner = GuardedPhaseRunner(validate=False, sanitizer=checker)
        flat = to_flat(gcd)
        before_blocks = [list(block) for block in flat.blocks]
        assert runner.apply(flat, _Corrupting()) is None
        assert len(runner.quarantine) == 1
        record = runner.quarantine.records[0]
        assert record.kind == "sanitizer"
        assert checker.counters["findings"] >= 1
        # The parent instance is never mutated.
        assert flat.blocks == before_blocks

    def test_clean_phase_passes_through(self, gcd):
        checker = EdgeChecker(mode=FULL)
        runner = GuardedPhaseRunner(validate=True, sanitizer=checker)
        applied = 0
        flat = to_flat(gcd)
        for phase_id in "sckshu":
            candidate = runner.apply(flat, phase_by_id(phase_id))
            if candidate is not None:
                applied += 1
                flat = candidate
        assert applied > 0
        assert len(runner.quarantine) == 0
        assert checker.counters["edges"] == applied
        assert checker.counters["findings"] == 0
        assert checker.counters["contract_violations"] == 0


class TestTranslationValidator:
    def test_inverted_relop_is_refuted(self):
        from repro.staticanalysis.transval import TranslationValidator

        program = compile_source(MAXI_SRC)
        from repro.opt import implicit_cleanup

        maxi = program.functions["maxi"]
        implicit_cleanup(maxi)
        corrupted = maxi.clone()
        _INVERT = {
            "lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
            "eq": "ne", "ne": "eq",
        }
        for block in corrupted.blocks:
            for index, inst in enumerate(block.insts):
                if isinstance(inst, CondBranch):
                    block.insts[index] = CondBranch(
                        _INVERT[inst.relop], inst.target
                    )
        validator = TranslationValidator(program, "maxi")
        verdict = validator.classify(to_flat(maxi), to_flat(corrupted))
        assert verdict.status == "refuted"

    def test_identity_edge_is_proved(self):
        from repro.staticanalysis.transval import TranslationValidator

        program = compile_source(MAXI_SRC)
        maxi = program.functions["maxi"]
        verdict = TranslationValidator(program, "maxi").classify(
            to_flat(maxi), to_flat(maxi.clone())
        )
        assert verdict.status == "proved"

    def test_real_phase_edge_verifies(self):
        from repro.staticanalysis.transval import TranslationValidator

        program = compile_source(GCD_SRC)
        from repro.opt import implicit_cleanup

        gcd = program.functions["gcd"]
        implicit_cleanup(gcd)
        before = gcd.clone()
        assert apply_phase(gcd, phase_by_id("s"))
        verdict = TranslationValidator(program, "gcd").classify(
            to_flat(before), to_flat(gcd)
        )
        assert verdict.status in ("proved", "tested")
