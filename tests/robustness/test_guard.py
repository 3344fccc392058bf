"""Tests for the guarded phase runner and differential tester.

The guard attempts phases on a clone of a flat parent and returns the
candidate or ``None``; the parent is never mutated.  The custom phases
below are flat phases, like every phase.
"""

import time

import pytest

from repro.core.batch import BatchCompiler
from repro.core.fingerprint import fingerprint_function
from repro.frontend import compile_source
from repro.ir.flat import INST_OBJS, KIND, K_ASSIGN, from_flat, intern_inst, to_flat
from repro.analysis import set_paranoid
from repro.ir.instructions import Assign, Jump
from repro.ir.operands import Const, Reg
from repro.opt import implicit_cleanup
from repro.opt.base import Phase
from repro.robustness import guard as guard_mod
from repro.robustness.faults import FaultInjector
from repro.robustness.guard import (
    DifferentialTester,
    GuardedPhaseRunner,
    default_vectors,
)
from repro.staticanalysis.checker import EdgeChecker
from repro.robustness.quarantine import QuarantineLog, QuarantineRecord
from tests.conftest import MAXI_SRC, compile_fn, on_object

FIVE_SRC = "int five(void) { return 5; }"


class _RaisingPhase(Phase):
    id = "b"
    name = "raises"

    def run(self, func, target):
        raise ValueError("phase exploded")


class _HangingPhase(Phase):
    id = "b"
    name = "hangs"

    def run(self, func, target):
        time.sleep(10.0)
        return False


class _ConstTweakPhase(Phase):
    """Changes observable semantics while keeping the IR well-formed."""

    id = "b"
    name = "const tweak"

    def __init__(self):
        self.fired = False

    def run(self, flat, target):
        if self.fired:
            return False
        for block in flat.blocks:
            for i, iid in enumerate(block):
                inst = INST_OBJS[iid]
                if KIND[iid] == K_ASSIGN and isinstance(inst.src, Const):
                    block[i] = intern_inst(
                        Assign(inst.dst, Const(inst.src.value + 1))
                    )
                    flat.invalidate_analyses()
                    self.fired = True
                    return True
        return False


class _WildRegisterPhase(Phase):
    """Writes a hardware register outside the register file at the
    entry, the same way on every run (MACH003)."""

    id = "b"
    name = "wild register"

    def run(self, flat, target):
        wild = intern_inst(Assign(Reg(99), Const(0)))
        if flat.blocks[0][:1] == [wild]:
            return False
        flat.blocks[0].insert(0, wild)
        flat.invalidate_analyses()
        return True


class _SetConstPhase(Phase):
    """Sets the first constant assignment to 42, the same way on every
    run: well-formed IR with other semantics."""

    id = "b"
    name = "set const"

    def run(self, flat, target):
        for block in flat.blocks:
            for i, iid in enumerate(block):
                inst = INST_OBJS[iid]
                if KIND[iid] == K_ASSIGN and isinstance(inst.src, Const):
                    if inst.src.value == 42:
                        return False
                    block[i] = intern_inst(Assign(inst.dst, Const(42)))
                    flat.invalidate_analyses()
                    return True
        return False


def _fp(flat):
    return fingerprint_function(from_flat(flat)).key


@pytest.fixture
def maxi_flat(maxi_func):
    return to_flat(maxi_func)


class TestExceptionContainment:
    def test_raising_phase_is_quarantined(self, maxi_flat):
        guard = GuardedPhaseRunner()
        before = _fp(maxi_flat)
        assert guard.apply(maxi_flat, _RaisingPhase()) is None
        assert _fp(maxi_flat) == before  # never mutated
        assert len(guard.quarantine) == 1
        record = guard.quarantine.records[0]
        assert record.kind == "exception"
        assert "ValueError" in record.detail

    def test_control_exceptions_propagate(self, maxi_flat):
        class _Interrupting(Phase):
            id = "b"
            name = "interrupts"

            def run(self, func, target):
                raise KeyboardInterrupt

        guard = GuardedPhaseRunner()
        with pytest.raises(KeyboardInterrupt):
            guard.apply(maxi_flat, _Interrupting())
        assert len(guard.quarantine) == 0


class TestTimeouts:
    def test_hanging_phase_is_quarantined(self, maxi_flat):
        guard = GuardedPhaseRunner(phase_timeout=0.1)
        before = _fp(maxi_flat)
        start = time.perf_counter()
        assert guard.apply(maxi_flat, _HangingPhase()) is None
        assert time.perf_counter() - start < 5.0
        assert _fp(maxi_flat) == before
        assert guard.quarantine.records[0].kind == "timeout"


class TestInjectedFaults:
    def test_injected_raise(self, maxi_flat):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts={1})
        )
        before = _fp(maxi_flat)
        assert guard.apply(maxi_flat, phase_by_id("b")) is None
        assert _fp(maxi_flat) == before
        assert guard.quarantine.records[0].kind == "exception"

    def test_injected_corruption_caught_even_without_validate(self, maxi_flat):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            validate=False,
            fault_injector=FaultInjector(modes=("corrupt",), attempts={1}),
        )
        before = _fp(maxi_flat)
        assert guard.apply(maxi_flat, phase_by_id("b")) is None
        assert _fp(maxi_flat) == before
        record = guard.quarantine.records[0]
        assert record.kind == "validation"
        assert record.diff is not None

    def test_injected_hang_hits_the_alarm(self, maxi_flat):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            phase_timeout=0.1,
            fault_injector=FaultInjector(
                modes=("hang",), attempts={1}, hang_seconds=5.0
            ),
        )
        start = time.perf_counter()
        assert guard.apply(maxi_flat, phase_by_id("b")) is None
        assert time.perf_counter() - start < 5.0
        assert guard.quarantine.records[0].kind == "timeout"

    def test_uninjected_applications_work_normally(self, maxi_flat):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts=set())
        )
        # maxi has at least one active phase from the start
        changed = any(
            guard.apply(maxi_flat, phase_by_id(pid)) is not None
            for pid in "bsiu"
        )
        assert changed
        assert len(guard.quarantine) == 0


class TestDifferentialTesting:
    def test_semantics_change_is_quarantined(self):
        program = compile_source(FIVE_SRC)
        func = program.functions["five"]
        from repro.opt import implicit_cleanup

        implicit_cleanup(func)
        tester = DifferentialTester(program, "five", default_vectors(func))
        guard = GuardedPhaseRunner(difftest=tester)
        flat = to_flat(func)
        before = _fp(flat)
        assert guard.apply(flat, _ConstTweakPhase()) is None
        assert _fp(flat) == before
        record = guard.quarantine.records[0]
        assert record.kind == "semantics"
        assert "expected" in record.detail

    def test_honest_phases_pass_difftest(self, maxi_func):
        from repro.opt import phase_by_id

        program = compile_source(MAXI_SRC)
        tester = DifferentialTester(
            program, "maxi", default_vectors(program.functions["maxi"])
        )
        guard = GuardedPhaseRunner(difftest=tester)
        flat = to_flat(compile_fn(MAXI_SRC, "maxi"))
        for pid in "bsiukch":
            flat = guard.apply(flat, phase_by_id(pid)) or flat
        assert len(guard.quarantine) == 0

    def test_check_reports_mismatch_directly(self):
        program = compile_source(FIVE_SRC)
        func = program.functions["five"]
        from repro.opt import implicit_cleanup

        implicit_cleanup(func)
        tester = DifferentialTester(program, "five", default_vectors(func))
        assert tester.check(func.clone()) is None
        tweaked = func.clone()
        assert on_object(_ConstTweakPhase().run)(tweaked, None)
        assert "expected" in tester.check(tweaked)

    def test_dangling_branch_is_a_candidate_crash(self):
        # a branch to a label the function lacks is a VMError, so the
        # tester reports a crash instead of letting a KeyError escape
        program = compile_source(MAXI_SRC)
        func = program.functions["maxi"]
        tester = DifferentialTester(program, "maxi", default_vectors(func))
        dangling = func.clone()
        block = next(b for b in dangling.blocks if b.insts and b.insts[-1].is_transfer)
        block.insts[-1] = Jump("Lnowhere")
        mismatch = tester.check(dangling)
        assert "candidate crashed" in mismatch
        assert "branch to unknown label 'Lnowhere'" in mismatch

    def test_default_vectors_cover_arity(self, maxi_func):
        # the frontend leaves params empty; the arity is the declared
        # one (maxi takes two ints)
        vectors = default_vectors(maxi_func)
        assert vectors == ((0, 0), (1, 1), (2, 3))
        program = compile_source(FIVE_SRC)
        assert default_vectors(program.functions["five"]) == ((),)


class TestRestoreFunction:
    def test_restore_roundtrip(self, gcd_func):
        # writing a flat snapshot back in place restores the function
        # (how the one-off adapters commit a flat result)
        from repro.opt import apply_phase, phase_by_id

        snapshot = to_flat(gcd_func)
        before = _fp(snapshot)
        assert apply_phase(gcd_func, phase_by_id("s"))
        assert _fp(to_flat(gcd_func)) != before
        from_flat(snapshot, into=gcd_func)
        assert _fp(to_flat(gcd_func)) == before
        assert not gcd_func.sel_applied


class TestGuardedCompilers:
    def test_batch_compiler_counts_quarantined(self, maxi_func):
        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts={1, 3})
        )
        report = BatchCompiler(guard=guard).compile(maxi_func)
        assert report.quarantined == 2
        assert len(guard.quarantine) == 2

    def test_unguarded_report_defaults_to_zero(self, maxi_func):
        report = BatchCompiler().compile(maxi_func)
        assert report.quarantined == 0

    def test_probabilistic_compiler_survives_faults(
        self, maxi_func, small_interactions
    ):
        from repro.core.probabilistic import ProbabilisticCompiler

        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts={1, 2})
        )
        report = ProbabilisticCompiler(
            small_interactions, guard=guard
        ).compile(maxi_func)
        assert report.quarantined == 2
        assert report.code_size > 0


class TestQuarantineLog:
    def test_report_counts_by_kind_and_phase(self):
        log = QuarantineLog()
        log.add(QuarantineRecord("b", "exception", "boom"))
        log.add(QuarantineRecord("b", "validation", "bad ir"))
        log.add(QuarantineRecord("s", "exception", "boom"))
        assert log.by_kind() == {"exception": 2, "validation": 1}
        assert log.by_phase() == {"b": 2, "s": 1}
        report = log.format_report()
        assert "3 phase application(s) rejected" in report
        assert "exception: 2" in report

    def test_empty_report(self):
        assert "no phase applications" in QuarantineLog().format_report()

    def test_dict_roundtrip(self):
        log = QuarantineLog()
        log.add(QuarantineRecord("b", "timeout", "slow", "node#3", 2, "diff"))
        restored = QuarantineLog.from_dicts(log.to_dicts())
        record = restored.records[0]
        assert (record.phase_id, record.kind, record.detail) == ("b", "timeout", "slow")
        assert (record.node_key, record.level, record.diff) == ("node#3", 2, "diff")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="bad quarantine kind"):
            QuarantineRecord("b", "meltdown", "oops")


class TestCooperativeDeadline:
    """The timeout policy off the main thread, where SIGALRM cannot be
    armed: the phase runs unsupervised but its result is rejected and
    quarantined after the fact."""

    @staticmethod
    def _apply_in_thread(guard, func, phase):
        import threading

        outcome = {}

        def target():
            outcome["candidate"] = guard.apply(func, phase)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        return outcome["candidate"]

    def test_slow_phase_rejected_off_main_thread(self):
        class _SlowConstTweak(_ConstTweakPhase):
            def run(self, func, target):
                time.sleep(0.2)
                return super().run(func, target)

        flat = to_flat(compile_fn(FIVE_SRC, "five"))
        guard = GuardedPhaseRunner(phase_timeout=0.05)
        before = _fp(flat)
        candidate = self._apply_in_thread(guard, flat, _SlowConstTweak())
        assert candidate is None  # rejected despite "success"
        assert _fp(flat) == before
        record = guard.quarantine.records[0]
        assert record.kind == "timeout"
        assert "cooperative" in record.detail

    def test_slow_dormant_phase_also_counts(self, maxi_flat):
        class _SlowDormant(Phase):
            id = "b"
            name = "slow and dormant"

            def run(self, func, target):
                time.sleep(0.2)
                return False

        guard = GuardedPhaseRunner(phase_timeout=0.05)
        candidate = self._apply_in_thread(guard, maxi_flat, _SlowDormant())
        assert candidate is None
        assert guard.quarantine.records[0].kind == "timeout"

    def test_fast_phase_passes_off_main_thread(self, maxi_flat):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(phase_timeout=5.0)
        self._apply_in_thread(guard, maxi_flat, phase_by_id("b"))
        assert len(guard.quarantine) == 0


def _five():
    program = compile_source(FIVE_SRC)
    implicit_cleanup(program.functions["five"])
    return program, program.functions["five"]


class TestVerdictRecord:
    """The guard checks each distinct candidate once per run; every
    edge still gets its own quarantine record and counters."""

    @staticmethod
    def _guard(check, calls, monkeypatch):
        """A guard running *check* alone, counting its check runs."""

        def counted(real):
            def run(*args):
                calls.append(1)
                return real(*args)

            return run

        if check == "sanitizer":
            checker = EdgeChecker()
            monkeypatch.setattr(
                checker, "candidate_verdict", counted(checker.candidate_verdict)
            )
            return GuardedPhaseRunner(validate=False, sanitizer=checker)
        if check == "validation":
            validate_ir = counted(guard_mod.validate_ir)
            monkeypatch.setattr(guard_mod, "validate_ir", validate_ir)
            return GuardedPhaseRunner(validate=True)
        program, func = _five()
        tester = DifferentialTester(program, "five", default_vectors(func))
        monkeypatch.setattr(tester, "check", counted(tester.check))
        return GuardedPhaseRunner(validate=False, difftest=tester)

    @pytest.mark.parametrize("check", ["sanitizer", "validation", "semantics"])
    def test_a_repeated_broken_candidate_is_checked_once(self, check, monkeypatch):
        calls = []
        guard = self._guard(check, calls, monkeypatch)
        if check == "semantics":
            flat, phase = to_flat(_five()[1]), _SetConstPhase()
        else:
            flat, phase = to_flat(compile_fn(MAXI_SRC, "maxi")), _WildRegisterPhase()
        assert guard.apply(flat, phase) is None
        assert guard.apply(flat, phase) is None
        first, second = guard.quarantine.records
        assert first.kind == check
        assert (second.kind, second.detail, second.diff) == (
            first.kind,
            first.detail,
            first.diff,
        )
        assert len(calls) == len(guard.verdicts) == 1
        if check == "sanitizer":
            stats = guard.sanitizer.stats()
            per_edge = guard.verdicts.popitem()[1].failure[2]
            assert per_edge > 0
            assert (stats["edges"], stats["findings"]) == (2, 2 * per_edge)

    @pytest.mark.parametrize("check", ["validation", "semantics"])
    def test_paranoid_mode_catches_a_planted_verdict(self, check, monkeypatch):
        guard = self._guard(check, [], monkeypatch)
        if check == "semantics":
            flat, phase = to_flat(_five()[1]), _SetConstPhase()
            clean = {"mismatch": None}
        else:
            flat, phase = to_flat(compile_fn(MAXI_SRC, "maxi")), _WildRegisterPhase()
            clean = {"failure": ()}
        assert guard.apply(flat, phase) is None
        # plant "clean" over the broken candidate's verdict
        ((key, entry),) = guard.verdicts.items()
        guard.verdicts[key] = entry._replace(**clean)
        previous = set_paranoid(True)
        try:
            assert guard.apply(flat, phase) is None
        finally:
            set_paranoid(previous)
        record = guard.quarantine.records[1]
        assert record.kind == check
        assert "stale cached guard verdict for" in record.detail
        # unchecked, the planted entry is trusted
        assert guard.apply(flat, phase) is not None

    def test_an_equal_frame_copy_or_another_next_pseudo_is_a_miss(
        self, maxi_flat, monkeypatch
    ):
        calls = []
        guard = self._guard("validation", calls, monkeypatch)
        phase = _WildRegisterPhase()
        copied = maxi_flat.clone()
        copied.frame = dict(maxi_flat.frame)
        renumbered = maxi_flat.clone()
        renumbered.next_pseudo += 1
        for parent in (maxi_flat, maxi_flat, copied, renumbered):
            assert guard.apply(parent, phase) is None
        # one content: each miss's verdicts replace the entry
        assert len(calls) == 3
        assert len(guard.verdicts) == 1
        details = {record.detail for record in guard.quarantine.records}
        assert len(details) == 1

    def test_no_alarm_without_a_timeout(self, maxi_flat, monkeypatch):
        def refuse(seconds):
            raise AssertionError("alarm entered without a timeout")

        monkeypatch.setattr(guard_mod, "_phase_alarm", refuse)
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner()
        assert any(guard.apply(maxi_flat, phase_by_id(pid)) for pid in "bsiu")
