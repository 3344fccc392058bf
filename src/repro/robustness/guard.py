"""The guarded phase application hot path.

:class:`GuardedPhaseRunner` wraps :func:`repro.opt.attempt_phase_on_flat`
with a set of runtime defenses so one buggy (or sabotaged) phase
application cannot abort a long enumeration or poison the space DAG.
The phase runs on a clone of the flat parent, and the checks read the
flat parent and candidate; object views (``from_flat``) are built only
for a rejected edge's quarantine excerpt, the VM difftester, an
injected fault and (inside the checker) full mode's object-IR checks:

1. **Exception containment** — a phase that raises is caught and the
   attempt is recorded.
2. **IR validation** — the output of an active phase must pass
   :func:`repro.ir.validate.validate_ir` (structure, machine legality,
   register discipline, frame consistency); with a static checker
   attached, its :meth:`~repro.staticanalysis.checker.EdgeChecker.check_edge`
   delivers the same verdict from the one battery run it makes.
3. **Differential semantics testing** — optionally, the candidate is
   executed in the VM interpreter against recorded input vectors and
   its observable results compared with the unoptimized reference
   (the lightweight equivalence guard of "Beyond the Phase Ordering
   Problem").
4. **Per-phase timeout** — a ``SIGALRM``-based watchdog interrupts a
   phase that runs past ``phase_timeout`` seconds (main thread only;
   elsewhere the watchdog degrades to no timeout).

On any failure the runner drops the candidate (the parent was never
mutated), appends a
:class:`~repro.robustness.quarantine.QuarantineRecord`, and reports the
phase as dormant, so the caller — enumerator or compiler — simply
continues.  A seeded :class:`~repro.robustness.faults.FaultInjector`
can be attached to exercise each of these paths deterministically.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from repro.analysis.reaching import declared_arity
from repro.ir.flat import FlatFunction, from_flat, to_flat
from repro.ir.function import Function, Program
from repro.ir.validate import IRValidationError, validate_ir
from repro.machine.target import DEFAULT_TARGET, Target
from repro.observability import tracer as _obs
from repro.opt import Phase, attempt_phase_on_flat
from repro.robustness.faults import FaultInjector, InjectedFault
from repro.robustness.quarantine import QuarantineLog, QuarantineRecord
from repro.vm import Interpreter, VMError


class PhaseTimeout(Exception):
    """A phase application exceeded the guard's time budget."""


def _alarm_available() -> bool:
    """Whether the preemptive SIGALRM watchdog can be armed here:
    signal handlers can only be installed on the main thread, and only
    on platforms that have SIGALRM."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _phase_alarm(seconds: Optional[float]):
    """Interrupt the enclosed block after *seconds* via SIGALRM.

    A no-op when no timeout is configured or the alarm cannot be armed
    (see :func:`_alarm_available`); callers that need a timeout off the
    main thread rely on the runner's cooperative deadline check
    instead.
    """
    if seconds is None or not _alarm_available():
        yield
        return

    def _handler(signum, frame):
        raise PhaseTimeout(f"phase application exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def default_vectors(func: Function) -> Tuple[Tuple[int, ...], ...]:
    """Small deterministic argument vectors for differential testing,
    one argument per declared parameter."""
    arity = declared_arity(func)
    if arity == 0:
        return ((),)
    primes = (2, 3, 5, 7)
    return (
        (0,) * arity,
        (1,) * arity,
        tuple(primes[i % len(primes)] for i in range(arity)),
    )


class DifferentialTester:
    """Compare a candidate instance's behaviour against the reference.

    The reference outputs are computed once, lazily, by running the
    unoptimized entry function — snapshotted at construction, so later
    in-place mutation of the program cannot poison the reference; each
    candidate is then spliced into a shallow program copy and executed
    on the same input vectors.  Vectors whose reference execution
    itself fails are skipped (nothing to compare).
    """

    def __init__(
        self,
        program: Program,
        entry: str,
        vectors: Sequence[Sequence[int]],
        fuel: int = 2_000_000,
    ):
        self.program = program
        self.entry = entry
        self.vectors = [tuple(vector) for vector in vectors]
        self.fuel = fuel
        self._pristine_entry: Optional[Function] = (
            program.functions[entry].clone()
            if entry in program.functions
            else None
        )
        self._reference: Optional[List[Tuple[Tuple[int, ...], object]]] = None

    def _compute_reference(self) -> List[Tuple[Tuple[int, ...], object]]:
        if self._reference is None:
            pristine = Program()
            pristine.globals = self.program.globals
            pristine.functions = dict(self.program.functions)
            if self._pristine_entry is not None:
                pristine.functions[self.entry] = self._pristine_entry
            reference = []
            for vector in self.vectors:
                try:
                    value = Interpreter(pristine, fuel=self.fuel).run(
                        self.entry, vector
                    ).value
                except VMError:
                    continue
                reference.append((vector, value))
            self._reference = reference
        return self._reference

    def check(self, candidate: Function) -> Optional[str]:
        """Return a mismatch description, or None when behaviour agrees."""
        spliced = Program()
        spliced.globals = self.program.globals
        spliced.functions = dict(self.program.functions)
        spliced.functions[self.entry] = candidate
        for vector, expected in self._compute_reference():
            try:
                value = Interpreter(spliced, fuel=self.fuel).run(
                    self.entry, vector
                ).value
            except VMError as error:
                return f"args={vector}: candidate crashed: {error}"
            if value != expected:
                return f"args={vector}: expected {expected}, got {value}"
        return None


class GuardedPhaseRunner:
    """Apply phases through the full guard stack.

    Drop-in for :func:`repro.opt.attempt_phase_on_flat`:
    ``runner.apply(flat, phase, target)`` returns the active candidate
    or ``None``; *flat* is never mutated, and on any guard failure the
    attempt reads as dormant.
    """

    def __init__(
        self,
        target: Optional[Target] = None,
        validate: bool = True,
        difftest: Optional[DifferentialTester] = None,
        phase_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        quarantine: Optional[QuarantineLog] = None,
        sanitizer=None,
    ):
        self.target = target or DEFAULT_TARGET
        self.validate = validate
        self.difftest = difftest
        self.phase_timeout = phase_timeout
        self.fault_injector = fault_injector
        #: optional :class:`repro.staticanalysis.checker.EdgeChecker`;
        #: checks every active application (validating it too, in the
        #: same battery run, when validation is on)
        self.sanitizer = sanitizer
        self.quarantine = quarantine if quarantine is not None else QuarantineLog()
        #: applications that went through the guard (Table-3 "Attempt"
        #: still counts them; this is the guard's own telemetry)
        self.guarded_applications = 0

    # ------------------------------------------------------------------

    def apply(
        self,
        flat: FlatFunction,
        phase: Phase,
        target: Optional[Target] = None,
        node_key: Optional[str] = None,
        level: Optional[int] = None,
    ) -> Optional[FlatFunction]:
        target = target or self.target
        self.guarded_applications += 1
        injected = (
            self.fault_injector is not None
            and self.fault_injector.should_inject()
        )
        if injected:
            tr = _obs.ACTIVE
            if tr is not None:
                tr.emit(
                    "fault_injected",
                    phase=phase.id,
                    node_key=node_key,
                    level=level,
                )
        started = time.monotonic()
        after: Optional[Function] = None
        try:
            with _phase_alarm(self.phase_timeout):
                if injected:
                    # Sabotage instead of the real application: either
                    # raises, hangs into the alarm, or corrupts a fresh
                    # object view of the parent (and the validation
                    # below must catch it).
                    after = from_flat(flat)
                    self.fault_injector.sabotage(
                        after, phase.id, self.phase_timeout
                    )
                    candidate = None
                else:
                    candidate = attempt_phase_on_flat(flat, phase, target)
        except PhaseTimeout as error:
            self._record(phase, "timeout", str(error), node_key, level)
            return None
        except InjectedFault as error:
            self._record(phase, "exception", str(error), node_key, level)
            return None
        except MemoryError:
            raise
        except Exception as error:
            self._record(
                phase,
                "exception",
                f"{type(error).__name__}: {error}",
                node_key,
                level,
            )
            return None

        # Cooperative deadline: where the SIGALRM watchdog could not be
        # armed (worker threads; platforms without SIGALRM) the phase
        # ran to completion unsupervised, so enforce the budget after
        # the fact — the attempt is quarantined exactly as a preempted
        # one would be.  This cannot unstick a truly hung phase
        # (nothing cooperative can), but it keeps the timeout *policy*
        # identical on and off the main thread.
        if (
            self.phase_timeout is not None
            and not _alarm_available()
            and time.monotonic() - started > self.phase_timeout
        ):
            self._record(
                phase,
                "timeout",
                f"phase application exceeded {self.phase_timeout:g}s "
                "(cooperative deadline; SIGALRM unavailable)",
                node_key,
                level,
            )
            return None

        if after is not None:
            candidate = to_flat(after)
        elif candidate is None:
            return None
        elif not self.validate and self.sanitizer is None and self.difftest is None:
            return candidate

        # The checks read the flat candidate; the parent is never
        # mutated, so a rejected candidate is simply dropped.  An
        # injected corruption must never survive even with validation
        # switched off — the injection harness depends on the validator
        # catching it.
        validate = self.validate or injected
        failure: Optional[Tuple[str, str]] = None
        if self.sanitizer is not None:
            # one battery serves validation and the sanitizer
            try:
                failure = self.sanitizer.check_edge(flat, candidate, phase, validate)
            except MemoryError:
                raise
            except Exception as error:  # checker bug — still contain
                failure = ("sanitizer", f"static checker crashed: {error}")
        elif validate:
            try:
                validate_ir(candidate, target)
            except IRValidationError as error:
                failure = ("validation", str(error))

        if (
            failure is None
            and self.difftest is not None
            and candidate.name == self.difftest.entry
        ):
            try:
                mismatch = self.difftest.check(from_flat(candidate))
            except MemoryError:
                raise
            except Exception as error:  # interpreter bug — still contain
                mismatch = f"differential test crashed: {error}"
            if mismatch is not None:
                failure = ("semantics", mismatch)

        if failure is not None:
            kind, detail = failure
            diff = self._excerpt(flat, candidate)
            self._record(phase, kind, detail, node_key, level, diff)
            return None
        return candidate

    # ------------------------------------------------------------------

    def _record(
        self,
        phase: Phase,
        kind: str,
        detail: str,
        node_key: Optional[str],
        level: Optional[int],
        diff: Optional[str] = None,
    ) -> None:
        self.quarantine.add(
            QuarantineRecord(
                phase_id=phase.id,
                kind=kind,
                detail=detail,
                node_key=node_key,
                level=level,
                diff=diff,
            )
        )
        tr = _obs.ACTIVE
        if tr is not None:
            # Quarantined attempts read as dormant to the caller (and
            # are counted dormant there); this counter and event record
            # *why* separately, without disturbing that accounting.
            tr.phase_outcome(phase.id, "quarantined")
            tr.emit(
                "quarantine",
                phase=phase.id,
                kind=kind,
                detail=detail[:200],
                node_key=node_key,
                level=level,
            )

    @staticmethod
    def _excerpt(before: FlatFunction, after: FlatFunction, limit: int = 12) -> str:
        """A short pre/post RTL excerpt for the quarantine record."""
        from repro.ir.printer import format_function

        before_lines = format_function(from_flat(before)).splitlines()[:limit]
        after_lines = format_function(from_flat(after)).splitlines()[:limit]
        return "--- before\n{}\n--- after\n{}".format(
            "\n".join(before_lines), "\n".join(after_lines)
        )
