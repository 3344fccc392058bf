"""EdgeChecker: the guard-facing bundle of all three static layers.

One instance rides inside a :class:`GuardedPhaseRunner` for a whole
enumeration.  After every *active* phase application the guard hands
it the flat parent and the flat candidate; :meth:`check_edge` runs, in
order (steps 0 and 1 read the candidate alone: they are
:meth:`candidate_verdict`, which the guard runs once per distinct
candidate and keeps in its record):

0. when the guard validates too (``--validate``), the IR validation
   verdict, taken from the same battery run (quarantine kind
   ``validation``, with :func:`repro.ir.validate.check_ir`'s text);
1. the IR sanitizer over the candidate (quarantine kind
   ``sanitizer``);
2. the phase contract across the edge (kind ``contract``);
3. in ``full`` mode, the translation validator — a ``refuted`` verdict
   quarantines under the existing ``semantics`` kind, the same bucket
   the VM difftester uses.

Every check reads the flat IR: memoized per-instruction and per-block
facts plus the cached flat CFG and liveness of both sides, so a clean
fast-mode edge, and a full-mode edge the validator proves, builds no
object view.  Only VM co-execution (an edge the prover cannot match)
converts, with ``from_flat``.

The checker is purely observational on healthy code: it never mutates
either function, so enumerated DAGs are bit-identical with it on or
off.  Per-check counters accumulate on the instance and surface through
the ``sanitize_stats`` observability event.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.flat import FlatFunction
from repro.ir.function import Program
from repro.ir.validate import IRValidationError, problems_of
from repro.machine.target import DEFAULT_TARGET, Target
from repro.staticanalysis import contracts as contracts_mod
from repro.staticanalysis import sanitize as sanitize_mod
from repro.staticanalysis.transval import (
    REFUTED,
    TranslationValidator,
)

_DETAIL_FINDINGS = 3  # findings quoted in a quarantine detail string


def _summary(findings) -> str:
    shown = "; ".join(str(finding) for finding in findings[:_DETAIL_FINDINGS])
    extra = len(findings) - _DETAIL_FINDINGS
    if extra > 0:
        shown += f" (+{extra} more)"
    return shown


class EdgeChecker:
    """Sanitizer + contract checker + translation validator for edges."""

    def __init__(
        self,
        mode: str = sanitize_mod.FAST,
        target: Optional[Target] = None,
        program: Optional[Program] = None,
        entry: Optional[str] = None,
    ):
        if mode not in sanitize_mod.MODES:
            raise ValueError(
                f"unknown sanitizer mode {mode!r} (expected fast|full)"
            )
        self.mode = mode
        self.target = target or DEFAULT_TARGET
        self.program = program
        self.transval: Optional[TranslationValidator] = None
        if mode == sanitize_mod.FULL:
            self.transval = TranslationValidator(program, entry)
        #: last full-mode verdict status, for callers that label edges
        self.last_verdict: Optional[str] = None
        self.counters: Dict[str, int] = {
            "edges": 0,
            "findings": 0,
            "contract_violations": 0,
            "proved": 0,
            "tested": 0,
            "unverified": 0,
            "refuted": 0,
        }

    # ------------------------------------------------------------------

    def candidate_verdict(
        self, after: FlatFunction, validate: bool = False
    ) -> Tuple[bool, tuple]:
        """The checks that read the candidate alone, which the guard
        keeps per distinct candidate: ``(pseudo_free, failure)``.

        *pseudo_free* says whether *after* names no pseudo register (the
        contract check reads it).  *failure* is ``()`` when the battery
        is clean, ``("validation", detail)`` when *validate* finds a
        problem, else ``("sanitizer", detail, number of findings)``.
        With *validate* the battery first runs without program context,
        as :func:`repro.ir.validate.check_ir` would; the program-context
        call checks follow on a clean result.
        """
        program = self.program
        pseudo_free = self.pseudo_free(after, self.target)
        if validate:
            findings = sanitize_mod.fast_findings(after, self.target)
            if findings:
                detail = str(IRValidationError(after.name, problems_of(findings)))
                return pseudo_free, ("validation", detail)
            if program is not None:
                findings = sanitize_mod.call_findings(after, program)
        else:
            findings = sanitize_mod.fast_findings(after, self.target, program)
        if self.mode == sanitize_mod.FULL and not sanitize_mod.structural_failure(
            findings
        ):
            findings.extend(sanitize_mod.full_findings(after, program))
        if findings:
            return pseudo_free, ("sanitizer", _summary(findings), len(findings))
        return pseudo_free, ()

    @staticmethod
    def pseudo_free(flat: FlatFunction, target: Optional[Target] = None) -> bool:
        """Whether *flat* names no pseudo register."""
        return not sanitize_mod.has_pseudo_registers(flat, target)

    def check_edge(
        self,
        before: FlatFunction,
        after: FlatFunction,
        phase,
        validate: bool = False,
        verdict: Optional[Tuple[bool, tuple]] = None,
        before_pseudo_free: Optional[bool] = None,
    ) -> Optional[Tuple[str, str]]:
        """Verify one applied edge; return ``(quarantine_kind,
        detail)`` on failure, None when the edge is clean.

        *verdict* is :meth:`candidate_verdict` of *after*, run here when
        not given; *before_pseudo_free* is whether *before* names no
        pseudo register, read by the contract check when not given.  A
        validation failure is not counted as a checked edge.
        """
        if verdict is None:
            verdict = self.candidate_verdict(after, validate)
        pseudo_free, failure = verdict
        if failure and failure[0] == "validation":
            return failure
        self.counters["edges"] += 1
        self.last_verdict = None
        if failure:
            kind, detail, count = failure
            self.counters["findings"] += count
            return kind, detail
        violations = contracts_mod.check_contract(
            phase.id, before, after, (before_pseudo_free, pseudo_free)
        )
        if violations:
            self.counters["contract_violations"] += len(violations)
            return "contract", _summary(violations)
        if self.transval is not None:
            outcome = self.transval.classify(before, after)
            self.counters[outcome.status] += 1
            self.last_verdict = outcome.status
            if outcome.status == REFUTED:
                return "semantics", f"translation validator: {outcome.detail}"
        return None

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for the ``sanitize_stats`` event."""
        return dict(self.counters)
