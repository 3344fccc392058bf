"""Deep IR well-formedness validation.

Historically this module implemented its own checks; they are now
delegated to the IR sanitizer (:mod:`repro.staticanalysis.sanitize`),
which subsumes them with a per-check diagnostic catalogue
(docs/STATIC_ANALYSIS.md).  The surface here is unchanged — the guard
and a large body of tests call :func:`check_ir`/:func:`validate_ir` —
and the checks cover:

- **CFG consistency** — every branch target is a block label, blocks
  are uniquely labeled, the last block does not fall off the function
  (CFG001–CFG008; with a *program*, a branch into another function's
  label namespace is also rejected).
- **Machine legality** — the VPO invariant: every RTL is a legal
  instruction of the target at all times (MACH001/MACH002).
- **Register discipline under the legality flags** — after the
  compulsory register assignment no pseudo register may remain, and
  every hardware register index must be within the target's register
  file (MACH003–MACH005).
- **No dangling registers** — a register that can be read before any
  definition reaches it (CC001).
- **Frame consistency** — stack slots must not overlap and must lie
  inside ``frame_size`` (FRAME001/FRAME002).

The checks run on the flat IR
(:func:`repro.staticanalysis.sanitize.fast_findings`); :func:`check_ir`
and :func:`validate_ir` accept an object function (converted with
``to_flat``) or a flat one.  The guarded phase runner
(:mod:`repro.robustness.guard`) validates every active application's
flat candidate when validation is enabled — through
:meth:`repro.staticanalysis.checker.EdgeChecker.check_edge` when a
sanitizer rides along, so one battery serves both; tests can call
:func:`validate_ir` directly.  The deeper dataflow checks
(use-before-def, frame-reference bounds) run only in the sanitizer's
``full`` mode — see :func:`repro.staticanalysis.sanitize.sanitize_function`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from repro.ir.function import Function, Program
from repro.machine.target import Target

if TYPE_CHECKING:
    from repro.ir.flat import FlatFunction


class IRValidationError(ValueError):
    """A function instance violates an IR well-formedness invariant."""

    def __init__(self, function_name: str, problems: List[str]):
        self.function_name = function_name
        self.problems = list(problems)
        super().__init__(
            f"{function_name}: " + "; ".join(self.problems)
        )


def check_ir(
    func: Union[Function, "FlatFunction"],
    target: Optional[Target] = None,
    program: Optional[Program] = None,
) -> List[str]:
    """Collect every invariant violation in *func* (empty = valid).

    With a *target*, machine legality is checked too; with a
    *program*, branches are checked against the whole program's label
    namespace (a branch resolving into another function is an error).
    """
    # Imported lazily: the flat IR and the sanitizer build on this
    # package, so module-level imports would be circular.
    from repro.ir.flat import FlatFunction, to_flat
    from repro.staticanalysis.sanitize import fast_findings

    flat = func if isinstance(func, FlatFunction) else to_flat(func)
    return problems_of(fast_findings(flat, target, program))


def problems_of(findings) -> List[str]:
    """:func:`check_ir`'s problem lines for a fast-battery result: a
    structural failure reports its first finding only (the later
    passes are meaningless on broken structure)."""
    from repro.staticanalysis.sanitize import structural_failure

    if structural_failure(findings):
        findings = findings[:1]
    return [f"{finding.where}: {finding.detail}" for finding in findings]


def validate_ir(
    func: Union[Function, "FlatFunction"],
    target: Optional[Target] = None,
    program: Optional[Program] = None,
) -> None:
    """Raise :class:`IRValidationError` when *func* is malformed."""
    problems = check_ir(func, target, program)
    if problems:
        raise IRValidationError(func.name, problems)
