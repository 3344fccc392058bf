"""Phase framework: the Phase interface and the one application driver.

A phase is *active* when running it changes the code, and *dormant*
otherwise (paper section 4.1).  A phase that is illegal at the current
compilation state (e.g. evaluation order determination after register
assignment) is trivially dormant.

Every phase runs on the flat IR (:class:`~repro.ir.flat.FlatFunction`),
and every caller applies phases through :func:`attempt_phase_on_flat`,
which implements VPO's implicit behaviour around a phase:

- compulsory register assignment runs before the first phase in a
  sequence that requires it (c and k); an instance's assigned form is
  computed once per target and cloned for each such attempt
  (:func:`~repro.opt.flat.assign.assigned_form`);
- the implicit merge-basic-blocks / eliminate-empty-blocks cleanup runs
  after any active phase (these only canonicalize control flow and are
  not part of the candidate phase set);
- the function's legality flags are updated when s or k is active.

It attempts the phase on a clone: at most one clone per attempt, none
for an illegal phase, and a dormant attempt returns ``None`` with the
input untouched — including not committing the implicit register
assignment, so a dormant attempt never changes the instance (see
DESIGN.md).

The object IR stays the format of the frontend, the VM, the printer and
the verifiers.  :func:`apply_phase` and :func:`implicit_cleanup` are
thin adapters for one-off callers holding a
:class:`~repro.ir.function.Function`: convert, run on flat, write back.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.flat import FlatFunction, from_flat, to_flat
from repro.ir.function import Function
from repro.machine.target import DEFAULT_TARGET, Target
from repro.opt.flat.assign import assigned_form
from repro.opt.flat.cleanup import flat_implicit_cleanup


class Phase:
    """Base class for the fifteen candidate optimization phases."""

    #: single-letter designation from Table 1 of the paper
    id: str = "?"
    name: str = "?"
    #: phase needs the compulsory register assignment to have run
    requires_assignment: bool = False
    #: phase-contract declarations (plain invariant-name tuples; the
    #: vocabulary and checker live in repro/staticanalysis/contracts.py):
    #: invariants that must hold before the phase runs,
    contract_requires: tuple = ()
    #: invariants any active application establishes,
    contract_establishes: tuple = ()
    #: and monotone invariants the phase is allowed to destroy.
    contract_breaks: tuple = ()

    def applicable(self, flat: FlatFunction) -> bool:
        """Legality of attempting this phase in the current state."""
        return True

    def run(self, flat: FlatFunction, target: Target) -> bool:
        """Apply the phase in place; return True when code changed."""
        raise NotImplementedError

    def __repr__(self):
        return f"<Phase {self.id}: {self.name}>"


def attempt_phase_on_flat(
    flat: FlatFunction, phase: Phase, target: Optional[Target] = None
) -> Optional[FlatFunction]:
    """Attempt *phase* on a clone of *flat*; ``None`` when dormant."""
    if target is None:
        target = DEFAULT_TARGET
    if not phase.applicable(flat):
        return None
    if phase.requires_assignment and not flat.reg_assigned:
        candidate = assigned_form(flat, target).clone()
    else:
        candidate = flat.clone()
    if not phase.run(candidate, target):
        return None
    _cleanup_fixpoint(candidate, phase, target)
    if phase.id == "s":
        candidate.sel_applied = True
    elif phase.id == "k":
        candidate.alloc_applied = True
    return candidate


def _cleanup_fixpoint(flat: FlatFunction, phase: Phase, target: Target) -> None:
    """Run the implicit cleanup and re-run *phase* to a joint fixpoint.

    The implicit block merging can expose new opportunities for the
    phase that just ran (e.g. removing an empty block brings a
    conditional branch and the jump it skips next to each other for r).
    Re-running until dormant preserves the paper's invariant that no
    phase is ever successfully applied twice in a row.
    """
    flat_implicit_cleanup(flat)
    for _ in range(100):
        if not phase.run(flat, target):
            return
        flat_implicit_cleanup(flat)
    raise RuntimeError(
        f"{flat.name}: phase {phase.id} did not reach a fixpoint with cleanup"
    )


def apply_phase(func: Function, phase: Phase, target: Optional[Target] = None) -> bool:
    """Attempt *phase* on *func* in place; True when it was active.

    A dormant attempt leaves *func* exactly as it was.
    """
    candidate = attempt_phase_on_flat(to_flat(func), phase, target)
    if candidate is None:
        return False
    from_flat(candidate, into=func)
    return True


def implicit_cleanup(func: Function) -> bool:
    """Run the implicit control-flow cleanup on *func* to a fixpoint."""
    flat = to_flat(func)
    if not flat_implicit_cleanup(flat):
        return False
    from_flat(flat, into=func)
    return True
