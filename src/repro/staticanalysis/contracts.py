"""Phase contracts: declared invariants checked across every edge.

Each of the 17 phases — the 15 candidate phases of Table 1 plus the
two implicit ones (compulsory register assignment and control-flow
cleanup) — declares three invariant tuples:

``requires``
    must hold on the function *before* the phase runs (its legality
    precondition, mirroring ``Phase.applicable``);
``establishes``
    must hold *after* any active application;
``breaks``
    monotone invariants the phase is allowed to destroy (none of the
    current phases break any).

Candidate phases declare these as class attributes on their
:class:`~repro.opt.base.Phase` subclass; the two implicit phases
declare module-level ``CONTRACT`` dicts.  The checker also enforces
**monotonicity**: an invariant from :data:`MONOTONE` that held before
an edge and is not in the phase's ``breaks`` must still hold after —
this is what catches a phase that silently destroys a downstream
precondition (e.g. reintroducing pseudo registers after assignment).

Violations are reported as sanitizer findings with codes:

======  ======================================================
CON001  a ``requires`` invariant did not hold before the phase
CON002  an ``establishes`` invariant missing after the phase
CON003  a preserved monotone invariant was broken by the phase
======  ======================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.ir.flat import FlatFunction, to_flat
from repro.ir.function import Function
from repro.staticanalysis.sanitize import Finding, has_pseudo_registers

#: synthetic phase ids for the two implicit phases
REGISTER_ASSIGNMENT_ID = "assign"
CLEANUP_ID = "cleanup"

#: invariant name -> predicate over a flat function (the legality
#: flags, and the sanitizer's per-block pseudo-register fact)
INVARIANTS: Dict[str, Callable[[FlatFunction], bool]] = {
    "registers-assigned": lambda flat: flat.reg_assigned,
    "no-pseudo-registers": lambda flat: not has_pseudo_registers(flat),
    "selection-done": lambda flat: flat.sel_applied,
    "allocation-done": lambda flat: flat.alloc_applied,
    "pre-assignment": lambda flat: not flat.reg_assigned,
}

#: invariants that, once established, no phase may silently destroy
#: (unless it declares them in ``breaks``)
MONOTONE: Tuple[str, ...] = (
    "registers-assigned",
    "no-pseudo-registers",
    "selection-done",
    "allocation-done",
)


class PhaseContract(NamedTuple):
    phase_id: str
    name: str
    requires: Tuple[str, ...]
    establishes: Tuple[str, ...]
    breaks: Tuple[str, ...]


def _contract_from_phase(phase) -> PhaseContract:
    return PhaseContract(
        phase_id=phase.id,
        name=phase.name,
        requires=tuple(phase.contract_requires),
        establishes=tuple(phase.contract_establishes),
        breaks=tuple(phase.contract_breaks),
    )


_REGISTRY: Optional[Dict[str, PhaseContract]] = None


def contract_registry() -> Dict[str, PhaseContract]:
    """All 17 contracts, keyed by phase id (built lazily once)."""
    global _REGISTRY
    if _REGISTRY is None:
        from repro.opt import PHASES
        from repro.opt.flat import assign as register_assignment, cleanup

        registry = {
            phase.id: _contract_from_phase(phase) for phase in PHASES
        }
        registry[REGISTER_ASSIGNMENT_ID] = PhaseContract(
            phase_id=REGISTER_ASSIGNMENT_ID,
            name="register assignment",
            **register_assignment.CONTRACT,
        )
        registry[CLEANUP_ID] = PhaseContract(
            phase_id=CLEANUP_ID,
            name="control-flow cleanup",
            **cleanup.CONTRACT,
        )
        _REGISTRY = registry
    return _REGISTRY


def contract_for(phase_id: str) -> PhaseContract:
    registry = contract_registry()
    if phase_id not in registry:
        raise KeyError(f"no contract declared for phase {phase_id!r}")
    return registry[phase_id]


def validate_contracts() -> List[str]:
    """Self-check of the registry: every declared invariant name must
    exist, and the two flag-coupled phases must declare what the
    ``attempt_phase_on_flat`` flow guarantees.  Returns problems."""
    problems: List[str] = []
    registry = contract_registry()
    if len(registry) != 17:
        problems.append(f"expected 17 contracts, found {len(registry)}")
    for contract in registry.values():
        for field in ("requires", "establishes", "breaks"):
            for invariant in getattr(contract, field):
                if invariant not in INVARIANTS:
                    problems.append(
                        f"phase {contract.phase_id!r} {field} unknown "
                        f"invariant {invariant!r}"
                    )
    from repro.opt import PHASES

    for phase in PHASES:
        contract = registry[phase.id]
        if phase.requires_assignment and (
            "registers-assigned" not in contract.establishes
        ):
            problems.append(
                f"phase {phase.id!r} triggers compulsory assignment but "
                "does not declare establishes registers-assigned"
            )
    return problems


def check_contract(
    phase_id: str,
    before: Union[Function, FlatFunction],
    after: Union[Function, FlatFunction],
    pseudo_free: Tuple[Optional[bool], Optional[bool]] = (None, None),
) -> List[Finding]:
    """Check one applied edge ``before --phase--> after``.

    *before* is the pre-phase snapshot, *after* the function the phase
    (plus any triggered assignment and implicit cleanup) produced;
    object functions are converted with ``to_flat``.  *pseudo_free*
    gives ``no-pseudo-registers`` of *before* and *after* where the
    caller knows it already (the guard keeps it per candidate); None
    computes it.
    """
    if not isinstance(before, FlatFunction):
        before = to_flat(before)
    if not isinstance(after, FlatFunction):
        after = to_flat(after)
    contract = contract_for(phase_id)
    findings: List[Finding] = []
    held: Dict[Tuple[bool, str], bool] = {}
    for when_after, known in zip((False, True), pseudo_free):
        if known is not None:
            held[when_after, "no-pseudo-registers"] = known

    def holds(when_after: bool, invariant: str) -> bool:
        key = (when_after, invariant)
        value = held.get(key)
        if value is None:
            flat = after if when_after else before
            value = held[key] = INVARIANTS[invariant](flat)
        return value

    for invariant in contract.requires:
        if not holds(False, invariant):
            findings.append(
                Finding(
                    "CON001",
                    after.name,
                    phase_id,
                    f"precondition {invariant!r} of phase {phase_id!r} "
                    "did not hold before the phase ran",
                )
            )
    for invariant in contract.establishes:
        if not holds(True, invariant):
            findings.append(
                Finding(
                    "CON002",
                    after.name,
                    phase_id,
                    f"phase {phase_id!r} claims to establish "
                    f"{invariant!r} but it does not hold afterwards",
                )
            )
    for invariant in MONOTONE:
        if invariant in contract.breaks:
            continue
        if not holds(True, invariant) and holds(False, invariant):
            findings.append(
                Finding(
                    "CON003",
                    after.name,
                    phase_id,
                    f"phase {phase_id!r} broke the previously-established "
                    f"invariant {invariant!r}",
                )
            )
    return findings
