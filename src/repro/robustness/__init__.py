"""Robustness layer around the phase-application hot path.

Long exhaustive enumerations are the most failure-exposed workload in
this reproduction (the paper budgets a million sequences per level and
hours per function).  This package keeps them alive:

- :class:`GuardedPhaseRunner` contains phase exceptions, validates the
  output IR, optionally differential-tests semantics in the VM, and
  enforces a per-phase timeout — failures are quarantined and read as
  dormant instead of aborting the run;
- :class:`QuarantineLog` / :class:`QuarantineRecord` preserve the
  context of every rejected application;
- :class:`FaultInjector` deterministically sabotages applications
  (raise / corrupt IR / hang) so every guard path is testable;
- :mod:`repro.robustness.retry` is the shared retry vocabulary —
  :func:`retry_call` (exponential backoff, full jitter, deadlines), which
  the service client drives;
- :mod:`repro.core.checkpoint` (a sibling, re-exported by the
  enumerator) persists the space DAG so interrupted runs resume.
"""

from repro.robustness.faults import (
    CORRUPT_LABEL,
    FaultInjector,
    InjectedFault,
    MODES,
)
from repro.robustness.guard import (
    DifferentialTester,
    GuardedPhaseRunner,
    PhaseTimeout,
    default_vectors,
)
from repro.robustness.quarantine import KINDS, QuarantineLog, QuarantineRecord
from repro.robustness.retry import (
    RetryError,
    RetryPolicy,
    retry_call,
)

__all__ = [
    "GuardedPhaseRunner",
    "DifferentialTester",
    "PhaseTimeout",
    "default_vectors",
    "FaultInjector",
    "InjectedFault",
    "CORRUPT_LABEL",
    "MODES",
    "QuarantineLog",
    "QuarantineRecord",
    "KINDS",
    "RetryError",
    "RetryPolicy",
    "retry_call",
]
