"""Multi-process exhaustive enumeration (``repro.parallel``).

The serial enumerator (:mod:`repro.core.enumeration`) is the only
enumerator; this package runs it for many functions at once, one
function per worker process, so every space DAG is **bit-identical**
to a serial run by construction — every Table 3–7 number is
reproducible at any ``--jobs`` level.  See ``docs/PARALLEL.md``.

- :mod:`~repro.parallel.coordinator` — the worker pool (leases,
  heartbeats, respawns, signal forwarding), the one process supervisor
  behind both ``--jobs N`` and ``repro serve``, and the parallel
  enumerator built on it;
- :mod:`~repro.parallel.worker` — the worker process, and the
  ``--jobs`` task that runs :func:`repro.core.driver.run_function`
  (the one driver owning the store and checkpoint rules);
- :mod:`~repro.parallel.telemetry` — JSONL event log + live status.

The completed-space store lives in :mod:`repro.core.store`.
"""

from repro.core.store import SpaceStore
from repro.parallel.coordinator import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
    enumerate_space_parallel,
)
from repro.parallel.telemetry import ProgressReporter

__all__ = [
    "EnumerationRequest",
    "ParallelConfig",
    "ParallelEnumerator",
    "ProgressReporter",
    "SpaceStore",
    "enumerate_space_parallel",
]
