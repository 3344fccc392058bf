"""Schema-versioned JSONL event stream shared by serial and parallel runs.

One run produces one ``events.jsonl`` journal: one JSON object per
line, ``{"t": seconds since stream start, "event": name, ...fields}``.
The vocabulary is closed — every event name and its required fields
are declared in :data:`EVENT_SCHEMA` — so a journal written by any
component (serial enumerator, parallel coordinator, batch compiler,
guard) can be validated and replayed by any consumer (``repro
report``, the live :class:`~repro.parallel.telemetry.ProgressReporter`,
tests).

Design rules:

- **append-only, atomic lines** — a crash mid-write loses at most the
  last line; :func:`read_journal` tolerates a truncated tail;
- **explicit encoding** — journals are always UTF-8, independent of
  the platform locale;
- **closed vocabulary** — :meth:`EventStream.emit` rejects unknown
  event names and missing required fields at the producer, so schema
  drift fails loudly in tests instead of silently in reports.

The schema is versioned (:data:`SCHEMA_VERSION`); the version is
stamped into the :mod:`~repro.observability.manifest` of every run dir
rather than into each record.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, FrozenSet, List, Optional, TextIO, Tuple

#: bump when an event is removed, renamed, or a required field changes
SCHEMA_VERSION = 3

#: event name -> required fields (extra fields are always allowed)
EVENT_SCHEMA: Dict[str, FrozenSet[str]] = {
    # run-level markers
    "run_start": frozenset({"tool"}),
    "run_end": frozenset({"wall"}),
    # parallel service lifecycle (a "shard" is one function's lease)
    "job_start": frozenset({"functions", "jobs"}),
    "job_done": frozenset({"functions"}),
    "cache_hit": frozenset({"function"}),
    "shard_dispatch": frozenset({"shard"}),
    "shard_done": frozenset({"shard"}),
    "shard_error": frozenset({"shard"}),
    "lease_reclaim": frozenset({"shard"}),
    "worker_dead": frozenset({"worker"}),
    "lease_timeout": frozenset({"worker"}),
    "function_done": frozenset({"function"}),
    # serial enumeration spans
    "enum_start": frozenset({"function"}),
    "level_done": frozenset({"function", "level"}),
    "enum_done": frozenset({"function", "instances", "completed"}),
    # attempted / active / dormant accounting
    "phase_stats": frozenset({"phases"}),
    # caches
    "analysis_cache_stats": frozenset({"hits", "misses"}),
    # robustness
    "quarantine": frozenset({"phase", "kind"}),
    # static analysis (per-function sanitizer/contract/transval counters)
    "sanitize_stats": frozenset({"function", "edges"}),
    # semantic collapse (per-function merge/split counters; extra
    # fields break candidates down by proof outcome — docs/COLLAPSE.md)
    "collapse_stats": frozenset({"function", "candidates", "merged"}),
    "fault_injected": frozenset({"phase"}),
    "checkpoint_write": frozenset({"path"}),
    "checkpoint_resume": frozenset({"path"}),
    # compilers (Table 7 accounting)
    "batch_compile": frozenset({"function", "attempted", "active"}),
    "prob_compile": frozenset({"function", "attempted", "active"}),
    # enumeration service (``repro serve``; see docs/SERVICE.md).  Every
    # request-scoped event carries the request id, which is also the
    # X-Request-Id response header — one grep joins a client-visible
    # response to its full server-side history.
    "server_start": frozenset({"port"}),
    "server_drain": frozenset({"in_flight"}),
    "server_stop": frozenset({"served"}),
    "request_admitted": frozenset({"request", "kind"}),
    "request_shed": frozenset({"request", "reason"}),
    "request_coalesced": frozenset({"request", "into"}),
    "request_retry": frozenset({"request", "attempt"}),
    "request_done": frozenset({"request", "status"}),
    "breaker_open": frozenset({"key", "failures"}),
    "breaker_probe": frozenset({"key"}),
    "breaker_close": frozenset({"key"}),
    # frontend (``repro lint`` on mini-C sources, ``repro fuzz``): one
    # lint_source per linted translation unit, one fuzz_program per
    # generated program that failed, one fuzz_run per whole stream
    "lint_source": frozenset({"target", "diagnostics"}),
    "fuzz_program": frozenset({"index", "kind"}),
    "fuzz_run": frozenset({"count", "seed", "failures"}),
    # search lab (``repro search-bench``; see docs/SEARCH.md): one
    # search_space per scored seed function, one search_strategy per
    # (function, strategy) pair with its distance to the exhaustive
    # optimum and attempted-phase budget
    "search_start": frozenset({"functions", "strategies"}),
    "search_space": frozenset({"function", "nodes", "leaves", "pareto"}),
    "search_strategy": frozenset(
        {"function", "strategy", "fitness", "distance", "attempted"}
    ),
    "search_done": frozenset({"functions", "strategies"}),
}

#: journal filename inside a run dir
JOURNAL_NAME = "events.jsonl"


class EventSchemaError(ValueError):
    """An emitted event does not conform to :data:`EVENT_SCHEMA`."""


def validate_event(name: str, fields: Dict[str, object]) -> None:
    """Raise :class:`EventSchemaError` unless (*name*, *fields*) conforms."""
    required = EVENT_SCHEMA.get(name)
    if required is None:
        raise EventSchemaError(
            f"unknown event {name!r}; schema v{SCHEMA_VERSION} events: "
            f"{', '.join(sorted(EVENT_SCHEMA))}"
        )
    missing = required - fields.keys()
    if missing:
        raise EventSchemaError(
            f"event {name!r} is missing required field(s) "
            f"{', '.join(sorted(missing))}"
        )


def validate_record(record: object) -> List[str]:
    """All schema violations of one parsed journal record (empty = valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    name = record.get("event")
    if not isinstance(name, str):
        errors.append(f"missing/invalid 'event' field: {name!r}")
        return errors
    t = record.get("t")
    if not isinstance(t, (int, float)) or t < 0:
        errors.append(f"{name}: missing/invalid 't' field: {t!r}")
    fields = {k: v for k, v in record.items() if k not in ("t", "event")}
    try:
        validate_event(name, fields)
    except EventSchemaError as error:
        errors.append(str(error))
    return errors


class EventStream:
    """Appends schema-validated events to a JSONL journal.

    The stream is the single producer-side writer; consumers (the live
    reporter, ``repro report``) never write.  ``path=None`` gives a
    null stream: emit() validates and returns the record but writes
    nothing, which keeps producer call sites branch-free.  Threads may
    share a stream (the service's event loop and its pool thread do):
    each line is written whole.
    """

    def __init__(self, path: Optional[str] = None, stream: Optional[TextIO] = None):
        self.path = path
        if stream is not None:
            self._log: Optional[TextIO] = stream
            self._owns = False
        elif path is not None:
            self._log = open(path, "a", encoding="utf-8")
            self._owns = True
        else:
            self._log = None
            self._owns = False
        self._start = time.monotonic()
        self._lock = threading.Lock()

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def emit(self, name: str, **fields) -> Dict[str, object]:
        """Validate, stamp, and append one event; returns the record."""
        validate_event(name, fields)
        record: Dict[str, object] = {"t": round(self.elapsed(), 3), "event": name}
        record.update(fields)
        with self._lock:
            if self._log is not None:
                self._log.write(json.dumps(record, sort_keys=True) + "\n")
                self._log.flush()
        return record

    def close(self) -> None:
        with self._lock:
            if self._log is not None and self._owns:
                self._log.close()
            self._log = None

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path: str) -> Tuple[List[Dict[str, object]], List[str]]:
    """Parse a JSONL journal; returns ``(records, errors)``.

    Malformed lines (e.g. a truncated tail after a crash) are reported
    as errors, never raised — a journal is evidence, not a contract.
    """
    records: List[Dict[str, object]] = []
    errors: List[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                errors.append(f"line {lineno}: malformed JSON")
                continue
            records.append(record)
    return records, errors


def validate_journal(path: str) -> Tuple[List[Dict[str, object]], List[str]]:
    """Parse and schema-check a journal; returns ``(records, errors)``."""
    records, errors = read_journal(path)
    for index, record in enumerate(records, start=1):
        for error in validate_record(record):
            errors.append(f"record {index}: {error}")
    return records, errors
