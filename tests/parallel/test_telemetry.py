"""Telemetry layer: JSONL event log, gauges, status line, ETA."""

from __future__ import annotations

import io
import json
import os
import shutil
from collections import deque

from repro.observability.tracer import Tracer
from repro.parallel import ProgressReporter
from repro.parallel.telemetry import replay_journal


def traced_journal(path, events):
    """Emit *events* through a tracer owning the journal at *path*,
    with a reporter subscribed; returns the reporter."""
    reporter = ProgressReporter()
    tracer = Tracer(jsonl_path=str(path))
    tracer.subscribe(reporter.event)
    for name, fields in events:
        tracer.emit(name, **fields)
    tracer.close()
    return reporter


def test_jsonl_event_log(tmp_path):
    path = tmp_path / "events.jsonl"
    reporter = traced_journal(
        path,
        [
            ("job_start", {"functions": 3, "jobs": 2}),
            ("shard_done", {"shard": 0, "nodes": 5, "attempts": 70}),
            ("function_done", {"function": "f", "wall": 1.5}),
        ],
    )
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [event["event"] for event in events] == [
        "job_start",
        "shard_done",
        "function_done",
        "run_end",
    ]
    assert all("t" in event for event in events)
    assert events[1]["nodes"] == 5
    # the subscribed reporter saw the same stream
    assert reporter.functions_total == 3
    assert reporter.functions_done == 1


def test_gauges_follow_events():
    reporter = ProgressReporter()
    reporter.event("job_start", functions=4, jobs=2)
    reporter.event("cache_hit", function="a")
    reporter.event("shard_done", nodes=10, attempts=150)
    reporter.event("lease_reclaim", shard=3)
    reporter.event("function_done", function="b", wall=2.0)
    assert reporter.functions_total == 4
    assert reporter.workers == 2
    assert reporter.cache_hits == 1
    # enumerated and cache-satisfied functions are separate gauges;
    # total_done is their sum (what the status line shows)
    assert reporter.functions_done == 1
    assert reporter.cached_done == 1
    assert reporter.total_done == 2
    assert reporter.attempts == 150
    assert reporter.reclaims == 1
    reporter.gauges(queue_depth=7, busy=2, instances=42)
    assert reporter.queue_depth == 7
    assert reporter.instances == 42


def test_status_line_content():
    reporter = ProgressReporter()
    reporter.event("job_start", functions=2, jobs=4)
    reporter.event("cache_hit", function="a")
    reporter.gauges(queue_depth=3, busy=4, instances=100)
    line = reporter.status_line()
    assert "fns 1/2" in line
    assert "workers 4/4" in line
    assert "queue 3" in line
    assert "100 inst" in line
    assert "1 cached" in line


def test_tty_rendering_only_when_tty():
    quiet = io.StringIO()
    reporter = ProgressReporter(stream=quiet)
    reporter.tick(force=True)
    assert quiet.getvalue() == ""  # not a TTY: no escape noise

    loud = io.StringIO()
    forced = ProgressReporter(stream=loud, force_tty=True)
    forced.event("job_start", functions=1, jobs=1)
    forced.tick(force=True)
    forced.close()
    assert loud.getvalue().startswith("\r")
    assert loud.getvalue().endswith("\n")


def test_eta_appears_after_first_function():
    reporter = ProgressReporter()
    reporter.event("job_start", functions=4, jobs=2)
    assert reporter.eta_seconds() is None
    reporter.event("function_done", function="a", wall=2.0)
    reporter.gauges(queue_depth=0, busy=2, instances=0)
    eta = reporter.eta_seconds()
    assert eta is not None
    assert eta == 3 * 2.0 / 2  # 3 functions left, 2 busy workers


def test_eta_on_warm_store_run():
    """Store cache hits must not bias the ETA: a cached function is off
    the remaining-work ledger but contributes no wall sample (the
    resumed/warm-store regression)."""
    reporter = ProgressReporter()
    reporter.event("job_start", functions=4, jobs=1)
    reporter.event("cache_hit", function="a")
    reporter.event("cache_hit", function="b")
    assert reporter.eta_seconds() is None  # no enumerated function yet
    reporter.event("function_done", function="c", wall=2.0)
    reporter.gauges(queue_depth=0, busy=1, instances=0)
    # one function left to really enumerate, at 2.0s average
    assert reporter.eta_seconds() == 2.0
    reporter.event("cache_hit", function="d")
    assert reporter.eta_seconds() == 0.0
    assert reporter.functions_done == 1
    assert reporter.cached_done == 3
    assert reporter.total_done == 4


def test_throughput_is_pure_read():
    """Reading the rate must not mutate the sample window (rendering or
    logging extra times used to append samples and skew the rate)."""
    reporter = ProgressReporter()
    reporter.gauges(queue_depth=0, busy=1, instances=0)
    reporter._start -= 2.0  # age the first sample by two seconds
    reporter.gauges(queue_depth=0, busy=1, instances=100)
    before = list(reporter._samples)
    first = reporter.throughput()
    for _ in range(5):
        assert reporter.throughput() == first
    assert list(reporter._samples) == before
    assert first > 0.0


def test_sample_window_is_pruned_deque():
    reporter = ProgressReporter()
    assert isinstance(reporter._samples, deque)
    reporter._samples.append((0.0, 0))
    reporter._start -= 60.0  # now well past the window
    reporter.gauges(queue_depth=0, busy=1, instances=10)
    assert all(t > 1.0 for t, _n in reporter._samples)


def test_status_line_width_follows_terminal(monkeypatch):
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, force_tty=True)
    reporter.event("job_start", functions=1, jobs=1)
    monkeypatch.setattr(
        shutil, "get_terminal_size", lambda: os.terminal_size((120, 24))
    )
    reporter.tick(force=True)
    assert len(stream.getvalue()) == 1 + 119  # \r + width-1 columns
    # absurdly narrow terminals get the floor, not a truncated mess
    monkeypatch.setattr(
        shutil, "get_terminal_size", lambda: os.terminal_size((20, 24))
    )
    narrow = io.StringIO()
    other = ProgressReporter(stream=narrow, force_tty=True)
    other.tick(force=True)
    assert len(narrow.getvalue()) == 1 + 40


def test_jsonl_log_is_utf8(tmp_path):
    path = tmp_path / "events.jsonl"
    traced_journal(
        path, [("function_done", {"function": "smålänning", "wall": 0.1})]
    )
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert record["function"] == "smålänning"


def test_replay_journal_reconstructs_gauges(tmp_path):
    path = tmp_path / "events.jsonl"
    traced_journal(
        path,
        [
            ("job_start", {"functions": 3, "jobs": 2}),
            ("cache_hit", {"function": "a"}),
            ("shard_done", {"shard": 0, "nodes": 5, "attempts": 70}),
            ("function_done", {"function": "b", "wall": 1.5}),
        ],
    )
    replayed = replay_journal(str(path))
    assert replayed.functions_total == 3
    assert replayed.functions_done == 1
    assert replayed.cached_done == 1
    assert replayed.total_done == 2
    assert replayed.attempts == 70
