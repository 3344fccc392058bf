"""Live progress reporting on top of the shared observability stream.

The reporter is a *consumer* of the run's event stream: producers (the
parallel coordinator, the serial enumerator via its tracer) emit
schema-validated events, and the reporter folds them into gauges and
renders a live TTY status line — a single ``\\r``-rewritten line
showing functions done, worker occupancy, queue depth, instance
throughput and a coarse ETA.  It only renders when the stream is a TTY
(or when forced), so piped output and test logs stay clean.

The reporter never writes the journal: a
:class:`~repro.observability.tracer.Tracer` owns it, and the reporter
subscribes to the tracer (or is handed the same events by the
coordinator), so events flow tracer → journal + reporter with a single
writer.

The reporter is deliberately passive: events and gauges are pushed in;
nothing here spawns threads or touches the worker pool.
"""

from __future__ import annotations

import shutil
import sys
import time
from collections import deque
from typing import Deque, Optional, TextIO, Tuple

from repro.observability.events import read_journal

#: seconds of (t, instances) history the throughput window keeps
_WINDOW_S = 5.0

#: never render a status line narrower than this, whatever the terminal says
_MIN_COLUMNS = 40


class ProgressReporter:
    """Folds run events into gauges; renders a status line."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval: float = 0.25,
        force_tty: bool = False,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._tty = force_tty or bool(
            getattr(self.stream, "isatty", lambda: False)()
        )
        self._start = time.monotonic()
        self._last_render = 0.0
        self._line_live = False
        #: recent (t, instances) samples for the throughput window.
        #: Appended by :meth:`_sample` (write paths only); deque keeps
        #: window pruning O(1) instead of ``list.pop(0)``'s O(n).
        self._samples: Deque[Tuple[float, int]] = deque()
        # gauges the status line renders
        self.instances = 0
        self.attempts = 0
        #: functions completed by actually enumerating (wall-sampled)
        self.functions_done = 0
        #: functions satisfied from the store cache (no wall sample)
        self.cached_done = 0
        self.functions_total = 0
        self.cache_hits = 0
        self.queue_depth = 0
        self.workers = 0
        self.busy = 0
        self.reclaims = 0
        self._function_walls = []

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    @property
    def total_done(self) -> int:
        """All finished functions, enumerated and cache-satisfied alike."""
        return self.functions_done + self.cached_done

    def event(self, name: str, **fields) -> None:
        """Fold one event into the gauges."""
        if name == "job_start":
            self.functions_total = fields.get("functions", 0)
            self.workers = fields.get("jobs", 0)
        elif name == "cache_hit":
            # Cache-satisfied functions are done work but carry no wall
            # sample — counting them into functions_done would shrink
            # the remaining-work estimate while leaving the per-function
            # average untouched, biasing eta_seconds() on warm-store and
            # resumed runs.  Keep them in their own gauge.
            self.cache_hits += 1
            self.cached_done += 1
        elif name == "shard_done":
            self.instances += fields.get("nodes", 0)
            self.attempts += fields.get("attempts", 0)
        elif name == "function_done":
            self.functions_done += 1
            if "wall" in fields:
                self._function_walls.append(fields["wall"])
        elif name == "lease_reclaim":
            self.reclaims += 1

    def gauges(self, queue_depth: int, busy: int, instances: int) -> None:
        """Update the fast-moving gauges (called every coordinator tick)."""
        self.queue_depth = queue_depth
        self.busy = busy
        self.instances = instances
        self._sample()

    # ------------------------------------------------------------------
    # Status line
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        """Record an (elapsed, instances) sample; prune the window."""
        now = self.elapsed()
        self._samples.append((now, self.instances))
        while self._samples and now - self._samples[0][0] > _WINDOW_S:
            self._samples.popleft()

    def throughput(self) -> float:
        """Instances/second over the sliding window.  Pure read: extra
        render or logging calls cannot skew the measured rate."""
        if len(self._samples) < 2:
            return 0.0
        t0, n0 = self._samples[0]
        t1, n1 = self._samples[-1]
        if t1 - t0 < 1e-6:
            return 0.0
        return (n1 - n0) / (t1 - t0)

    def eta_seconds(self) -> Optional[float]:
        """Coarse ETA from completed-function wall times; None early on.

        Cache-satisfied functions are excluded from both sides of the
        estimate: they contribute no wall sample, and the work they
        would have been is already off the remaining-work ledger.
        """
        if not self._function_walls or not self.functions_total:
            return None
        remaining = self.functions_total - self.functions_done - self.cached_done
        if remaining <= 0:
            return 0.0
        avg = sum(self._function_walls) / len(self._function_walls)
        return remaining * avg / max(self.busy, 1)

    def _columns(self) -> int:
        """Render width: the terminal's, with a sane floor."""
        try:
            width = shutil.get_terminal_size().columns
        except (ValueError, OSError):
            width = _MIN_COLUMNS
        # leave the last cell free so the line never triggers autowrap
        return max(width - 1, _MIN_COLUMNS)

    def status_line(self) -> str:
        rate = self.throughput()
        eta = self.eta_seconds()
        parts = [
            f"[repro.parallel] fns {self.total_done}/{self.functions_total}",
            f"workers {self.busy}/{self.workers} busy",
            f"queue {self.queue_depth}",
            f"{self.instances} inst",
            f"{rate:.0f} inst/s",
        ]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cached")
        if self.reclaims:
            parts.append(f"{self.reclaims} reclaimed")
        parts.append(f"eta {'~%.0fs' % eta if eta is not None else '?'}")
        return " · ".join(parts)

    def tick(self, force: bool = False) -> None:
        """Re-render the status line if the render interval has passed."""
        if not self._tty:
            return
        now = self.elapsed()
        if not force and now - self._last_render < self.interval:
            return
        self._last_render = now
        self._sample()
        width = self._columns()
        line = self.status_line()
        self.stream.write("\r" + line.ljust(width)[:width])
        self.stream.flush()
        self._line_live = True

    def close(self) -> None:
        """Finish the status line."""
        if self._tty and self._line_live:
            self.tick(force=True)
            self.stream.write("\n")
            self.stream.flush()
            self._line_live = False


def replay_journal(
    path: str, reporter: Optional[ProgressReporter] = None
) -> ProgressReporter:
    """Replay a run's JSONL journal through a reporter's gauges.

    The same folding rules the live reporter applies to pushed events
    are applied to the journaled ones, so a finished run's gauges can
    be reconstructed — and cross-checked against the merged result —
    from the journal alone.
    """
    if reporter is None:
        reporter = ProgressReporter()
    records, _errors = read_journal(path)
    for record in records:
        name = record.get("event")
        if not isinstance(name, str):
            continue
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("t", "event")
        }
        reporter.event(name, **fields)
    return reporter
