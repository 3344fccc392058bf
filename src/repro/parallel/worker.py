"""Worker-process side of the worker pool.

Each worker is one OS process running :func:`worker_main`: it takes
one task at a time off its task queue, calls the task's runner — a
module-level function named by the task, such as
:func:`enumerate_function` for ``--jobs`` or the service's
:func:`~repro.service.executor.run_spec` — and posts the runner's
return value back on its own event channel.

- A daemon **heartbeat** thread posts the running enumerator's attempt
  count (runners hand it over through their ``on_start`` keyword); a
  hang keeps the thread alive but the count still, and the coordinator
  reclaims the lease either way.
- Workers leave the coordinator's process group, so a terminal ^C
  reaches the coordinator only; it forwards one SIGTERM, which the
  enumerator turns into a final checkpoint.  An orphaned worker exits.
- The journal has a single writer: when the coordinator traces, a
  worker runs a journal-less :class:`~repro.observability.tracer.Tracer`
  and forwards its events.

The ``chaos`` entry of the worker spec is a test hook: it makes one
worker die (or hang) after a set number of node expansions.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Callable, Dict, Optional

from repro.core import checkpoint as ckpt
from repro.core.driver import run_function
from repro.core.enumeration import EnumerationConfig, SpaceEnumerator
from repro.core.store import SpaceStore
from repro.frontend import compile_source
from repro.observability import tracer as obs_tracer


def enumerate_function(
    function: Dict,
    config: Dict,
    source: Optional[str],
    store_root: Optional[str],
    checkpoint_path: Optional[str],
    *,
    on_start: Callable[[SpaceEnumerator], None],
) -> Dict:
    """The ``--jobs`` task: one function through :func:`run_function`.

    A task resumes whatever checkpoint it finds at *checkpoint_path*:
    the coordinator deletes a stale one before a fresh run, so one
    there is the caller's or a lost lease's.
    """
    config = EnumerationConfig.from_dict(config)
    if source is not None and config.needs_program():
        config.program = compile_source(source)
    store = SpaceStore(store_root) if store_root else None
    try:
        run = run_function(
            ckpt.function_from_dict(function),
            config,
            store=store,
            checkpoint_path=checkpoint_path,
            resume=checkpoint_path is not None,
            on_start=on_start,
        )
    except ckpt.CheckpointError as error:
        # Resuming is an explicit request: a checkpoint that will not
        # load is the caller's error, not a lost lease to retry.
        return {"checkpoint_error": str(error)}
    injector = config.fault_injector
    tracer = obs_tracer.ACTIVE
    return {
        "result": run.result,
        "faults": None if injector is None else {
            "applications": injector.applications,
            "injected": injector.injected,
            "by_mode": injector.injected_by_mode,
        },
        "store": None if store is None else {
            "hits": store.hits, "misses": store.misses, "corrupt": store.corrupt,
        },
        "analysis": None if tracer is None else (
            tracer.analysis_hits, tracer.analysis_misses,
        ),
    }


class _Heartbeat:
    """Daemon thread: progress heartbeats, plus exit on orphaning."""

    def __init__(self, worker_id: int, event_queue, interval: float, parent: int):
        self.worker_id = worker_id
        self.event_queue = event_queue
        self.interval = interval
        #: the coordinator's pid, taken by the coordinator: a worker
        #: still starting up when the coordinator dies would read
        #: init's pid from os.getppid() and never notice
        self.parent = parent
        #: the running task's enumerator (None between tasks)
        self.enumerator: Optional[SpaceEnumerator] = None
        #: whether a task is running (heartbeats are sent only then)
        self.busy = False
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        while True:
            time.sleep(self.interval)
            if os.getppid() != self.parent:
                os._exit(1)  # the coordinator is gone
            enumerator = self.enumerator
            if self.busy:
                attempts = -1 if enumerator is None else enumerator.attempted
                self.event_queue.put(
                    ("heartbeat", self.worker_id, {"attempts": attempts})
                )


def _arm_chaos(enumerator: SpaceEnumerator, chaos: Dict, state: Dict) -> None:
    """Test hook: die or hang after ``after_nodes`` node expansions
    (counted across this worker's functions), once."""
    original = enumerator._maybe_checkpoint

    def hooked() -> None:
        original()
        state["nodes"] = state.get("nodes", 0) + 1
        if state["nodes"] != chaos.get("after_nodes", 1):
            return
        # Persist first so the recovery being exercised includes the
        # checkpoint resume.
        if enumerator.config.checkpoint_path is not None:
            enumerator._write_checkpoint()
        if chaos.get("kind", "exit") != "hang":
            os._exit(137)
        # Stall (the attempt count stops moving) until a graceful stop
        # is requested; with no checkpoint path SIGTERM just kills.
        while not enumerator._interrupted:
            time.sleep(0.05)

    enumerator._maybe_checkpoint = hooked


def _run_task(
    worker_id: int, spec: Dict, task: Dict, beat: _Heartbeat, chaos_state: Dict
):
    chaos = spec.get("chaos")

    def on_start(enumerator: SpaceEnumerator) -> None:
        beat.enumerator = enumerator
        if chaos and chaos["worker"] == worker_id:
            _arm_chaos(enumerator, chaos, chaos_state)

    if spec.get("forward_events"):
        tracer = obs_tracer.Tracer()
        tracer.subscribe(
            lambda name, **fields: beat.event_queue.put(
                ("event", worker_id, (name, fields))
            )
        )
        obs_tracer.install(tracer)
    try:
        return task["runner"](*task["args"], on_start=on_start)
    finally:
        beat.enumerator = None
        obs_tracer.uninstall()


def worker_main(worker_id: int, spec: Dict, task_queue, event_queue) -> None:
    """Worker process entry point: run tasks until told to stop."""
    try:
        os.setpgrp()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A fork-started child of an asyncio server inherits the loop's
        # signal wakeup fd: a SIGTERM aimed at this worker would be
        # written to it and run the server's handler (drain) instead.
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (AttributeError, ValueError, OSError):  # non-POSIX / non-main thread
        pass
    # A fork-started worker inherits the coordinator's installed tracer
    # — and with it an open journal file descriptor.
    obs_tracer.ACTIVE = None
    beat = _Heartbeat(
        worker_id, event_queue, spec["heartbeat_interval"], spec["parent"]
    )
    chaos_state: Dict = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        beat.busy = True
        try:
            payload = _run_task(worker_id, spec, task, beat, chaos_state)
        except Exception as error:
            event_queue.put(
                (
                    "shard_error",
                    worker_id,
                    {
                        "error": f"{type(error).__name__}: {error}",
                        "traceback": traceback.format_exc(limit=8),
                    },
                )
            )
            continue
        finally:
            beat.busy = False
        event_queue.put(("result", worker_id, payload))
