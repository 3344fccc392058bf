"""Worker-process side of the parallel enumeration service.

Each worker is one OS process running :func:`worker_main`: it takes
one function at a time off its task queue, enumerates it with
:func:`~repro.core.driver.run_function` — the serial enumerator with
the serial store, memo and checkpoint rules — and posts the
:class:`EnumerationResult` back on its own event channel.

- A daemon **heartbeat** thread posts the enumerator's attempt count;
  a hang keeps the thread alive but the count still, and the
  coordinator reclaims the lease either way.
- Workers leave the coordinator's process group, so a terminal ^C
  reaches the coordinator only; it forwards one SIGTERM, which the
  enumerator turns into a final checkpoint.  An orphaned worker exits.
- The journal has a single writer: when the coordinator traces, a
  worker runs a journal-less :class:`~repro.observability.tracer.Tracer`
  and forwards its events.

The ``chaos`` entry of the job spec is a test hook: it makes one
worker die (or hang) after a set number of node expansions.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Dict, Optional

from repro.core import checkpoint as ckpt
from repro.core.driver import run_function
from repro.core.enumeration import EnumerationConfig, SpaceEnumerator
from repro.core.store import SpaceStore
from repro.frontend import compile_source
from repro.observability import tracer as obs_tracer
from repro.opt import phase_by_id
from repro.robustness.faults import FaultInjector


#: EnumerationConfig fields shipped to workers verbatim
_CONFIG_FIELDS = (
    "max_level_sequences", "max_nodes", "max_levels", "time_limit",
    "exact", "remap", "validate", "difftest", "input_vectors",
    "phase_timeout", "canonical_input", "sanitize", "collapse",
)


def config_spec(config: EnumerationConfig, checkpoint_interval: float) -> Dict:
    """The picklable fields a worker rebuilds *config* from.

    Phases travel by id, so workers run the stock phase objects.  The
    fault injector travels as its settings and is rebuilt for each
    function, which then draws the stream a serial run with a fresh
    injector would.
    """
    spec = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    injector = config.fault_injector
    spec.update(
        phases="".join(phase.id for phase in config.phases),
        checkpoint_interval=checkpoint_interval,
        fault=None if injector is None else dict(
            seed=injector.seed,
            rate=injector.rate,
            modes=injector.modes,
            attempts=injector.attempts,
            hang_seconds=injector.hang_seconds,
        ),
    )
    return spec


def _build_config(spec: Dict, source: Optional[str]) -> EnumerationConfig:
    spec = dict(spec)
    fault = spec.pop("fault")
    spec["phases"] = [phase_by_id(phase_id) for phase_id in spec["phases"]]
    needs_program = (
        spec["difftest"] or spec["sanitize"] or spec["collapse"] == "semantic"
    )
    return EnumerationConfig(
        program=compile_source(source) if needs_program and source else None,
        fault_injector=None if fault is None else FaultInjector(**fault),
        **spec,
    )


class _Heartbeat:
    """Daemon thread: progress heartbeats, plus exit on orphaning."""

    def __init__(self, worker_id: int, event_queue, interval: float):
        self.worker_id = worker_id
        self.event_queue = event_queue
        self.interval = interval
        self.parent = os.getppid()
        #: the running function's enumerator (None between tasks)
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
    worker_id: int, job_spec: Dict, task: Dict, beat: _Heartbeat, chaos_state: Dict
) -> Dict:
    config = _build_config(job_spec["config"], task.get("source"))
    store = SpaceStore(job_spec["store"]) if job_spec.get("store") else None
    chaos = job_spec.get("chaos")

    def on_start(enumerator: SpaceEnumerator) -> None:
        beat.enumerator = enumerator
        if chaos and chaos["worker"] == worker_id:
            _arm_chaos(enumerator, chaos, chaos_state)

    tracer = None
    if job_spec.get("forward_events"):
        tracer = obs_tracer.Tracer()
        tracer.subscribe(
            lambda name, **fields: beat.event_queue.put(
                ("event", worker_id, (name, fields))
            )
        )
        obs_tracer.install(tracer)
    try:
        run = run_function(
            ckpt.function_from_dict(task["function"]),
            config,
            store=store,
            checkpoint_path=task["checkpoint_path"],
            resume=task["resume"],
            on_start=on_start,
        )
    finally:
        beat.enumerator = None
        obs_tracer.uninstall()
    injector = config.fault_injector
    return {
        "job_id": task["job_id"],
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


def worker_main(worker_id: int, job_spec: Dict, task_queue, event_queue) -> None:
    """Worker process entry point: enumerate functions until told to stop."""
    try:
        os.setpgrp()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (AttributeError, ValueError, OSError):  # non-POSIX / non-main thread
        pass
    # A fork-started worker inherits the coordinator's installed tracer
    # — and with it an open journal file descriptor.
    obs_tracer.ACTIVE = None
    beat = _Heartbeat(worker_id, event_queue, job_spec["heartbeat_interval"])
    chaos_state: Dict = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        beat.busy = True
        try:
            payload = _run_task(worker_id, job_spec, task, beat, chaos_state)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:
            event_queue.put(
                (
                    "shard_error",
                    worker_id,
                    {
                        "job_id": task["job_id"],
                        "error": f"{type(error).__name__}: {error}",
                        "checkpoint_error": (
                            str(error)
                            if isinstance(error, ckpt.CheckpointError)
                            else None
                        ),
                        "traceback": traceback.format_exc(limit=8),
                    },
                )
            )
            continue
        finally:
            beat.busy = False
        event_queue.put(("result", worker_id, payload))
        if payload["result"].abort_reason == "interrupted":
            break  # a graceful stop was requested: checkpointed, done
