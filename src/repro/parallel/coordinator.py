"""The parallel enumeration coordinator: a pool of serial enumerators.

:class:`ParallelEnumerator` runs each requested function in a worker
process (:mod:`repro.parallel.worker`) through
:func:`repro.core.driver.run_function` — the ordinary serial enumerator
with its store, memo and checkpoint rules, the same driver the service
executor calls.  Results are bit-identical to serial runs because they
come from the same code.  The unit of parallelism is the function; one
function's space is never split across workers (``docs/PARALLEL.md``
says why).

- **Scheduling.** Functions go to free worker slots in request order;
  the pool never has more workers than functions.  Budgets
  (``time_limit``, ``max_nodes``, ...) are enforced by each function's
  own serial enumerator, so they mean what they mean serially.
- **Leases.** Workers heartbeat their enumerator's attempt count.  A
  worker that dies, or whose count stalls past ``lease_timeout``, is
  terminated and respawned, and its function re-leased — resuming from
  the serial checkpoint when a ``run_dir`` is set.  SIGTERM and ^C are
  forwarded to busy workers as one SIGTERM each; their enumerators
  checkpoint before :class:`KeyboardInterrupt` is re-raised here.
- **Persistence.** With a ``run_dir``, function *label* checkpoints to
  ``<run_dir>/<label>.ckpt.json`` in the serial format, so a parallel
  run resumes serially (``--checkpoint ... --resume``) and vice versa.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core import checkpoint as ckpt
from repro.core.dag import SpaceDAG
from repro.core.enumeration import (
    EnumerationConfig,
    EnumerationResult,
    canonical_root,
)
from repro.core.store import SpaceStore, store_signature
from repro.ir.function import Function
from repro.machine.target import DEFAULT_TARGET
from repro.observability import manifest as manifest_mod
from repro.observability.tracer import Tracer
from repro.parallel.telemetry import ProgressReporter
from repro.parallel.worker import config_spec, worker_main
from repro.robustness.retry import RetryBudget


class EnumerationRequest(NamedTuple):
    """One function to enumerate: a display label, the function, and —
    when differential testing is on — its program's mini-C source."""

    label: str
    function: Function
    source: Optional[str] = None


class ParallelConfig:
    """Tunables of the parallel service (the serial knobs stay on
    :class:`EnumerationConfig`)."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        lease_timeout: float = 30.0,
        heartbeat_interval: float = 0.5,
        checkpoint_interval: float = 30.0,
        run_dir: Optional[str] = None,
        resume: bool = False,
        store: Optional[SpaceStore] = None,
        progress: Optional[ProgressReporter] = None,
        chaos: Optional[Dict] = None,
        start_method: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ):
        #: worker process count
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        #: seconds without enumeration progress before a lease is
        #: reclaimed; must exceed the worst-case single phase attempt
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        #: seconds between a worker's periodic function checkpoints
        self.checkpoint_interval = checkpoint_interval
        #: directory for the journal, manifest and per-function
        #: checkpoints; None disables persistence
        self.run_dir = run_dir
        #: continue from checkpoints found in run_dir
        self.resume = resume
        #: completed-space cache consulted before enumerating
        self.store = store
        #: telemetry sink (events + status line); caller-owned
        self.progress = progress
        #: test hook: {"worker": id, "after_nodes": n, "kind":
        #: "exit"|"hang"} — makes one worker fail mid-function, once
        self.chaos = chaos
        self.start_method = start_method
        #: observability tracer (journal + manifest); caller-owned.
        #: When None and a run_dir is set (without a legacy journaling
        #: reporter), the coordinator builds and owns one.
        self.tracer = tracer

    def resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        env = os.environ.get("REPRO_START_METHOD")
        if env:
            return env
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"


class _FunctionJob:
    """Coordinator-side state of one requested function."""

    def __init__(
        self, job_id: int, request: EnumerationRequest, parallel: ParallelConfig
    ):
        self.job_id = job_id
        self.label = request.label
        self.request = request
        self.checkpoint_path = None
        if parallel.run_dir:
            name = re.sub(r"[^A-Za-z0-9_.-]", "_", request.label)
            self.checkpoint_path = os.path.join(parallel.run_dir, f"{name}.ckpt.json")
        #: continue from checkpoint_path (the request's, or a re-lease)
        self.resume = parallel.resume
        self.result: Optional[EnumerationResult] = None


class _WorkerSlot:
    """One worker process slot (respawned across worker deaths)."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.task_queue = None
        #: per-worker event channel, fresh per incarnation.  Never
        #: shared: a worker killed mid-write can leave a queue's
        #: cross-process lock held forever; a private channel confines
        #: the damage (and any late message) to the dead worker.
        self.event_queue = None
        self.busy: Optional[_FunctionJob] = None
        #: last heartbeat-reported attempt count, and when it moved
        self.attempts: Optional[int] = None
        self.last_progress = 0.0


class ParallelEnumerator:
    """Multi-process exhaustive enumeration, one function per worker."""

    #: a worker slot dying this often aborts the run (systemic failure)
    MAX_SLOT_DEATHS = 3
    #: a function's lease failing this often aborts that function
    MAX_SHARD_RETRIES = 2

    def __init__(
        self,
        config: Optional[EnumerationConfig] = None,
        parallel: Optional[ParallelConfig] = None,
    ):
        self.config = config if config is not None else EnumerationConfig()
        self.parallel = parallel if parallel is not None else ParallelConfig()
        self._check_supported(self.config)
        self._slots: List[_WorkerSlot] = []
        self._jobs: List[_FunctionJob] = []
        self._pending = deque()
        self._lease_retries = RetryBudget(self.MAX_SHARD_RETRIES)
        self._respawns = RetryBudget(self.MAX_SLOT_DEATHS)
        self._instances = 0
        self._ctx = None
        if self.parallel.run_dir:
            os.makedirs(self.parallel.run_dir, exist_ok=True)
        self._tracer = self.parallel.tracer
        self._owns_tracer = False
        reporter = self.parallel.progress
        if (
            self._tracer is None
            and self.parallel.run_dir
            and (reporter is None or reporter.jsonl_path is None)
        ):
            # No caller-provided tracer and no legacy journal-owning
            # reporter: give the run dir its journal + manifest here.
            self._tracer = self._build_tracer()
            self._owns_tracer = True

    def _build_tracer(self) -> Tracer:
        config, parallel = self.config, self.parallel
        seeds: Dict[str, object] = {}
        if config.fault_injector is not None:
            seeds["fault"] = config.fault_injector.seed
        manifest = manifest_mod.build_manifest(
            tool="repro.parallel",
            config=store_signature(config),
            seeds=seeds,
            extra={
                "jobs": parallel.jobs,
                "start_method": parallel.resolve_start_method(),
            },
        )
        tracer = Tracer(run_dir=parallel.run_dir, manifest=manifest)
        tracer.emit("run_start", tool="repro.parallel", jobs=parallel.jobs)
        return tracer

    @staticmethod
    def _check_supported(config: EnumerationConfig) -> None:
        if not config.share_prefixes:
            raise ValueError(
                "parallel enumeration requires share_prefixes=True "
                "(sequence-replay mode is a serial ablation)"
            )
        if config.keep_functions:
            raise ValueError("keep_functions is not supported in parallel runs")
        if config.checkpoint_path is not None or config.resume:
            raise ValueError(
                "use ParallelConfig(run_dir=..., resume=...) instead of "
                "EnumerationConfig checkpointing for parallel runs"
            )
        if config.target is not DEFAULT_TARGET:
            raise ValueError("parallel workers only support the default target")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def enumerate(
        self, requests: Sequence[EnumerationRequest]
    ) -> List[EnumerationResult]:
        """Enumerate every requested function; results in request order."""
        ok = False
        try:
            results = self._enumerate(requests)
            ok = True
            return results
        finally:
            if self._owns_tracer and self._tracer is not None:
                self._tracer.close(ok=ok)

    def _enumerate(
        self, requests: Sequence[EnumerationRequest]
    ) -> List[EnumerationResult]:
        config, parallel = self.config, self.parallel
        if config.difftest or config.sanitize == "full":
            need = "difftest" if config.difftest else "sanitize=full"
            for request in requests:
                if request.source is None:
                    raise ValueError(
                        f"{need} requires program source for {request.label!r}"
                    )
        labels = set()
        for request in requests:
            if request.label in labels:
                raise ValueError(f"duplicate request label {request.label!r}")
            labels.add(request.label)
        self._emit("job_start", functions=len(requests), jobs=parallel.jobs)
        self._jobs = [
            _FunctionJob(job_id, request, parallel)
            for job_id, request in enumerate(requests)
        ]
        for job in self._jobs:
            if not job.resume and job.checkpoint_path is not None:
                # A fresh run starts over; a stale checkpoint must not
                # be picked up by a re-lease later in this run.
                try:
                    os.unlink(job.checkpoint_path)
                except OSError:
                    pass
        self._pending = deque(self._jobs)
        if self._jobs:
            self._run_pool()
        if parallel.progress is not None:
            parallel.progress.tick(force=True)
        self._emit(
            "job_done",
            instances=self._instances,
            functions=len(self._jobs),
            completed=sum(1 for job in self._jobs if job.result.completed),
        )
        return [job.result for job in self._jobs]

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, slot: _WorkerSlot, with_chaos: bool) -> None:
        parallel = self.parallel
        spec = {
            "config": config_spec(self.config, parallel.checkpoint_interval),
            "store": parallel.store.root if parallel.store is not None else None,
            "heartbeat_interval": parallel.heartbeat_interval,
            "forward_events": self._tracer is not None or parallel.progress is not None,
            "chaos": parallel.chaos if with_chaos else None,
        }
        slot.task_queue = self._ctx.Queue()
        slot.event_queue = self._ctx.SimpleQueue()
        slot.process = self._ctx.Process(
            target=worker_main,
            args=(slot.worker_id, spec, slot.task_queue, slot.event_queue),
            daemon=True,
        )
        slot.process.start()

    def _run_pool(self) -> None:
        self._ctx = multiprocessing.get_context(self.parallel.resolve_start_method())
        workers = min(self.parallel.jobs, len(self._pending))
        self._slots = [_WorkerSlot(i) for i in range(workers)]
        for slot in self._slots:
            self._spawn(slot, with_chaos=True)
        previous_sigterm = self._install_sigterm()
        try:
            self._drive()
        except KeyboardInterrupt:
            self._drain()
            raise
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            self._shutdown()

    def _install_sigterm(self):
        """SIGTERM parity with ^C: an orchestrator shutdown takes the
        same graceful path (checkpoint every running function, drain the
        pool) as KeyboardInterrupt.  Main thread only."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, frame):
            raise KeyboardInterrupt

        return signal.signal(signal.SIGTERM, _handler)

    def _drain(self) -> None:
        """Forward one SIGTERM to every busy worker, then wait (at most
        a lease timeout) for their checkpointed, interrupted results."""
        for slot in self._slots:
            if slot.busy is not None and slot.process.is_alive():
                slot.process.terminate()
        deadline = time.monotonic() + self.parallel.lease_timeout
        while time.monotonic() < deadline and any(
            slot.busy is not None and slot.process.is_alive()
            for slot in self._slots
        ):
            self._pump_events(timeout=0.05)
        self._drain_events()

    def _shutdown(self) -> None:
        for slot in self._slots:
            if slot.process.is_alive():
                try:
                    slot.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        while True:
            alive = [slot for slot in self._slots if slot.process.is_alive()]
            remaining = deadline - time.monotonic()
            if not alive or remaining <= 0:
                break
            connection_wait(
                [slot.process.sentinel for slot in alive]
                + [slot.event_queue._reader for slot in alive],
                remaining,
            )
            # read (and drop) anything still being written, so no worker
            # stays blocked mid-put on a full pipe
            for slot in alive:
                while not slot.event_queue.empty():
                    slot.event_queue.get()
        for slot in self._slots:
            if slot.process.is_alive():
                slot.process.kill()
            slot.process.join(1.0)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _drive(self) -> None:
        while any(job.result is None for job in self._jobs):
            for slot in self._slots:
                if slot.busy is None and self._pending:
                    self._dispatch(slot, self._pending.popleft())
            self._pump_events(timeout=0.05)
            self._health()
            reporter = self.parallel.progress
            if reporter is not None:
                busy = sum(1 for slot in self._slots if slot.busy is not None)
                reporter.gauges(
                    queue_depth=len(self._pending) + busy,
                    busy=busy,
                    instances=self._instances,
                )
                reporter.tick()

    def _dispatch(self, slot: _WorkerSlot, job: _FunctionJob) -> None:
        slot.task_queue.put(
            {
                "job_id": job.job_id,
                "function": ckpt.function_to_dict(job.request.function),
                "source": job.request.source,
                "checkpoint_path": job.checkpoint_path,
                "resume": job.resume,
            }
        )
        slot.busy = job
        slot.attempts = None
        slot.last_progress = time.monotonic()
        self._emit(
            "shard_dispatch",
            shard=job.job_id,
            worker=slot.worker_id,
            function=job.label,
        )

    def _pump_events(self, timeout: float) -> None:
        if self._drain_events():
            return
        # select()-based wakeup: react to the next event immediately
        # instead of polling on a sleep cadence
        connection_wait([slot.event_queue._reader for slot in self._slots], timeout)
        self._drain_events()

    def _drain_events(self) -> bool:
        handled = False
        for slot in self._slots:
            handled = self._drain_slot(slot) or handled
        return handled

    def _drain_slot(self, slot: _WorkerSlot) -> bool:
        handled = False
        # single reader: empty() == False guarantees get() returns
        while not slot.event_queue.empty():
            self._handle_event(slot, *slot.event_queue.get())
            handled = True
        return handled

    def _handle_event(
        self, slot: _WorkerSlot, kind: str, _worker_id: int, payload
    ) -> None:
        if kind == "heartbeat":
            if payload["attempts"] != slot.attempts:
                slot.attempts = payload["attempts"]
                slot.last_progress = time.monotonic()
        elif kind == "event":
            name, fields = payload
            if "function" in fields and slot.busy is not None:
                fields["function"] = slot.busy.label
            self._emit(name, **fields)
        elif kind == "result":
            slot.busy = None
            self._on_result(self._jobs[payload["job_id"]], slot.worker_id, payload)
        elif kind == "shard_error":
            slot.busy = None
            self._emit(
                "shard_error",
                shard=payload["job_id"],
                worker=slot.worker_id,
                error=payload["error"],
            )
            if payload["checkpoint_error"]:
                # Resuming is an explicit request: a checkpoint that
                # will not load is the caller's error, not a retry.
                raise ckpt.CheckpointError(payload["checkpoint_error"])
            self._requeue(self._jobs[payload["job_id"]], payload["error"])

    def _on_result(self, job: _FunctionJob, worker_id: int, payload: Dict) -> None:
        result = job.result = payload["result"]
        self._lease_retries.reset(job.job_id)
        injector = self.config.fault_injector
        if injector is not None:
            # the caller's injector reports what the workers drew, as
            # it would after a serial run
            faults = payload["faults"]
            injector.applications += faults["applications"]
            injector.injected += faults["injected"]
            for mode, count in faults["by_mode"].items():
                injector.injected_by_mode[mode] = (
                    injector.injected_by_mode.get(mode, 0) + count
                )
        store = self.parallel.store
        if store is not None:
            store.hits += payload["store"]["hits"]
            store.misses += payload["store"]["misses"]
            store.corrupt += payload["store"]["corrupt"]
        if payload["analysis"] is not None and self._tracer is not None:
            self._tracer.analysis_hits += payload["analysis"][0]
            self._tracer.analysis_misses += payload["analysis"][1]
        self._instances += len(result.dag)
        if (result.resumed_from or "").startswith("store:"):
            self._emit("cache_hit", function=job.label)
            return
        self._emit(
            "shard_done",
            shard=job.job_id,
            worker=worker_id,
            function=job.label,
            nodes=len(result.dag),
            attempts=result.attempted_phases,
            wall=round(result.elapsed, 4),
        )
        self._function_done(job)

    def _function_done(self, job: _FunctionJob) -> None:
        result = job.result
        self._emit(
            "function_done",
            function=job.label,
            instances=len(result.dag),
            levels=result.levels_completed,
            completed=result.completed,
            reason=result.abort_reason,
            wall=round(result.elapsed, 3),
        )

    def _health(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.busy is None:
                continue
            dead = not slot.process.is_alive()
            if dead:
                # a worker posts its result before any graceful exit
                self._drain_slot(slot)
                if slot.busy is None:
                    continue
            elif now - slot.last_progress <= self.parallel.lease_timeout:
                continue
            job, slot.busy = slot.busy, None
            self._emit(
                "worker_dead" if dead else "lease_timeout",
                worker=slot.worker_id,
                shard=job.job_id,
            )
            if not dead:
                slot.process.terminate()
                slot.process.join(2.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(1.0)
            if not self._respawns.record_failure(slot.worker_id):
                raise RuntimeError(
                    f"worker slot {slot.worker_id} died "
                    f"{self._respawns.failures(slot.worker_id)} times; "
                    "aborting the run (systemic failure)"
                )
            # The replacement never inherits the chaos hook: the fault
            # being simulated happened; the recovery is under test.
            self._spawn(slot, with_chaos=False)
            self._requeue(job, "worker lost")

    def _requeue(self, job: _FunctionJob, why: str) -> None:
        if not self._lease_retries.record_failure(job.job_id):
            # No lease finished the function: report it aborted, with
            # a root-only space.
            root, fingerprint, key = canonical_root(job.request.function, self.config)
            dag = SpaceDAG(root.name)
            dag.add_node(key, 0, fingerprint.num_insts, fingerprint.cf_crc)
            job.result = EnumerationResult(
                dag, False, 0, 0, 0.0, f"shard_failed: {why}"
            )
            self._function_done(job)
            return
        # the lost lease's serial checkpoint (if it wrote one) carries
        # the function's progress over to the next lease
        job.resume = job.checkpoint_path is not None
        self._pending.appendleft(job)
        self._emit(
            "lease_reclaim",
            shard=job.job_id,
            retries=self._lease_retries.failures(job.job_id),
            why=why,
        )

    def _emit(self, name: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(name, **fields)
        if self.parallel.progress is not None:
            self.parallel.progress.event(name, **fields)


def enumerate_space_parallel(
    func: Function,
    config: Optional[EnumerationConfig] = None,
    parallel: Optional[ParallelConfig] = None,
    source: Optional[str] = None,
    label: Optional[str] = None,
) -> EnumerationResult:
    """Enumerate one function's space with the parallel service."""
    enumerator = ParallelEnumerator(config, parallel)
    request = EnumerationRequest(label or func.name, func, source)
    return enumerator.enumerate([request])[0]
