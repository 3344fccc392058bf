"""The worker pool, and the parallel enumerator built on it.

:class:`WorkerPool` is the one process supervisor.  Its workers
(:mod:`repro.parallel.worker`) run submitted tasks, one at a time
each; a task names a module-level runner and its picklable arguments,
so each task carries its own config.  ``--jobs N`` submits one
:func:`~repro.parallel.worker.enumerate_function` task per function,
``repro serve`` one :func:`~repro.service.executor.run_spec` task per
request.

- **Leases.** Workers heartbeat their enumerator's attempt count.  A
  worker that dies, or whose count stalls past ``lease_timeout``, is
  terminated and respawned, and its task re-leased; runners resume
  from their checkpoint.  A task gets at most ``1 + MAX_SHARD_RETRIES``
  leases, then ends as ``shard_failed``; slots respawn without limit.
- **Stops.** :meth:`WorkerPool.cancel` sends one SIGTERM to a task's
  worker, :meth:`WorkerPool.drain` to every busy one; the enumerator
  checkpoints and returns, and a stopped task is never re-leased.

:class:`ParallelEnumerator` runs each function through
:func:`repro.core.driver.run_function`, the serial enumerator, so its
results are bit-identical to serial runs by construction; one
function's space is never split (``docs/PARALLEL.md`` says why).  With
a ``run_dir``, function *label* checkpoints to
``<run_dir>/<label>.ckpt.json`` in the serial format, so a parallel run
resumes serially (``--checkpoint ... --resume``) and vice versa.
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
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

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
from repro.parallel.worker import enumerate_function, worker_main


def resolve_start_method(explicit: Optional[str] = None) -> str:
    """*explicit*, else ``$REPRO_START_METHOD``, else fork where the
    platform has it."""
    if explicit is not None:
        return explicit
    env = os.environ.get("REPRO_START_METHOD")
    if env:
        return env
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class PoolTask:
    """One unit of pool work and, once finished, its outcome."""

    def __init__(self, task_id: int, runner: Callable, args: tuple, label: str):
        self.task_id = task_id
        self.runner = runner
        self.args = args
        #: display name in the journal (a function, a request id)
        self.label = label
        #: leases started so far
        self.attempts = 0
        #: worker slot of the latest lease
        self.worker: Optional[int] = None
        #: the runner's return value, once a lease finished the task
        self.payload = None
        #: why the task ended without a payload: ``shard_failed: ...``
        #: when its leases ran out, ``stopped`` when cancelled or drained
        self.error: Optional[str] = None
        #: cancel() or drain() reached the task while it ran
        self.stopped = False


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
        self.task: Optional[PoolTask] = None
        #: last heartbeat-reported attempt count, and when it moved
        self.attempts: Optional[int] = None
        self.last_progress = 0.0


class WorkerPool:
    """Long-lived worker processes running submitted tasks.

    One thread owns a pool: it calls :meth:`submit`, :meth:`poll`,
    :meth:`cancel`, :meth:`drain` and :meth:`close`.  :meth:`wake` is
    the one method other threads may call.
    """

    #: times a task is re-leased; its next lost lease ends it
    #: (shard_failed), so a task gets at most three leases
    MAX_SHARD_RETRIES = 2

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        lease_timeout: float = 30.0,
        heartbeat_interval: float = 0.5,
        forward_events: bool = False,
        profile: bool = False,
        chaos: Optional[Dict] = None,
        emit: Optional[Callable[..., None]] = None,
    ):
        #: seconds without enumeration progress before a lease is
        #: reclaimed; must exceed the worst-case single phase attempt
        self.lease_timeout = lease_timeout
        self._emit = emit if emit is not None else (lambda name, **fields: None)
        self._spec = {
            "heartbeat_interval": heartbeat_interval,
            "forward_events": forward_events,
            "profile": profile,
            "parent": os.getpid(),
        }
        #: with ``profile``: one cProfile stats dict per lease that ran
        #: to its end in a worker (a result or an error)
        self.profiles: List[Dict] = []
        self._chaos = chaos
        self._ctx = multiprocessing.get_context(resolve_start_method(start_method))
        self._pending = deque()
        self._finished: List[PoolTask] = []
        self._next_id = 0
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._slots = [_WorkerSlot(i) for i in range(workers)]
        for slot in self._slots:
            self._spawn(slot, with_chaos=True)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def submit(self, runner: Callable, args: Sequence, label: str) -> PoolTask:
        """Queue ``runner(*args, on_start=...)`` for the next free worker.

        *runner* must be a module-level function and *args* picklable;
        the runner's return value becomes the task's ``payload``.
        """
        task = PoolTask(self._next_id, runner, tuple(args), label)
        self._next_id += 1
        self._pending.append(task)
        return task

    def poll(self, timeout: float) -> List[PoolTask]:
        """Dispatch pending tasks to free workers, wait up to *timeout*
        for worker events, reclaim lost leases, and return the tasks
        finished since the last poll."""
        self._dispatch()
        self._pump(0.0 if self._finished else timeout)
        self._health()
        finished, self._finished = self._finished, []
        return finished

    def cancel(self, task: PoolTask) -> None:
        """Stop *task*: a queued one finishes at once; a running one's
        worker gets one SIGTERM and the task is not re-leased."""
        if task in self._pending:
            self._pending.remove(task)
            self._finish(task, "stopped")
        for slot in self._slots:
            if slot.task is task:
                task.stopped = True
                slot.process.terminate()

    def drain(self) -> None:
        """:meth:`cancel` every queued and running task."""
        running = [slot.task for slot in self._slots if slot.task is not None]
        for task in list(self._pending) + running:
            self.cancel(task)

    def close(self) -> None:
        """Stop and join the workers: idle ones exit on a sentinel; any
        still running two seconds later are killed."""
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
        os.close(self._wake_r)
        os.close(self._wake_w)

    def wake(self) -> None:
        """Make a blocked :meth:`poll` return early.  Thread-safe."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full of wakeups already

    def busy_pids(self) -> List[int]:
        """Process ids of the workers running a task."""
        return [slot.process.pid for slot in self._slots if slot.task is not None]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _spawn(self, slot: _WorkerSlot, with_chaos: bool) -> None:
        # The replacement never inherits the chaos hook: the fault
        # being simulated happened; the recovery is under test.
        spec = dict(self._spec, chaos=self._chaos if with_chaos else None)
        slot.task_queue = self._ctx.Queue()
        slot.event_queue = self._ctx.SimpleQueue()
        slot.process = self._ctx.Process(
            target=worker_main,
            args=(slot.worker_id, spec, slot.task_queue, slot.event_queue),
            daemon=True,
        )
        slot.process.start()

    def _dispatch(self) -> None:
        for slot in self._slots:
            if slot.task is None and self._pending:
                task = slot.task = self._pending.popleft()
                task.attempts += 1
                task.worker = slot.worker_id
                slot.task_queue.put({"runner": task.runner, "args": task.args})
                slot.attempts = None
                slot.last_progress = time.monotonic()
                self._emit(
                    "shard_dispatch",
                    shard=task.task_id,
                    worker=slot.worker_id,
                    label=task.label,
                )

    def _finish(self, task: PoolTask, error: Optional[str] = None) -> None:
        task.error = error
        self._finished.append(task)

    def _pump(self, timeout: float) -> None:
        if self._read_events():
            return
        # select()-based wakeup: react to the next event, or a worker's
        # death, immediately instead of polling on a sleep cadence
        connection_wait(
            [slot.event_queue._reader for slot in self._slots]
            + [slot.process.sentinel for slot in self._slots]
            + [self._wake_r],
            timeout,
        )
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass
        self._read_events()

    def _read_events(self) -> bool:
        handled = False
        for slot in self._slots:
            handled = self._read_slot(slot) or handled
        return handled

    def _read_slot(self, slot: _WorkerSlot) -> bool:
        handled = False
        # single reader: empty() == False guarantees get() returns
        while not slot.event_queue.empty():
            self._handle_event(slot, *slot.event_queue.get())
            handled = True
        return handled

    def _handle_event(self, slot: _WorkerSlot, kind: str, _worker_id: int, payload) -> None:
        if kind == "heartbeat":
            if payload["attempts"] != slot.attempts:
                slot.attempts = payload["attempts"]
                slot.last_progress = time.monotonic()
        elif kind == "event":
            name, fields = payload
            if "function" in fields and slot.task is not None:
                fields["function"] = slot.task.label
            self._emit(name, **fields)
        elif kind == "profile":
            self.profiles.append(payload)
        elif kind == "result":
            task, slot.task = slot.task, None
            task.payload = payload
            self._finish(task)
        elif kind == "shard_error":
            task, slot.task = slot.task, None
            self._emit(
                "shard_error",
                shard=task.task_id,
                worker=slot.worker_id,
                error=payload["error"],
                traceback=payload["traceback"],
            )
            self._lost(task, payload["error"])

    def _health(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            task = slot.task
            if slot.process.is_alive():
                if task is None or now - slot.last_progress <= self.lease_timeout:
                    continue
                self._emit("lease_timeout", worker=slot.worker_id, shard=task.task_id)
                slot.process.terminate()
                slot.process.join(2.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(1.0)
            else:
                # a worker posts its result before any graceful exit
                self._read_slot(slot)
                task = slot.task
                self._emit(
                    "worker_dead",
                    worker=slot.worker_id,
                    shard=None if task is None else task.task_id,
                )
            slot.task = None
            self._spawn(slot, with_chaos=False)
            if task is not None:
                self._lost(task, "worker lost")

    def _lost(self, task: PoolTask, why: str) -> None:
        if task.stopped:
            self._finish(task, "stopped")
        elif task.attempts > self.MAX_SHARD_RETRIES:
            self._finish(task, f"shard_failed: {why}")
        else:
            self._pending.appendleft(task)
            self._emit(
                "lease_reclaim", shard=task.task_id, retries=task.attempts, why=why
            )


class EnumerationRequest(NamedTuple):
    """One function to enumerate: a display label, the function, and —
    when the config consults the program — its program's mini-C
    source."""

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
        #: see :attr:`WorkerPool.lease_timeout`
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
        #: When None and a run_dir is set, the coordinator builds and
        #: owns one.
        self.tracer = tracer


class _FunctionJob:
    """Coordinator-side state of one requested function."""

    def __init__(self, request: EnumerationRequest, parallel: ParallelConfig):
        self.label = request.label
        self.request = request
        self.checkpoint_path = None
        if parallel.run_dir:
            name = re.sub(r"[^A-Za-z0-9_.-]", "_", request.label)
            self.checkpoint_path = os.path.join(parallel.run_dir, f"{name}.ckpt.json")
        self.result: Optional[EnumerationResult] = None


class ParallelEnumerator:
    """Multi-process exhaustive enumeration, one function per worker."""

    def __init__(
        self,
        config: Optional[EnumerationConfig] = None,
        parallel: Optional[ParallelConfig] = None,
        profile: bool = False,
    ):
        self.config = config if config is not None else EnumerationConfig()
        self.parallel = parallel if parallel is not None else ParallelConfig()
        self._check_supported(self.config)
        #: run each task under cProfile in its worker (``--profile``);
        #: their stats, one dict per lease, land in ``worker_profiles``
        self.profile = profile
        self.worker_profiles: List[Dict] = []
        self._instances = 0
        if self.parallel.run_dir:
            os.makedirs(self.parallel.run_dir, exist_ok=True)
        self._tracer = self.parallel.tracer
        self._owns_tracer = False
        if self._tracer is None and self.parallel.run_dir:
            # No caller-provided tracer: give the run dir its journal
            # and manifest here.
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
                "start_method": resolve_start_method(parallel.start_method),
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
        if config.needs_program():
            for request in requests:
                if request.source is None:
                    raise ValueError(
                        "difftest, sanitize and semantic collapse consult "
                        f"the program: pass the source for {request.label!r}"
                    )
        labels = set()
        for request in requests:
            if request.label in labels:
                raise ValueError(f"duplicate request label {request.label!r}")
            labels.add(request.label)
        self._emit("job_start", functions=len(requests), jobs=parallel.jobs)
        jobs = [_FunctionJob(request, parallel) for request in requests]
        for job in jobs:
            if not parallel.resume and job.checkpoint_path is not None:
                # A fresh run starts over; a stale checkpoint must not
                # be picked up by a task (which resumes what it finds).
                try:
                    os.unlink(job.checkpoint_path)
                except OSError:
                    pass
        if jobs:
            self._run_pool(jobs)
        if parallel.progress is not None:
            parallel.progress.tick(force=True)
        self._emit(
            "job_done",
            instances=self._instances,
            functions=len(jobs),
            completed=sum(1 for job in jobs if job.result.completed),
        )
        return [job.result for job in jobs]

    # ------------------------------------------------------------------
    # Driving the pool
    # ------------------------------------------------------------------

    def _run_pool(self, jobs: List[_FunctionJob]) -> None:
        parallel = self.parallel
        spec = self.config.to_dict()
        spec["checkpoint_interval"] = parallel.checkpoint_interval
        store_root = parallel.store.root if parallel.store is not None else None
        pool = WorkerPool(
            min(parallel.jobs, len(jobs)),
            start_method=parallel.start_method,
            lease_timeout=parallel.lease_timeout,
            heartbeat_interval=parallel.heartbeat_interval,
            forward_events=self._tracer is not None or parallel.progress is not None,
            profile=self.profile,
            chaos=parallel.chaos,
            emit=self._emit,
        )
        unfinished: Dict[int, _FunctionJob] = {}
        previous_sigterm = None
        try:
            for job in jobs:
                args = (
                    ckpt.function_to_dict(job.request.function),
                    spec,
                    job.request.source,
                    store_root,
                    job.checkpoint_path,
                )
                task = pool.submit(enumerate_function, args, job.label)
                unfinished[task.task_id] = job
            previous_sigterm = self._install_sigterm()
            try:
                self._drive(pool, unfinished)
            except KeyboardInterrupt:
                # checkpoint every running function, then re-raise
                pool.drain()
                self._drive(pool, unfinished)
                raise
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            pool.close()
            self.worker_profiles.extend(pool.profiles)

    def _install_sigterm(self):
        """SIGTERM parity with ^C: an orchestrator shutdown takes the
        same graceful path (checkpoint every running function, drain the
        pool) as KeyboardInterrupt.  Main thread only."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, frame):
            raise KeyboardInterrupt

        return signal.signal(signal.SIGTERM, _handler)

    def _drive(self, pool: WorkerPool, unfinished: Dict[int, _FunctionJob]) -> None:
        reporter = self.parallel.progress
        while unfinished:
            for task in pool.poll(0.05):
                self._task_done(unfinished.pop(task.task_id), task)
            if reporter is not None:
                reporter.gauges(
                    queue_depth=len(unfinished),
                    busy=len(pool.busy_pids()),
                    instances=self._instances,
                )
                reporter.tick()

    def _task_done(self, job: _FunctionJob, task: PoolTask) -> None:
        payload = task.payload
        if payload is None:
            if task.error == "stopped":
                return  # drained before it produced a result
            # No lease finished the function: report it aborted, with
            # a root-only space.
            root, fingerprint, key = canonical_root(job.request.function, self.config)
            dag = SpaceDAG(root.name)
            dag.add_node(key, 0, fingerprint.num_insts, fingerprint.cf_crc)
            job.result = EnumerationResult(dag, False, 0, 0, 0.0, task.error)
            self._function_done(job)
            return
        if "checkpoint_error" in payload:
            raise ckpt.CheckpointError(payload["checkpoint_error"])
        result = job.result = payload["result"]
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
            shard=task.task_id,
            worker=task.worker,
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
