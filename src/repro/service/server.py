"""The resilient enumeration server behind ``repro serve``.

A single-process asyncio front end speaking a minimal JSON-over-HTTP/1.1
protocol (hand-rolled on :func:`asyncio.start_server`; the toolchain is
stdlib-only by design).  Every admitted request runs as a
:func:`~repro.service.executor.run_spec` task on one long-lived
:class:`~repro.parallel.coordinator.WorkerPool` of ``workers``
processes, the same pool ``--jobs N`` uses; the server itself never
enumerates, so no request can wedge or crash it.  One thread owns the
pool and hands finished tasks back to the event loop.

Resilience layers, in admission order (see docs/SERVICE.md):

- **load shedding** — a bounded admission queue; past the depth or the
  memory watermark, requests are shed with ``429``/``503`` and a
  ``Retry-After`` the bundled client honors;
- **tenant fairness** — per-tenant token buckets and concurrency
  quotas, so one noisy client degrades itself, not the service;
- **crash retry** — a worker that dies or stalls mid-request is
  respawned and the request's task re-leased from its checkpoint, at
  most three leases in all;
- **circuit breaker** — work that repeatedly crashes its worker is
  quarantined per work key (open → cooldown → half-open probe);
- **request coalescing** — identical concurrent requests share one
  execution and one store write;
- **deadlines** — a request deadline propagates into the enumeration's
  cooperative time budget; overruns get a structured ``504`` and leave
  a resumable checkpoint;
- **graceful drain** — SIGTERM/SIGINT stops admitting, SIGTERMs the
  busy workers (whose enumerations checkpoint under their stable work
  keys), and a restarted server resumes the same work bit-identically.

Responses always carry ``X-Request-Id``; the same id threads through
the run dir's ``events.jsonl``, so ``repro report`` and one grep give
any response its full server-side history.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import sys
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.observability.manifest import build_manifest
from repro.observability.tracer import Tracer
from repro.service import protocol
from repro.service.admission import CircuitBreaker, Tenant

if TYPE_CHECKING:
    # imported where used: clients import this package too, and need
    # none of the engine the pool and its runner bring in
    from repro.parallel.coordinator import PoolTask, WorkerPool

#: marker file a started server writes into its run dir, so clients and
#: tests can discover the bound port (``port=0`` binds an ephemeral one)
SERVICE_FILE = "service.json"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: largest accepted request body
MAX_BODY = 2 * 1024 * 1024

#: seconds past a request's deadline the server waits for the
#: enumeration's own time budget (which starts later, in the worker)
#: to stop it and report its partial result, before cancelling it
DEADLINE_SLACK = 2.0


class ServiceConfig:
    """Tunables of one server instance (see docs/SERVICE.md)."""

    def __init__(
        self,
        run_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 8,
        tenant_rate: float = 10.0,
        tenant_burst: float = 20.0,
        tenant_concurrency: int = 4,
        default_deadline: Optional[float] = None,
        max_deadline: float = 600.0,
        read_timeout: float = 10.0,
        drain_grace: float = 20.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        store_root: Optional[str] = None,
        memory_watermark_mb: Optional[float] = None,
        memory_gauge: Optional[Callable[[], float]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.run_dir = run_dir
        self.host = host
        self.port = port
        #: worker processes in the pool (concurrent requests)
        self.workers = workers
        #: admitted requests allowed to wait for a worker slot; beyond
        #: this the server sheds with 429 queue_full
        self.queue_depth = queue_depth
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.tenant_concurrency = tenant_concurrency
        #: deadline applied when the request names none (None = no limit)
        self.default_deadline = default_deadline
        #: hard ceiling on any requested deadline
        self.max_deadline = max_deadline
        #: seconds a client has to deliver its request bytes
        self.read_timeout = read_timeout
        #: seconds a draining server waits for in-flight work
        self.drain_grace = drain_grace
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        #: SpaceStore directory shared by all requests (the
        #: cross-request cache); defaults to ``<run_dir>/store``
        self.store_root = (
            store_root
            if store_root is not None
            else os.path.join(run_dir, "store")
        )
        #: shed with 503 when resident memory exceeds this (None = off)
        self.memory_watermark_mb = memory_watermark_mb
        #: injectable for tests; defaults to the process RSS in MB
        self.memory_gauge = memory_gauge
        self.clock = clock


def _process_rss_mb() -> float:
    """Resident set size of this process in MB (Linux; 0.0 elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


class _BadRequest(Exception):
    def __init__(self, status: int, detail: str):
        self.status = status
        self.detail = detail


async def _read_http(
    reader: asyncio.StreamReader, timeout: float
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request; the timeout covers every read, so a
    slow (or stalled) client cannot hold a connection open."""
    line = await asyncio.wait_for(reader.readline(), timeout)
    if not line:
        raise ConnectionResetError("client closed before sending a request")
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise _BadRequest(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout)
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, _, value = text.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _BadRequest(400, "bad Content-Length")
    if length < 0 or length > MAX_BODY:
        raise _BadRequest(413, f"body exceeds {MAX_BODY} bytes")
    body = b""
    if length:
        body = await asyncio.wait_for(reader.readexactly(length), timeout)
    return method, path, headers, body


def _encode_response(
    status: int,
    body: Dict[str, object],
    request_id: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    if request_id is not None:
        lines.append(f"X-Request-Id: {request_id}")
    if retry_after is not None:
        # Ceil to a whole second; zero would mean "retry immediately",
        # defeating the backpressure the header exists to apply.
        lines.append(f"Retry-After: {max(1, int(retry_after + 0.999))}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + payload


class _Submission:
    """One request's pool task, as the server tracks it."""

    def __init__(self, request_id: str, key: str, future: asyncio.Future):
        self.request_id = request_id
        self.key = key
        #: resolves to the finished :class:`PoolTask`
        self.future = future
        #: set by the pool thread when it submits the task
        self.task: Optional[PoolTask] = None


def _resolve(future: asyncio.Future, value) -> None:
    if not future.done():
        future.set_result(value)


class EnumerationServer:
    """One long-lived service instance bound to one run dir."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        os.makedirs(config.run_dir, exist_ok=True)
        self.tracer = Tracer(
            run_dir=config.run_dir,
            manifest=build_manifest(
                tool="repro.serve",
                config={
                    "workers": config.workers,
                    "queue_depth": config.queue_depth,
                    "tenant_rate": config.tenant_rate,
                    "tenant_concurrency": config.tenant_concurrency,
                    "breaker_threshold": config.breaker_threshold,
                },
                argv=sys.argv[1:],
            ),
        )
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            clock=config.clock,
            on_transition=self._breaker_event,
        )
        self.tenants: Dict[str, Tenant] = {}
        #: work key -> future resolving to (status, body, retry_after);
        #: concurrent identical requests await the leader's future
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pool: Optional[WorkerPool] = None
        self._pool_thread: Optional[threading.Thread] = None
        #: callables for the pool thread to run (None stops it)
        self._commands: queue.SimpleQueue = queue.SimpleQueue()
        #: pool-thread state: task id -> its request
        self._submissions: Dict[int, _Submission] = {}
        #: pids of the busy workers, as the pool thread last saw them
        self._busy_pids: List[int] = []
        #: requests whose task is submitted and not yet finished
        self._running = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        self.draining = False
        self._handlers = 0
        self._waiting = 0
        self._next_id = 0
        self._started = config.clock()
        self.counters = {
            "admitted": 0,
            "coalesced": 0,
            "done": 0,
            "failed": 0,
            "interrupted": 0,
            "retried": 0,
            "shed": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Bind, announce, and run until drained."""
        loop = self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.config.workers)
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # Not loop.add_signal_handler: closing the loop puts the default
        # action back, and a second signal landing in the teardown after
        # that would kill the process instead of being the hard stop.
        # This handler outlives the loop; serve_main then ignores both.
        def on_signal(*_) -> None:
            if not loop.is_closed():
                loop.call_soon_threadsafe(self.request_drain)

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, on_signal)
        from repro.parallel.coordinator import resolve_start_method

        # Fork-started workers copy this process as it is, with nothing
        # more to import before the announcement; spawn-started ones
        # import everything afresh, so they start after it.
        fork = resolve_start_method() == "fork"
        if fork:
            self._start_pool()
        self.tracer.emit("run_start", tool="repro.serve")
        self.tracer.emit("server_start", port=self.port)
        self._announce()
        if not fork:
            self._start_pool()
        try:
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self._commands.put(None)
            self._pool.wake()
            self._pool_thread.join()
            # retract the announce file: a drained run dir must not
            # advertise a dead endpoint to clients or a restarted server
            try:
                os.unlink(os.path.join(self.config.run_dir, SERVICE_FILE))
            except OSError:
                pass
            self.tracer.emit("server_stop", served=self.counters["done"])
            self.tracer.close(ok=True)

    def _announce(self) -> None:
        facts = {"host": self.config.host, "port": self.port, "pid": os.getpid()}
        path = os.path.join(self.config.run_dir, SERVICE_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(facts, handle)
        print(json.dumps({"repro_serve": facts}), flush=True)

    def request_drain(self) -> None:
        """First signal: stop admitting, checkpoint in-flight work.
        Second signal: hard stop (closing the pool kills busy workers)."""
        if self.draining:
            if self._stopped is not None:
                self._stopped.set()
            return
        self.draining = True
        self.tracer.emit("server_drain", in_flight=self._running)
        if self._pool is not None:
            self._to_pool(self._pool.drain)
        self._drain_task = asyncio.ensure_future(self._finish_drain())

    async def _finish_drain(self) -> None:
        deadline = self.config.clock() + self.config.drain_grace
        while self._handlers > 0 and self.config.clock() < deadline:
            await asyncio.sleep(0.05)
        self._stopped.set()

    # ------------------------------------------------------------------
    # The pool thread
    # ------------------------------------------------------------------

    def _start_pool(self) -> None:
        from repro.parallel.coordinator import WorkerPool

        self._pool = WorkerPool(self.config.workers, emit=self._pool_event)
        self._pool_thread = threading.Thread(
            target=self._drive_pool, name="repro-pool", daemon=True
        )
        self._pool_thread.start()

    def _to_pool(self, command: Callable[[], None]) -> None:
        """Run *command* on the pool thread (from the event loop)."""
        self._commands.put(command)
        self._pool.wake()

    def _drive_pool(self) -> None:
        """The pool thread: run commands, hand finished tasks back."""
        pool = self._pool
        while True:
            try:
                while True:
                    command = self._commands.get_nowait()
                    if command is None:
                        pool.close()
                        return
                    command()
            except queue.Empty:
                pass
            for task in pool.poll(1.0):
                submission = self._submissions.pop(task.task_id)
                self._loop.call_soon_threadsafe(
                    _resolve, submission.future, task
                )
            self._busy_pids = pool.busy_pids()

    def _submit(self, submission: _Submission, spec: Dict[str, object]) -> None:
        """Pool thread: queue a request's task."""
        from repro.service.executor import run_spec

        submission.task = self._pool.submit(
            run_spec, (spec,), submission.request_id
        )
        self._submissions[submission.task.task_id] = submission

    def _pool_event(self, name: str, **fields) -> None:
        """Pool thread: journal a lease event; a re-lease is a retry of
        its request."""
        self.tracer.emit(name, **fields)
        if name == "lease_reclaim":
            submission = self._submissions[fields["shard"]]
            self._loop.call_soon_threadsafe(
                self._task_retried, submission, fields["retries"]
            )

    def _task_retried(self, submission: _Submission, attempt: int) -> None:
        # The re-lease resumes the same state dir: the checkpoint
        # survives, so finished levels are free.
        self.counters["retried"] += 1
        self.tracer.emit(
            "request_retry", request=submission.request_id, attempt=attempt
        )
        self.breaker.record_failure(submission.key)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_id = self._new_request_id()
        try:
            try:
                method, path, _headers, body = await _read_http(
                    reader, self.config.read_timeout
                )
            except asyncio.TimeoutError:
                await self._respond(
                    writer,
                    408,
                    {"error": "request_timeout", "detail": "slow client"},
                    request_id,
                )
                return
            except _BadRequest as error:
                await self._respond(
                    writer,
                    error.status,
                    {"error": "bad_request", "detail": error.detail},
                    request_id,
                )
                return
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                UnicodeDecodeError,
            ):
                return
            status, response, retry_after = await self._dispatch(
                request_id, method, path, body
            )
            await self._respond(writer, status, response, request_id, retry_after)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            except asyncio.CancelledError:
                # loop teardown cancelled the handler while the socket
                # was flushing; the response (if any) is already out and
                # swallowing here keeps shutdown logs clean
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, object],
        request_id: str,
        retry_after: Optional[float] = None,
    ) -> None:
        try:
            writer.write(_encode_response(status, body, request_id, retry_after))
            await asyncio.wait_for(writer.drain(), self.config.read_timeout)
        except (ConnectionError, asyncio.TimeoutError, OSError):
            pass  # the client is gone; its work (if any) is checkpointed

    def _new_request_id(self) -> str:
        self._next_id += 1
        return f"r{self._next_id:06d}"

    # ------------------------------------------------------------------
    # Dispatch + admission
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request_id: str, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        if method == "GET" and path in ("/status", "/healthz"):
            return 200, self._status_body(), None
        if method != "POST":
            return 404, {"error": "not_found", "detail": f"{method} {path}"}, None
        kind = path.lstrip("/")
        if kind not in protocol.KINDS:
            return (
                404,
                {
                    "error": "not_found",
                    "detail": f"POST path must be one of "
                    f"{', '.join('/' + k for k in protocol.KINDS)}",
                },
                None,
            )
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "bad_request", "detail": "body is not JSON"}, None
        try:
            tenant_name = protocol.tenant_of(payload)
            deadline = protocol.deadline_of(payload)
            normalized = protocol.validate_request(kind, payload)
        except protocol.RequestError as error:
            return 400, {"error": "bad_request", "detail": str(error)}, None
        return await self._admit(request_id, tenant_name, deadline, normalized)

    def _shed(
        self,
        request_id: str,
        tenant: Optional[Tenant],
        reason: str,
        status: int,
        retry_after: Optional[float],
        detail: str,
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        self.counters["shed"] += 1
        if tenant is not None:
            tenant.shed += 1
        self.tracer.emit("request_shed", request=request_id, reason=reason)
        body: Dict[str, object] = {"error": reason, "detail": detail}
        if retry_after is not None:
            body["retry_after"] = round(retry_after, 3)
        return status, body, retry_after

    async def _admit(
        self,
        request_id: str,
        tenant_name: str,
        deadline: Optional[float],
        normalized: Dict[str, object],
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        config = self.config
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            tenant = self.tenants[tenant_name] = Tenant(
                config.tenant_rate,
                config.tenant_burst,
                config.tenant_concurrency,
                config.clock,
            )
        if self.draining:
            return self._shed(
                request_id, tenant, "draining", 503, config.drain_grace,
                "server is draining; in-flight work is being checkpointed",
            )
        if config.memory_watermark_mb is not None:
            gauge = config.memory_gauge or _process_rss_mb
            rss = gauge()
            if rss >= config.memory_watermark_mb:
                return self._shed(
                    request_id, tenant, "memory_pressure", 503, 2.0,
                    f"resident memory {rss:.0f} MB is over the "
                    f"{config.memory_watermark_mb:.0f} MB watermark",
                )
        admitted, retry_after = tenant.bucket.take()
        if not admitted:
            return self._shed(
                request_id, tenant, "rate_limited", 429, retry_after,
                f"tenant {tenant_name!r} is over its request rate",
            )
        if tenant.in_flight >= tenant.concurrency:
            return self._shed(
                request_id, tenant, "tenant_quota", 429, 1.0,
                f"tenant {tenant_name!r} already has {tenant.in_flight} "
                "requests in flight",
            )
        if self._waiting >= config.queue_depth:
            return self._shed(
                request_id, tenant, "queue_full", 429,
                1.0 + self._waiting * 0.5,
                f"admission queue is full ({self._waiting} waiting)",
            )
        key = protocol.work_key(normalized)
        allowed, retry_after = self.breaker.allow(key)
        if not allowed:
            return self._shed(
                request_id, tenant, "quarantined", 503, retry_after,
                f"work key {key} is circuit-broken "
                f"({self.breaker.failures(key)} recent failures)",
            )

        deadline_abs = None
        if deadline is not None or config.default_deadline is not None:
            limit = min(
                deadline if deadline is not None else config.max_deadline,
                config.max_deadline,
            )
            if config.default_deadline is not None and deadline is None:
                limit = config.default_deadline
            deadline_abs = config.clock() + limit

        tenant.in_flight += 1
        tenant.admitted += 1
        self._handlers += 1
        try:
            leader_future = self._inflight.get(key)
            if leader_future is not None:
                self.counters["coalesced"] += 1
                self.tracer.emit(
                    "request_coalesced",
                    request=request_id,
                    into=key,
                )
                status, body, retry_after = await asyncio.shield(leader_future)
                body = dict(body)
                body["request_id"] = request_id
                body["coalesced"] = True
                return status, body, retry_after
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self.counters["admitted"] += 1
            self.tracer.emit(
                "request_admitted", request=request_id, kind=normalized["kind"]
            )
            try:
                outcome = await self._execute(
                    request_id, key, normalized, deadline_abs
                )
            except BaseException:
                outcome = (
                    500,
                    {"error": "internal", "detail": "unexpected server error"},
                    None,
                )
                raise
            finally:
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_result(outcome)
            status, body, retry_after = outcome
            body = dict(body)
            body["request_id"] = request_id
            return status, body, retry_after
        finally:
            self._handlers -= 1
            tenant.in_flight -= 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def _execute(
        self,
        request_id: str,
        key: str,
        normalized: Dict[str, object],
        deadline_abs: Optional[float],
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        config = self.config
        self._waiting += 1
        try:
            await self._slots.acquire()
        finally:
            self._waiting -= 1
        try:
            if self.draining:
                return (
                    503,
                    {
                        "error": "draining",
                        "detail": "server began draining before execution",
                    },
                    config.drain_grace,
                )
            spec = dict(normalized, config=dict(normalized["config"]))
            # State lives under the *work key*, not the request id: a
            # re-leased, coalesced, or post-restart successor request
            # finds and resumes the same checkpoints.
            spec["state_dir"] = os.path.join(config.run_dir, "state", key)
            spec["store_root"] = config.store_root
            remaining = None
            deadline_limited = False
            if deadline_abs is not None:
                remaining = deadline_abs - config.clock()
                if remaining <= 0:
                    return self._deadline_response(key)
                user_limit = spec["config"].get("time_limit")
                if user_limit is None or remaining < user_limit:
                    spec["config"]["time_limit"] = remaining
                    deadline_limited = True
            task, overran = await self._run(request_id, key, spec, remaining)
            return self._interpret(request_id, key, task, deadline_limited, overran)
        finally:
            self._slots.release()

    async def _run(
        self,
        request_id: str,
        key: str,
        spec: Dict[str, object],
        remaining: Optional[float],
    ) -> Tuple[PoolTask, bool]:
        """Run a request's task; returns it finished, and whether the
        server had to cancel it at the deadline."""
        submission = _Submission(request_id, key, self._loop.create_future())
        self._to_pool(lambda: self._submit(submission, spec))
        self._running += 1
        try:
            if remaining is None:
                return await submission.future, False
            try:
                task = await asyncio.wait_for(
                    asyncio.shield(submission.future), remaining + DEADLINE_SLACK
                )
                return task, False
            except asyncio.TimeoutError:
                # The time budget did not stop it: cancel (one SIGTERM,
                # which the enumeration turns into a checkpoint) and
                # answer once the task is over, so a repeated request
                # finds the checkpoint written and unlocked.  A worker
                # that ignores the signal loses its lease.
                self._to_pool(lambda: self._pool.cancel(submission.task))
                return await submission.future, True
        finally:
            self._running -= 1

    def _deadline_response(
        self, key: str, partial: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        state_dir = os.path.join(self.config.run_dir, "state", key)
        body: Dict[str, object] = {
            "error": "deadline_exceeded",
            "detail": "request deadline expired; partial enumeration "
            "state is checkpointed and a repeated request resumes it",
            "checkpointed": os.path.isdir(state_dir),
        }
        if partial is not None:
            body["partial"] = partial
        return 504, body, None

    def _interpret(
        self,
        request_id: str,
        key: str,
        task: PoolTask,
        deadline_limited: bool,
        overran: bool,
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """Map a finished task to a response."""
        result = task.payload
        if result is not None and "error" in result:
            response = (400, result, None)
        elif overran or (
            deadline_limited
            and result is not None
            and result.get("abort_reason") == "time_limit"
        ):
            self.counters["failed"] += 1
            response = self._deadline_response(key, result)
        elif task.error == "stopped" or (
            result is not None and result.get("interrupted")
        ):
            # Graceful interruption: a drain (or an operator signaling
            # the worker directly).
            self.counters["interrupted"] += 1
            body: Dict[str, object] = {
                "error": "draining",
                "detail": "enumeration checkpointed mid-request; retry "
                "against the restarted server to resume bit-identically",
                "checkpointed": True,
            }
            if result is not None:
                body["partial"] = result
            response = (503, body, self.config.drain_grace)
        elif result is None:
            # every lease was lost: a crash storm, not a client error
            self.breaker.record_failure(key)
            self.counters["failed"] += 1
            response = (
                500,
                {
                    "error": "executor_failed",
                    "detail": f"the request's worker failed {task.attempts} "
                    f"time(s) ({task.error}); work key {key} counts "
                    "toward its circuit breaker",
                    "attempts": task.attempts,
                },
                None,
            )
        else:
            self.breaker.record_success(key)
            self.counters["done"] += 1
            response = (200, result, None)
        self.tracer.emit("request_done", request=request_id, status=response[0])
        return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _breaker_event(self, what: str, key: str, failures: int) -> None:
        if what == "open":
            self.tracer.emit("breaker_open", key=key, failures=failures)
        elif what == "probe":
            self.tracer.emit("breaker_probe", key=key)
        else:
            self.tracer.emit("breaker_close", key=key, failures=failures)

    def _status_body(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.draining else "serving",
            "uptime": round(self.config.clock() - self._started, 3),
            "port": self.port,
            "run_dir": self.config.run_dir,
            "in_flight": self._running,
            "queued": self._waiting,
            "handlers": self._handlers,
            "counters": dict(self.counters),
            "tenants": {
                name: tenant.snapshot()
                for name, tenant in sorted(self.tenants.items())
            },
            "breaker": {"open": self.breaker.open_keys()},
            "workers": list(self._busy_pids),
        }


def serve_main(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    server = EnumerationServer(config)
    asyncio.run(server.serve())
    # Stopped: a later signal has nothing left to stop.  Interpreter
    # shutdown resets Python-level handlers to the default action, which
    # would kill the process, so ignore the signals from here on.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)
    return 0
