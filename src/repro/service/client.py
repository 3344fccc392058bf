"""The bundled service client: stdlib HTTP + the shared retry policy.

One blocking client class over :mod:`http.client`, used by scripts,
the chaos tests, and the CI smoke job.  Transient failures — connection
refused/reset (a restarting server), ``429`` load shedding, ``503``
drain/quarantine — are retried with the exponential-backoff-plus-full-
jitter policy from :mod:`repro.robustness.retry`; a server-supplied
``Retry-After`` always wins over the computed backoff, so the client
cooperates with the server's admission control instead of hammering it.

Non-transient statuses (``400`` bad request, ``404``, ``500`` a
request whose worker kept failing, ``504`` deadline exceeded) raise
immediately: retrying them
either cannot help or must be the caller's decision.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Callable, Dict, Optional

from repro.robustness.retry import RetryError, RetryPolicy

#: statuses worth retrying: shed / draining / quarantined requests are
#: expected to succeed later, and the server said when to come back
TRANSIENT_STATUSES = (408, 429, 503)


def parse_retry_after(value: object) -> Optional[float]:
    """A usable backoff hint from a ``Retry-After`` value, or ``None``.

    The value may come from a response header or a JSON body, so it can
    be anything: a number, a numeric string, an HTTP-date, or garbage
    from a proxy.  Only a non-negative finite number of seconds is a
    hint worth honouring; everything else means "no hint" — the caller
    falls back to its own backoff rather than crashing the retry loop.
    """
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        seconds = float(value)
    elif isinstance(value, str):
        try:
            seconds = float(value.strip())
        except ValueError:
            return None
    else:
        return None
    if seconds != seconds or seconds in (float("inf"), float("-inf")):
        return None
    return seconds if seconds >= 0 else None


class ServiceError(Exception):
    """A structured error response from the service."""

    def __init__(
        self,
        status: int,
        body: Dict[str, object],
        request_id: Optional[str] = None,
    ):
        self.status = status
        self.body = body
        self.error = body.get("error", "unknown")
        self.detail = body.get("detail", "")
        self.retry_after = parse_retry_after(body.get("retry_after"))
        self.request_id = request_id
        super().__init__(f"HTTP {status} {self.error}: {self.detail}")


class TransientServiceError(ServiceError):
    """A retryable rejection (shed, draining, quarantined, slow-read)."""


class ServiceClient:
    """Blocking JSON client with retry, jitter, and deadline support."""

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[RetryPolicy] = None,
        timeout: float = 60.0,
        tenant: Optional[str] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.host = host
        self.port = port
        self.policy = (
            policy
            if policy is not None
            else RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=2.0)
        )
        #: per-attempt socket timeout (connect + response read)
        self.timeout = timeout
        self.tenant = tenant
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep
        self.clock = clock
        #: request ids of every response this client received (the
        #: journal join key; handy in tests and bug reports)
        self.request_ids: list = []

    # ------------------------------------------------------------------

    def _once(
        self, method: str, path: str, payload: Optional[Dict]
    ) -> Dict[str, object]:
        body = None
        headers = {}
        if payload is not None:
            if self.tenant is not None:
                payload = dict(payload)
                payload.setdefault("tenant", self.tenant)
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            request_id = response.getheader("X-Request-Id")
            if request_id:
                self.request_ids.append(request_id)
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                decoded = {"error": "bad_response", "detail": raw[:200].decode("latin-1")}
            if response.status == 200:
                return decoded
            hinted = parse_retry_after(response.getheader("Retry-After"))
            if hinted is not None and "retry_after" not in decoded:
                decoded["retry_after"] = hinted
            klass = (
                TransientServiceError
                if response.status in TRANSIENT_STATUSES
                else ServiceError
            )
            raise klass(response.status, decoded, request_id)
        finally:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        """One logical request, retried through transient failures.

        *deadline* bounds the whole retry loop in seconds; it is also
        forwarded to the server (which turns it into the enumeration's
        cooperative time budget), so client and server give up at the
        same moment with a checkpoint on disk.
        """
        if deadline is not None and payload is not None:
            payload = dict(payload)
            payload.setdefault("deadline", deadline)
        give_up_at = None if deadline is None else self.clock() + deadline
        last: Optional[Exception] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            if give_up_at is not None and self.clock() >= give_up_at:
                break
            try:
                return self._once(method, path, payload)
            except (
                TransientServiceError,
                ConnectionError,
                socket.timeout,
                http.client.HTTPException,
                OSError,
            ) as error:
                if isinstance(error, ServiceError) and not isinstance(
                    error, TransientServiceError
                ):
                    raise
                last = error
                if attempt >= self.policy.max_attempts:
                    break
                delay = self.policy.delay(attempt, self.rng)
                hinted = parse_retry_after(getattr(error, "retry_after", None))
                if hinted is not None:
                    # Server backpressure outranks the local jitter.
                    delay = max(delay, hinted)
                if give_up_at is not None:
                    remaining = give_up_at - self.clock()
                    if remaining <= 0:
                        break
                    delay = min(delay, remaining)
                self.sleep(delay)
        raise RetryError(
            f"request {method} {path} failed after {attempt} attempt(s)",
            attempts=attempt,
            last_error=last,
        )

    # ------------------------------------------------------------------
    # Convenience wrappers (one per request kind)
    # ------------------------------------------------------------------

    def enumerate(
        self,
        *,
        source: Optional[str] = None,
        benchmark: Optional[str] = None,
        function: str,
        config: Optional[Dict] = None,
        include_dag: bool = False,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "function": function,
            "include_dag": include_dag,
        }
        if source is not None:
            payload["source"] = source
        if benchmark is not None:
            payload["benchmark"] = benchmark
        if config:
            payload["config"] = config
        return self.request("POST", "/enumerate", payload, deadline)

    def compile(
        self,
        *,
        source: Optional[str] = None,
        benchmark: Optional[str] = None,
        function: Optional[str] = None,
        sequence: Optional[str] = None,
        batch: bool = False,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {"batch": batch}
        if source is not None:
            payload["source"] = source
        if benchmark is not None:
            payload["benchmark"] = benchmark
        if function is not None:
            payload["function"] = function
        if sequence is not None:
            payload["sequence"] = sequence
        return self.request("POST", "/compile", payload, deadline)

    def interactions(
        self,
        *,
        source: Optional[str] = None,
        benchmark: Optional[str] = None,
        functions: Optional[list] = None,
        config: Optional[Dict] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        if source is not None:
            payload["source"] = source
        if benchmark is not None:
            payload["benchmark"] = benchmark
        if functions is not None:
            payload["functions"] = functions
        if config:
            payload["config"] = config
        return self.request("POST", "/interactions", payload, deadline)

    def status(self) -> Dict[str, object]:
        return self.request("GET", "/status")
