"""Chaos suite: the service under crashes, kills, drains, and storms.

The resilience contract these tests pin down:

* the server never returns a wrong DAG — every successful response is
  bit-identical to a serial enumeration, no matter how many executors
  were killed along the way;
* failures are structured errors with honest retry hints, never hangs;
* SIGTERM checkpoints in-flight work, and a restarted server on the
  same run dir resumes it bit-identically.

Workloads are chosen by measured timing: ``sha/byte_reverse`` reaches a
``max_nodes`` budget of 1200 in ~5s of steady expansion, which leaves a
wide window to kill or drain mid-flight, while the budget cutoff keeps
the final DAG deterministic.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.robustness.retry import RetryError, RetryPolicy
from repro.service.client import ServiceError, TransientServiceError
from repro.service.executor import _dag_fingerprint
from tests.parallel.conftest import bench_function
from tests.service.conftest import wait_for

#: steady ~4s workload; checkpoints land every 0.2s so a kill or drain
#: at any point loses almost nothing.  Validation plus fast sanitizing
#: of every edge keeps it slow enough to leave a kill window (the
#: unguarded run, with warm process caches, finishes too fast), and
#: changes nothing about the space.
SLOW = {
    "benchmark": "sha",
    "function": "byte_reverse",
    "config": {
        "max_nodes": 1200,
        "checkpoint_interval": 0.2,
        "validate": True,
        "sanitize": "fast",
    },
}

ONCE = RetryPolicy(max_attempts=1)


def serial_slow_fingerprint():
    result = enumerate_space(
        bench_function("sha", "byte_reverse"),
        EnumerationConfig(max_nodes=1200),
    )
    assert result.abort_reason == "max_nodes"
    return _dag_fingerprint(result.dag)


class Request(threading.Thread):
    """A client request running in a thread, capturing its outcome."""

    def __init__(self, client, **kwargs):
        super().__init__(daemon=True)
        self.client = client
        self.kwargs = kwargs
        self.response = None
        self.error = None
        self.start()

    def run(self):
        try:
            self.response = self.client.enumerate(**self.kwargs)
        except Exception as error:
            self.error = error

    def outcome(self, timeout=90.0):
        self.join(timeout=timeout)
        assert not self.is_alive(), "request hung"
        return self.response, self.error


def kill_executor(server, sig=signal.SIGKILL, timeout=20.0):
    """Wait for an executor pid to appear in /status, then signal it."""
    pids = wait_for(
        lambda: server.status()["executors"],
        timeout=timeout,
        message="an executor pid in /status",
    )
    os.kill(pids[0], sig)
    return pids[0]


class TestExecutorCrash:
    def test_kill_midflight_retries_to_a_bit_identical_dag(self, service):
        server = service(executor_retries=2)
        request = Request(server.client(policy=ONCE), **SLOW)
        kill_executor(server)
        response, error = request.outcome()
        assert error is None, error
        assert response["dag_fingerprint"] == serial_slow_fingerprint()
        assert response["instances"] == 1201
        events = [record["event"] for record in server.journal()]
        assert "request_retry" in events
        done = [
            record
            for record in server.journal()
            if record["event"] == "request_done"
        ]
        assert done[-1]["status"] == 200

    def test_crash_storm_is_a_structured_500(self, service):
        server = service(executor_retries=1)
        request = Request(server.client(policy=ONCE), **SLOW)
        for _ in range(2):  # first attempt + its one retry
            kill_executor(server)
            time.sleep(0.3)
        response, error = request.outcome()
        assert response is None
        assert isinstance(error, ServiceError)
        assert error.status == 500
        assert error.error == "executor_failed"
        assert error.body["attempts"] == 2


class TestCircuitBreaker:
    def test_repeated_crashes_quarantine_the_work_key(self, service):
        server = service(
            executor_retries=0, breaker_threshold=2, breaker_cooldown=60.0
        )
        for _ in range(2):
            request = Request(server.client(policy=ONCE), **SLOW)
            kill_executor(server)
            response, error = request.outcome()
            assert isinstance(error, ServiceError) and error.status == 500

        # the key is now circuit-broken: shed before any executor runs
        with pytest.raises(RetryError) as info:
            server.client(policy=ONCE).enumerate(**SLOW)
        shed = info.value.last_error
        assert isinstance(shed, TransientServiceError)
        assert shed.status == 503
        assert shed.error == "quarantined"
        assert shed.retry_after is not None and shed.retry_after > 0

        # quarantine is per work key, not per server: other work runs
        healthy = server.client().enumerate(
            benchmark="sha", function="rol", config={"max_nodes": 2000}
        )
        assert healthy["completed"] is True

        events = [record["event"] for record in server.journal()]
        assert "breaker_open" in events
        assert server.status()["breaker"]["open"]


class TestDeadlines:
    def test_deadline_expires_to_504_with_checkpoint(self, service):
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(deadline=2.0, **SLOW)
        assert info.value.status == 504
        assert info.value.error == "deadline_exceeded"
        assert info.value.body["checkpointed"] is True
        partial = info.value.body.get("partial")
        if partial is not None:
            assert partial["abort_reason"] == "time_limit"

    def test_deadline_work_is_resumable(self, service):
        # A deadline 504 is not wasted work: the checkpoint under the
        # work key lets an identical later request finish the job.
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(deadline=2.5, **SLOW)
        assert info.value.status == 504
        response = server.client().enumerate(**SLOW)
        assert response["resumed_from"]
        assert response["dag_fingerprint"] == serial_slow_fingerprint()


class TestOverload:
    def test_queue_full_storm_sheds_structured_429(self, service):
        server = service(workers=1, queue_depth=1)
        client = server.client(policy=ONCE)
        first = Request(client, deadline=6.0, **SLOW)
        wait_for(
            lambda: server.status()["in_flight"] == 1,
            message="first request executing",
        )
        other = dict(SLOW, config=dict(SLOW["config"], max_nodes=1100))
        second = Request(client, deadline=6.0, **other)
        wait_for(
            lambda: server.status()["queued"] == 1,
            message="second request queued",
        )

        with pytest.raises(RetryError) as info:
            client.compile(benchmark="sha", function="rol")
        shed = info.value.last_error
        assert isinstance(shed, TransientServiceError)
        assert shed.status == 429
        assert shed.error == "queue_full"
        assert shed.retry_after is not None and shed.retry_after > 0

        # the storm drains without hangs: both slow requests terminate
        # (at their deadlines at the latest) with structured outcomes
        for request in (first, second):
            response, error = request.outcome()
            assert response is not None or isinstance(error, ServiceError)

    def test_slow_client_gets_408(self, service):
        server = service(read_timeout=1.0)
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            sock.sendall(
                b"POST /compile HTTP/1.1\r\n"
                b"Content-Length: 100\r\n\r\n"
            )  # ... and never send the body
            sock.settimeout(10.0)
            reply = sock.recv(4096)
        assert b"408" in reply.split(b"\r\n", 1)[0]
        # the server is unharmed
        assert server.status()["status"] == "serving"


class TestFaultInjection:
    def test_injected_faults_surface_as_quarantine_not_errors(self, service):
        server = service()
        response = server.client().enumerate(
            benchmark="sha",
            function="rol",
            config={"max_nodes": 2000, "fault_rate": 1.0, "fault_seed": 7},
        )
        assert response["completed"] is True
        assert response["quarantine"], "every phase faults; none survive"
        # faulted runs are never cached: the store must stay empty
        store_dir = os.path.join(server.run_dir, "store")
        assert not os.path.isdir(store_dir) or not os.listdir(store_dir)


class TestDrainAndRestart:
    def test_sigterm_checkpoints_and_restart_resumes_bit_identically(
        self, service, tmp_path
    ):
        """The headline drain contract: SIGTERM mid-request checkpoints
        the enumeration, the server exits 0, and a restarted server on
        the same run dir serves the repeated request by resuming —
        producing a DAG bit-identical to an uninterrupted serial run."""
        run_dir = str(tmp_path / "drain")
        server = service(run_dir=run_dir)
        request = Request(server.client(policy=ONCE), **SLOW)
        wait_for(
            lambda: server.status()["in_flight"] == 1,
            message="request executing",
        )
        time.sleep(0.6)  # let a couple of checkpoints land
        server.signal(signal.SIGTERM)

        response, error = request.outcome()
        assert response is None
        assert isinstance(error, RetryError)  # 503 is transient; the
        shed = error.last_error  # no-retry policy exhausts immediately
        assert isinstance(shed, TransientServiceError)
        assert shed.status == 503
        assert shed.error == "draining"
        assert shed.body["checkpointed"] is True
        assert server.wait() == 0

        # the work key's checkpoint survived under state/
        state_dir = os.path.join(run_dir, "state")
        assert os.path.isdir(state_dir) and os.listdir(state_dir)

        restarted = service(run_dir=run_dir)
        response = restarted.client().enumerate(**SLOW)
        assert response["resumed_from"]
        assert response["instances"] == 1201
        assert response["dag_fingerprint"] == serial_slow_fingerprint()

        # one journal tells the whole story across both incarnations
        events = [record["event"] for record in restarted.journal()]
        assert events.count("server_start") == 2
        assert "server_drain" in events
        assert events.count("request_admitted") == 2

    def test_second_signal_stops_hard(self, service):
        server = service()
        Request(server.client(policy=ONCE), **SLOW)
        wait_for(
            lambda: server.status()["in_flight"] == 1,
            message="request executing",
        )
        server.signal(signal.SIGTERM)
        time.sleep(0.2)
        server.signal(signal.SIGTERM)
        assert server.wait(timeout=15.0) == 0
