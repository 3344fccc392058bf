"""Chaos suite: the service under crashes, kills, drains, and storms.

The resilience contract these tests pin down:

* the server never returns a wrong DAG — every successful response is
  bit-identical to a serial enumeration, no matter how many pool
  workers were killed along the way;
* failures are structured errors with honest retry hints, never hangs;
* SIGTERM checkpoints in-flight work, and a restarted server on the
  same run dir resumes it bit-identically.

Workloads are chosen by measured timing: ``sha/byte_reverse`` reaches a
``max_nodes`` budget of 3000 in ~2s of steady, validated and sanitized
in-process expansion (a few seconds through the service), which leaves
a wide window to kill or drain mid-flight, while the budget cutoff
keeps the final DAG deterministic.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.robustness.retry import RetryError, RetryPolicy
from repro.service.client import ServiceError, TransientServiceError
from tests.parallel.conftest import bench_function
from tests.service.conftest import wait_for

#: the SLOW budget, and the instances its DAG holds when the budget
#: stops it (the node being expanded completes)
SLOW_NODES = 3000
SLOW_INSTANCES = 3001
#: steady multi-second workload; checkpoints land every 0.2s so a kill
#: or drain at any point loses almost nothing.  Validation plus fast
#: sanitizing of every edge keeps it slow enough to leave a kill window
#: (the unguarded run, with warm process caches, finishes too fast),
#: and changes nothing about the space.
SLOW = {
    "benchmark": "sha",
    "function": "byte_reverse",
    "config": {
        "max_nodes": SLOW_NODES,
        "checkpoint_interval": 0.2,
        "validate": True,
        "sanitize": "fast",
    },
}

ONCE = RetryPolicy(max_attempts=1)


def serial_slow_fingerprint():
    result = enumerate_space(
        bench_function("sha", "byte_reverse"),
        EnumerationConfig(max_nodes=SLOW_NODES),
    )
    assert result.abort_reason == "max_nodes"
    return dag_digest(result.dag)


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


def kill_worker(server, sig=signal.SIGKILL, spared=(), timeout=20.0):
    """Wait for a busy pool worker's pid in /status (not one of
    *spared*, the workers already killed), then signal it."""
    pid = wait_for(
        lambda: next(
            (pid for pid in server.status()["workers"] if pid not in spared),
            None,
        ),
        timeout=timeout,
        message="a busy worker pid in /status",
    )
    os.kill(pid, sig)
    return pid


def kill_every_lease(server):
    """Kill the worker of each of a task's three leases."""
    killed = []
    for _ in range(3):
        killed.append(kill_worker(server, spared=killed))


class TestExecutorCrash:
    def test_kill_midflight_retries_to_a_bit_identical_dag(self, service):
        server = service()
        request = Request(server.client(policy=ONCE), **SLOW)
        kill_worker(server)
        response, error = request.outcome()
        assert error is None, error
        assert response["dag_fingerprint"] == serial_slow_fingerprint()
        assert response["instances"] == SLOW_INSTANCES
        events = [record["event"] for record in server.journal()]
        assert "request_retry" in events
        done = [
            record
            for record in server.journal()
            if record["event"] == "request_done"
        ]
        assert done[-1]["status"] == 200

    def test_crash_storm_is_a_structured_500(self, service):
        server = service()
        request = Request(server.client(policy=ONCE), **SLOW)
        kill_every_lease(server)
        response, error = request.outcome()
        assert response is None
        assert isinstance(error, ServiceError)
        assert error.status == 500
        assert error.error == "executor_failed"
        assert error.body["attempts"] == 3
        # the pool respawned every slot: the server still serves
        assert server.client().compile(benchmark="sha", function="rol")

    def test_a_kill_in_each_of_four_requests_never_exhausts_the_pool(
        self, service
    ):
        """Worker deaths have no budget of their own: the first free
        worker takes each request, so one slot dies four times, and
        every request still completes bit-identically."""
        server = service()
        expected = serial_slow_fingerprint()
        killed = []
        for index in range(4):
            # a distinct work key per request (same space), so none
            # resumes another's checkpoint
            config = dict(SLOW["config"], checkpoint_interval=0.2 + index / 100)
            request = Request(server.client(policy=ONCE), **dict(SLOW, config=config))
            killed.append(kill_worker(server, spared=killed))
            response, error = request.outcome()
            assert error is None, error
            assert response["dag_fingerprint"] == expected
        assert server.status()["status"] == "serving"
        events = [record["event"] for record in server.journal()]
        assert events.count("request_retry") == 4
        assert events.count("worker_dead") == 4

    def test_sigterm_to_a_worker_does_not_drain_the_server(self, service):
        """A fork-started worker must not carry the server's signal
        wakeup fd: a SIGTERM aimed at one worker stops that worker's
        enumeration (checkpointed), never the whole server."""
        server = service()
        request = Request(server.client(policy=ONCE), **SLOW)
        kill_worker(server, sig=signal.SIGTERM)
        response, error = request.outcome()
        if error is not None:  # interrupted mid-enumeration: transient
            assert isinstance(error, RetryError)
            assert error.last_error.status == 503
            assert error.last_error.body["checkpointed"] is True
        assert server.status()["status"] == "serving"
        events = [record["event"] for record in server.journal()]
        assert "server_drain" not in events
        response = server.client().enumerate(**SLOW)
        assert response["dag_fingerprint"] == serial_slow_fingerprint()


class TestCircuitBreaker:
    def test_repeated_crashes_quarantine_the_work_key(self, service):
        server = service(breaker_threshold=3, breaker_cooldown=60.0)
        request = Request(server.client(policy=ONCE), **SLOW)
        kill_every_lease(server)  # three crashes of one work key
        response, error = request.outcome()
        assert isinstance(error, ServiceError) and error.status == 500

        # the key is now circuit-broken: shed before any worker runs it
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
        other = dict(SLOW, config=dict(SLOW["config"], max_nodes=SLOW_NODES - 100))
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
        assert response["instances"] == SLOW_INSTANCES
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
