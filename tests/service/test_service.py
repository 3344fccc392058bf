"""Live-server integration tests: request kinds, admission, coalescing.

Each test drives a real ``repro serve`` subprocess through the bundled
:class:`~repro.service.client.ServiceClient`.  The structural claims —
shed requests carry Retry-After, coalesced requests share one
execution and one store write, service DAGs are bit-identical to
serial enumeration — are all asserted against observable state: HTTP
responses, the run dir's journal, and the store directory.
"""

import os
import threading

import pytest

from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.robustness.retry import RetryError, RetryPolicy
from repro.service.client import ServiceError, TransientServiceError
from tests.parallel.conftest import bench_function
from tests.service.conftest import wait_for

SOURCE = "int add3(int x) { return x + 3; }"


def serial_fingerprint(bench, name, **config):
    result = enumerate_space(
        bench_function(bench, name), EnumerationConfig(**config)
    )
    return dag_digest(result.dag), result


class TestRequestKinds:
    def test_enumerate_matches_serial_bit_identically(self, service):
        server = service()
        response = server.client().enumerate(
            benchmark="sha", function="rol", config={"max_nodes": 2000}
        )
        assert response["completed"] is True
        expected, reference = serial_fingerprint("sha", "rol", max_nodes=2000)
        assert response["instances"] == len(reference.dag)
        assert response["dag_fingerprint"] == expected
        assert response["request_id"].startswith("r")

    def test_include_dag_returns_the_space(self, service):
        server = service()
        response = server.client().enumerate(
            benchmark="fft",
            function="fcos",
            include_dag=True,
            config={"max_nodes": 2000},
        )
        assert response["dag"]["nodes"]
        assert len(response["dag"]["nodes"]) == response["instances"]

    def test_compile(self, service):
        server = service()
        response = server.client().compile(
            benchmark="sha", function="rol", sequence="sck"
        )
        row = response["functions"]["rol"]
        assert row["instructions"] > 0
        assert set(row["active"]) <= set("sck")
        assert row["rtl"].strip().splitlines()[0].endswith(":")

    def test_interactions(self, service):
        server = service()
        response = server.client().interactions(
            source=SOURCE, config={"max_nodes": 500}
        )
        assert "add3" in response["functions"]
        assert "enabl" in response["tables"]["enabling"].lower()

    def test_status_endpoint(self, service):
        server = service()
        status = server.status()
        assert status["status"] == "serving"
        assert status["counters"]["admitted"] == 0
        assert status["port"] == server.port


class TestStructuredErrors:
    def test_compile_error_is_400(self, service):
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(source="int {", function="f")
        assert info.value.status == 400
        assert info.value.error == "compile_error"

    def test_unknown_function_is_400(self, service):
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(source=SOURCE, function="nope")
        assert info.value.status == 400
        assert info.value.error == "unknown_function"
        assert "add3" in info.value.detail

    def test_bad_config_is_400(self, service):
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(
                source=SOURCE, function="add3", config={"bogus": 1}
            )
        assert info.value.status == 400
        assert info.value.error == "bad_request"

    def test_retired_engine_field_is_400(self, service):
        # one phase engine: config.engine is no longer a knob
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(
                source=SOURCE, function="add3", config={"engine": "object"}
            )
        assert info.value.status == 400
        assert info.value.error == "bad_request"
        assert "unknown config field 'engine'" in info.value.detail

    def test_retired_jobs_field_is_400(self, service):
        # one request is one pool task: config.jobs is no longer a knob
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().enumerate(
                source=SOURCE, function="add3", config={"jobs": 2}
            )
        assert info.value.status == 400
        assert info.value.error == "bad_request"
        assert "unknown config field 'jobs'" in info.value.detail

    def test_unknown_path_is_404(self, service):
        server = service()
        with pytest.raises(ServiceError) as info:
            server.client().request("POST", "/fry", {"source": SOURCE})
        assert info.value.status == 404


class TestSharedStore:
    def test_second_request_hits_the_store(self, service):
        server = service()
        client = server.client()
        first = client.enumerate(
            benchmark="jpeg", function="descale", config={"max_nodes": 2000}
        )
        second = client.enumerate(
            benchmark="jpeg", function="descale", config={"max_nodes": 2000}
        )
        assert first["store_hit"] is False
        assert second["store_hit"] is True
        assert second["dag_fingerprint"] == first["dag_fingerprint"]

    def test_store_is_shared_with_different_budgets(self, service):
        # Budgets are excluded from the store signature: a completed
        # space under any budget serves every later request.
        server = service()
        client = server.client()
        first = client.enumerate(
            benchmark="fft", function="fcos", config={"max_nodes": 5000}
        )
        second = client.enumerate(
            benchmark="fft", function="fcos", config={"max_nodes": 4999}
        )
        assert second["store_hit"] is True
        assert second["dag_fingerprint"] == first["dag_fingerprint"]


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_execution(self, service):
        """Two simultaneous requests for the same function+config must
        not double-compute or interleave store writes: one task
        runs, one store entry is written, and both responses are
        bit-identical to a serial enumeration."""
        server = service(workers=4)
        responses = [None, None]
        errors = []

        def fire(index):
            try:
                responses[index] = server.client().enumerate(
                    benchmark="stringsearch",
                    function="set_pattern",
                    config={"max_nodes": 2000},
                )
            except Exception as error:  # surface in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=fire, args=(index,)) for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert all(response is not None for response in responses)

        expected, _ = serial_fingerprint(
            "stringsearch", "set_pattern", max_nodes=2000
        )
        for response in responses:
            assert response["completed"] is True
            assert response["dag_fingerprint"] == expected
        assert [r.get("coalesced", False) for r in responses].count(True) == 1

        # exactly one execution: one admitted + one coalesced in the
        # journal, and a single space entry in the shared store
        events = [record["event"] for record in server.journal()]
        assert events.count("request_admitted") == 1
        assert events.count("request_coalesced") == 1
        store_dir = os.path.join(server.run_dir, "store")
        assert len(os.listdir(store_dir)) == 1


class TestLoadShedding:
    def test_rate_limit_sheds_with_retry_after(self, service):
        server = service(tenant_rate=0.1, tenant_burst=1.0)
        client = server.client(policy=RetryPolicy(max_attempts=1))
        client.compile(benchmark="sha", function="rol")
        with pytest.raises(RetryError) as info:
            client.compile(benchmark="sha", function="rol")
        shed = info.value.last_error
        assert isinstance(shed, TransientServiceError)
        assert shed.status == 429
        assert shed.error == "rate_limited"
        assert shed.retry_after is not None and shed.retry_after > 0

    def test_tenants_are_isolated(self, service):
        server = service(tenant_rate=0.1, tenant_burst=1.0)
        noisy = server.client(
            tenant="noisy", policy=RetryPolicy(max_attempts=1)
        )
        polite = server.client(
            tenant="polite", policy=RetryPolicy(max_attempts=1)
        )
        noisy.compile(benchmark="sha", function="rol")
        with pytest.raises(RetryError):
            noisy.compile(benchmark="sha", function="rol")
        # the other tenant's bucket is untouched
        polite.compile(benchmark="sha", function="rol")

    def test_memory_watermark_sheds_503(self, service):
        # Any real process is over a 1 MB watermark, so everything sheds.
        server = service(memory_watermark_mb=1.0)
        client = server.client(policy=RetryPolicy(max_attempts=1))
        with pytest.raises(RetryError) as info:
            client.compile(benchmark="sha", function="rol")
        shed = info.value.last_error
        assert isinstance(shed, TransientServiceError)
        assert shed.status == 503
        assert shed.error == "memory_pressure"

    def test_retrying_client_rides_through_shedding(self, service):
        # The bundled client + Retry-After turn a shed into a delay,
        # not a failure.
        server = service(tenant_rate=2.0, tenant_burst=1.0)
        client = server.client(
            policy=RetryPolicy(max_attempts=6, base_delay=0.2, max_delay=2.0)
        )
        for _ in range(3):
            response = client.compile(benchmark="sha", function="rol")
            assert response["functions"]


class TestJournal:
    def test_request_ids_thread_into_the_journal(self, service):
        server = service()
        client = server.client()
        response = client.enumerate(
            benchmark="fft", function="fcos", config={"max_nodes": 1000}
        )
        request_id = response["request_id"]
        assert request_id in client.request_ids
        journal = server.journal()
        admitted = [
            record
            for record in journal
            if record["event"] == "request_admitted"
            and record["request"] == request_id
        ]
        done = [
            record
            for record in journal
            if record["event"] == "request_done"
            and record["request"] == request_id
        ]
        assert len(admitted) == 1
        assert len(done) == 1 and done[0]["status"] == 200

    def test_drained_run_dir_reports_cleanly(self, service):
        server = service()
        server.client().compile(benchmark="sha", function="rol")
        assert server.stop() == 0
        from repro.observability.report import summarize_run

        summary = summarize_run(server.run_dir)
        assert summary["totals"]["schema_errors"] == 0
        assert summary["service"]["admitted"] == 1
        assert summary["service"]["done"] == {"200": 1}
