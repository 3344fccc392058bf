"""Shared fixture: a real ``repro serve`` instance in a subprocess.

Each test that needs a live server calls the ``service`` factory with
whatever :class:`~repro.service.server.ServiceConfig` overrides it
wants and gets back a handle (port, run dir, client maker, process).
Servers run as genuine subprocesses so signal handling, drain, and
the worker pool are exercised for real — the chaos tests kill actual
worker processes.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

_DRIVER = """\
import json, sys
from repro.service.server import ServiceConfig, serve_main
sys.exit(serve_main(ServiceConfig(**json.loads(sys.argv[1]))))
"""

#: fast settling for tests: drain quickly
FAST = {
    "read_timeout": 5.0,
    "drain_grace": 10.0,
}


class ServerHandle:
    def __init__(self, proc, run_dir, port):
        self.proc = proc
        self.run_dir = run_dir
        self.port = port

    def client(self, **kwargs) -> ServiceClient:
        kwargs.setdefault("timeout", 60.0)
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def status(self) -> dict:
        return self.client().status()

    def signal(self, signum=signal.SIGTERM) -> None:
        self.proc.send_signal(signum)

    def wait(self, timeout=30.0) -> int:
        return self.proc.wait(timeout=timeout)

    def stop(self, timeout=30.0) -> int:
        """Graceful drain; escalates to SIGKILL if the grace fails."""
        if self.proc.poll() is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(timeout=10.0)

    def journal_path(self) -> str:
        return os.path.join(self.run_dir, "events.jsonl")

    def journal(self):
        with open(self.journal_path(), encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]


def _start(run_dir: str, **overrides) -> ServerHandle:
    config = {"run_dir": run_dir, "port": 0, **FAST, **overrides}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, json.dumps(config)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    # The server writes service.json after binding; poll for it rather
    # than parse stdout (no pipe-deadlock risk).
    service_file = os.path.join(run_dir, "service.json")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died at startup (rc={proc.returncode}):\n"
                f"{proc.stderr.read()}"
            )
        if os.path.exists(service_file):
            try:
                with open(service_file, encoding="utf-8") as handle:
                    facts = json.load(handle)
                # a restarted run dir still holds the previous server's
                # announce file; only trust one naming *this* process
                if facts.get("pid") == proc.pid:
                    return ServerHandle(proc, run_dir, facts["port"])
            except (ValueError, KeyError):
                pass  # mid-write; retry
        time.sleep(0.02)
    proc.kill()
    raise RuntimeError("server did not announce within 30s")


@pytest.fixture
def service(tmp_path):
    """Factory: ``service(**config_overrides) -> ServerHandle``."""
    handles = []
    counter = [0]

    def start(run_dir=None, **overrides):
        counter[0] += 1
        if run_dir is None:
            run_dir = str(tmp_path / f"svc{counter[0]}")
        handle = _start(run_dir, **overrides)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        if handle.proc.poll() is None:
            handle.proc.kill()
            handle.proc.wait(timeout=10.0)
        if handle.proc.stderr:
            handle.proc.stderr.close()


def wait_for(predicate, timeout=20.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")
