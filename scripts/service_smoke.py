#!/usr/bin/env python
"""End-to-end service smoke drill, run by the CI ``service-smoke`` job.

One script, the whole resilience story, against the real CLI entry
point (``python -m repro serve``):

1. start a server, drive **concurrent** enumerate requests through the
   bundled client (three identical ones must coalesce into a single
   execution) plus independent fast requests;
2. **kill a busy pool worker** (a pid from ``/status``) mid-run — the
   request must still complete, and every returned DAG must be
   bit-identical to an in-process serial enumeration;
3. **SIGTERM the server** mid-enumeration — the in-flight request gets
   a structured ``503 draining`` with ``checkpointed: true`` and the
   server exits 0;
4. **restart** on the same run dir — the repeated request resumes the
   checkpoint and finishes bit-identically to the serial reference;
5. ``repro report`` on the run dir must render the service section.

Exit status 0 means every claim held. The run dir (journal with the
pool's lease events and any worker traceback, manifest, per-work-key
checkpoints, store) is the artifact CI uploads on failure.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [RUN_DIR]
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.programs import PROGRAMS
from repro.robustness.retry import RetryError, RetryPolicy
from repro.core.checkpoint import dag_digest
from repro.service.client import ServiceClient, TransientServiceError

RUN_DIR = sys.argv[1] if len(sys.argv) > 1 else ".run-service"

#: a steady ~3.5s workload (budget-capped, hence deterministic) with a
#: tight checkpoint cadence — wide open to kills and drains mid-flight.
#: Validating and fast-sanitizing every edge keeps it that slow (the
#: plain run takes under 2s) and changes nothing about the space.
GUARDED = {"checkpoint_interval": 0.2, "validate": True, "sanitize": "fast"}
SLOW = {
    "benchmark": "sha",
    "function": "byte_reverse",
    "config": dict(GUARDED, max_nodes=1200),
}
#: the drain victim: same function, different budget = different work key.
#: Big enough (about 2.5 s of guarded enumeration) that the SIGTERM sent
#: 0.6 s into the request lands mid-enumeration, not after it finished.
DRAIN = {
    "benchmark": "sha",
    "function": "byte_reverse",
    "config": dict(GUARDED, max_nodes=2500),
}
FAST = [("sha", "rol"), ("jpeg", "descale")]


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def serial_fingerprint(bench, name, **config):
    func = compile_source(PROGRAMS[bench].source).functions[name].clone()
    implicit_cleanup(func)
    return dag_digest(enumerate_space(func, EnumerationConfig(**config)).dag)


def start_server():
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--run-dir", RUN_DIR, "--port", "0",
            "--workers", "4", "--tenant-concurrency", "8",
        ],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    announce = os.path.join(RUN_DIR, "service.json")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            print("FAIL: server died at startup", file=sys.stderr)
            sys.exit(1)
        try:
            with open(announce, encoding="utf-8") as handle:
                facts = json.load(handle)
            if facts.get("pid") == proc.pid:  # not a stale announce
                return proc, facts["port"]
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    print("FAIL: server did not announce", file=sys.stderr)
    sys.exit(1)


def fire(client, outcomes, index, **kwargs):
    def run():
        try:
            outcomes[index] = ("ok", client.enumerate(**kwargs))
        except Exception as error:
            outcomes[index] = ("error", error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def main():
    print("== serial references")
    slow_ref = serial_fingerprint("sha", "byte_reverse", max_nodes=1200)
    drain_ref = serial_fingerprint(
        "sha", "byte_reverse", max_nodes=DRAIN["config"]["max_nodes"]
    )
    fast_refs = {
        (bench, name): serial_fingerprint(bench, name, max_nodes=2000)
        for bench, name in FAST
    }

    print("== phase 1: concurrent load + worker kill")
    proc, port = start_server()
    client = ServiceClient(
        "127.0.0.1", port, policy=RetryPolicy(max_attempts=4, base_delay=0.2)
    )
    outcomes = [None] * 5
    threads = [fire(client, outcomes, i, **SLOW) for i in range(3)]
    threads += [
        fire(
            client, outcomes, 3 + i,
            benchmark=bench, function=name, config={"max_nodes": 2000},
        )
        for i, (bench, name) in enumerate(FAST)
    ]

    # kill the first busy pool worker that shows up in /status, mid-run
    victim = None
    deadline = time.monotonic() + 20.0
    while victim is None and time.monotonic() < deadline:
        for pid in client.status()["workers"]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue  # finished between status and kill; next one
            victim = pid
            break
        time.sleep(0.05)
    check(victim is not None, f"killed pool worker {victim} mid-request")

    for thread in threads:
        thread.join(timeout=120)
    check(
        all(o is not None and o[0] == "ok" for o in outcomes),
        f"all 5 concurrent requests answered 200 despite the kill "
        f"({[o and o[0] for o in outcomes]})",
    )
    slow_bodies = [outcomes[i][1] for i in range(3)]
    check(
        all(b["dag_fingerprint"] == slow_ref for b in slow_bodies),
        "killed-and-retried DAG bit-identical to the serial reference",
    )
    check(
        sum(1 for b in slow_bodies if b.get("coalesced")) == 2,
        "3 identical concurrent requests coalesced into 1 execution",
    )
    for i, (bench, name) in enumerate(FAST):
        check(
            outcomes[3 + i][1]["dag_fingerprint"] == fast_refs[(bench, name)],
            f"{bench}/{name} bit-identical to its serial reference",
        )

    print("== phase 2: SIGTERM drain mid-enumeration")
    outcomes = [None]
    once = ServiceClient("127.0.0.1", port, policy=RetryPolicy(max_attempts=1))
    thread = fire(once, outcomes, 0, **DRAIN)
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline and not client.status()["workers"]:
        time.sleep(0.05)
    time.sleep(0.6)  # let checkpoints land
    proc.send_signal(signal.SIGTERM)
    thread.join(timeout=60)
    kind, error = outcomes[0]
    shed = getattr(error, "last_error", error)
    check(
        kind == "error"
        and isinstance(shed, TransientServiceError)
        and shed.error == "draining"
        and shed.body.get("checkpointed") is True,
        f"in-flight request got structured 503 draining+checkpointed "
        f"({error})",
    )
    check(proc.wait(timeout=30) == 0, "drained server exited 0")

    print("== phase 3: restart and resume bit-identically")
    proc, port = start_server()
    try:
        body = ServiceClient("127.0.0.1", port).enumerate(**DRAIN)
        check(bool(body["resumed_from"]), "restarted server resumed the checkpoint")
        check(
            body["dag_fingerprint"] == drain_ref,
            "resumed DAG bit-identical to the serial reference",
        )
    finally:
        proc.send_signal(signal.SIGTERM)
        check(proc.wait(timeout=30) == 0, "second server drained cleanly")

    report = subprocess.run(
        [sys.executable, "-m", "repro", "report", RUN_DIR],
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
    )
    check(
        report.returncode == 0 and "service:" in report.stdout,
        "repro report renders the service section for the run dir",
    )
    print(report.stdout)
    print("SERVICE SMOKE PASSED")


if __name__ == "__main__":
    main()
