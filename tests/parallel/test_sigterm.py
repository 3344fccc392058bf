"""SIGTERM drains a live parallel run into serially-resumable state.

The coordinator installs a SIGTERM handler for the duration of the
pool drive: an orchestrator shutdown takes the exact KeyboardInterrupt
path — the coordinator forwards one SIGTERM to every busy worker, each
worker's serial enumerator stops gracefully and writes its checkpoint,
the pool is torn down, and a later *serial* resume completes to a
bit-identical DAG.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from tests.parallel.conftest import bench_function, dag_snapshot

#: exit code the driver script uses to say "KeyboardInterrupt reached
#: the top" — i.e. the SIGTERM was translated, not delivered raw
GRACEFUL_EXIT = 42

_DRIVER = """
import sys
from repro.core.enumeration import EnumerationConfig
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.parallel.coordinator import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
)
from repro.programs import PROGRAMS

run_dir = sys.argv[1]
func = compile_source(PROGRAMS["sha"].source).functions["rol"].clone()
implicit_cleanup(func)
enumerator = ParallelEnumerator(
    EnumerationConfig(),
    ParallelConfig(
        jobs=1,
        run_dir=run_dir,
        lease_timeout=300.0,
        # The lone worker stalls after 10 node expansions (levels 0-2
        # of rol hold 9 nodes), so the run is reliably in flight when
        # SIGTERM lands.
        chaos={"worker": 0, "after_nodes": 10, "kind": "hang"},
    ),
)
try:
    enumerator.enumerate([EnumerationRequest("rol", func)])
except KeyboardInterrupt:
    sys.exit(42)
sys.exit(0)
"""


def _wait_for_journal(path: str, needles, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as stream:
                for line in stream:
                    if all(needle in line for needle in needles):
                        return
        time.sleep(0.05)
    raise AssertionError(f"journal never showed {needles}")


def test_sigterm_checkpoints_and_serial_resume_is_bit_identical(tmp_path):
    run_dir = str(tmp_path / "run")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, run_dir],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        # The worker-forwarded level_done of level 2 means three whole
        # levels are expanded, so the checkpoint carries real state.
        _wait_for_journal(
            os.path.join(run_dir, "events.jsonl"),
            ['"event": "level_done"', '"level": 2'],
        )
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == GRACEFUL_EXIT, (
        proc.returncode,
        stdout.decode(),
        stderr.decode(),
    )

    checkpoint = os.path.join(run_dir, "rol.ckpt.json")
    assert os.path.exists(checkpoint), "drain did not write a checkpoint"
    with open(os.path.join(run_dir, "events.jsonl"), encoding="utf-8") as stream:
        events = [json.loads(line) for line in stream]
    done = [event for event in events if event["event"] == "function_done"]
    # the worker's own enumerator took the forwarded SIGTERM gracefully
    assert [event["reason"] for event in done] == ["interrupted"]

    func = bench_function("sha", "rol")
    reference = enumerate_space(func, EnumerationConfig())
    resumed = enumerate_space(
        func, EnumerationConfig(checkpoint_path=checkpoint, resume=True)
    )
    assert resumed.completed
    assert resumed.resumed_from == checkpoint
    assert dag_snapshot(resumed.dag) == dag_snapshot(reference.dag)
