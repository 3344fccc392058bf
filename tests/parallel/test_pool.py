"""The worker pool on its own: per-task configs, cancellation and
orphaned workers."""

from __future__ import annotations

import cProfile
import os
import signal
import subprocess
import sys
import time

from repro.core import checkpoint as ckpt
from repro.core.enumeration import (
    EnumerationConfig,
    SpaceEnumerator,
    enumerate_space,
)
from repro.frontend import compile_source
from repro.parallel.coordinator import WorkerPool
from repro.parallel.worker import enumerate_function
from repro.programs import PROGRAMS
from tests.parallel.conftest import dag_snapshot


def run_all(pool, tasks, timeout=60.0):
    """Poll *pool* until every task in *tasks* finished."""
    finished = {}
    deadline = time.monotonic() + timeout
    while len(finished) < len(tasks) and time.monotonic() < deadline:
        for task in pool.poll(0.1):
            finished[task.task_id] = task
    assert len(finished) == len(tasks), "tasks did not finish"
    return [finished[task.task_id] for task in tasks]


def test_one_pool_runs_tasks_with_different_configs(case_functions):
    """Each task carries its own config: one worker runs a budgeted
    plain task, then a sanitized one, and both equal serial runs."""
    func = case_functions[("sha", "rol")]
    source = PROGRAMS["sha"].source
    configs = [EnumerationConfig(max_nodes=50), EnumerationConfig(sanitize="fast")]
    pool = WorkerPool(1)
    try:
        tasks = [
            pool.submit(
                enumerate_function,
                (ckpt.function_to_dict(func), config.to_dict(), source, None, None),
                f"task{index}",
            )
            for index, config in enumerate(configs)
        ]
        done = run_all(pool, tasks)
    finally:
        pool.close()
    configs[1].program = compile_source(source)
    for task, config in zip(done, configs):
        serial = enumerate_space(func, config)
        result = task.payload["result"]
        assert task.attempts == 1
        assert dag_snapshot(result.dag) == dag_snapshot(serial.dag)
        assert result.abort_reason == serial.abort_reason
        assert result.sanitize_stats == serial.sanitize_stats
    assert done[0].payload["result"].abort_reason == "max_nodes"
    assert done[1].payload["result"].sanitize_stats["edges"] > 0


def test_heartbeat_can_read_an_enumerator_before_it_runs(case_functions):
    """A worker's heartbeat thread reads ``attempted`` from the moment
    ``on_start`` hands it the enumerator — before ``run()`` restores a
    checkpoint, which takes long enough on a big one for a heartbeat
    to land (and a failed read would end the heartbeats for good)."""
    enumerator = SpaceEnumerator(case_functions[("sha", "rol")])
    assert enumerator.attempted == 0


def test_cancel_checkpoints_and_is_not_re_leased(tmp_path, case_functions):
    """Cancelling a running task sends its worker one SIGTERM: the
    enumeration checkpoints and returns, and the pool does not re-lease
    the task.  The chaos hook stalls the task so it is surely running."""
    func = case_functions[("sha", "rol")]
    checkpoint = tmp_path / "rol.ckpt.json"
    pool = WorkerPool(
        1,
        heartbeat_interval=0.1,
        chaos={"worker": 0, "after_nodes": 3, "kind": "hang"},
    )
    try:
        task = pool.submit(
            enumerate_function,
            (
                ckpt.function_to_dict(func),
                EnumerationConfig().to_dict(),
                None,
                None,
                str(checkpoint),
            ),
            "rol",
        )
        deadline = time.monotonic() + 30.0
        while not checkpoint.exists() and time.monotonic() < deadline:
            assert pool.poll(0.05) == []
        assert checkpoint.exists(), "the task never reached the stall"
        pool.cancel(task)
        (done,) = run_all(pool, [task])
    finally:
        pool.close()
    assert done.stopped and done.attempts == 1
    assert done.payload["result"].abort_reason == "interrupted"
    assert checkpoint.exists()


_ABANDON = """
import os
from repro.parallel.coordinator import WorkerPool

pool = WorkerPool(1, start_method="spawn", heartbeat_interval=0.1)
print(pool._slots[0].process.pid, flush=True)
os._exit(0)  # the coordinator dies while its worker still starts up
"""


def _profiler_running(*, on_start) -> bool:
    """Pool task: whether a profiler is running in the worker."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    in_use = monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID)
    return sys.getprofile() is not None or bool(in_use)


def test_workers_drop_a_profiler_forked_from_the_coordinator():
    """``repro enumerate --profile`` profiles the coordinator while it
    starts its workers.  A fork-started worker's copy of that profiler
    could never report, and from Python 3.12 it holds the profiler tool
    id, so the worker's own cProfile would fail to start."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        pool = WorkerPool(1)
    finally:
        profiler.disable()
    try:
        (done,) = run_all(pool, [pool.submit(_profiler_running, (), "probe")])
    finally:
        pool.close()
    assert done.error is None
    assert done.payload is False


def _exited(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_worker_orphaned_during_start_up_exits(tmp_path):
    """The orphan check compares against the coordinator's pid as the
    coordinator saw it: a spawn-started worker still importing when
    its coordinator died must not take init for its parent."""
    out = tmp_path / "pid.txt"
    with open(out, "w", encoding="ascii") as handle:
        # a file, not a pipe: the worker inherits the coordinator's
        # stdout and would hold a pipe open
        subprocess.run(
            [sys.executable, "-c", _ABANDON],
            env=dict(os.environ, PYTHONPATH="src"),
            stdout=handle,
            timeout=60,
            check=True,
        )
    pid = int(out.read_text().split()[0])
    deadline = time.monotonic() + 30.0
    while not _exited(pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    if not _exited(pid):
        os.kill(pid, signal.SIGKILL)
        raise AssertionError("the orphaned worker kept running")
