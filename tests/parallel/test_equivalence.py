"""Serial-vs-parallel equivalence: the subsystem's core contract.

The merged space DAG of a parallel run must be *bit-identical* to the
serial enumerator's — node ids, edges, dormant sets, counters, and the
Table 4–6 interaction statistics derived from them — at every worker
count, across lease recoveries, and across the serial↔parallel
checkpoint boundary in both directions.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.interactions import analyze_interactions
from repro.robustness.faults import FaultInjector
from repro.parallel import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
    ProgressReporter,
    enumerate_space_parallel,
)
from tests.parallel.conftest import CASES, dag_snapshot


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_bit_identical_at_every_worker_count(
    jobs, case_functions, serial_results
):
    requests = [
        EnumerationRequest(f"{bench}.{name}", case_functions[(bench, name)])
        for bench, name in CASES
    ]
    results = ParallelEnumerator(
        EnumerationConfig(), ParallelConfig(jobs=jobs)
    ).enumerate(requests)
    for case, result in zip(CASES, results):
        serial = serial_results[case]
        assert result.completed
        assert dag_snapshot(result.dag) == dag_snapshot(serial.dag), case
        assert result.attempted_phases == serial.attempted_phases
        assert result.phases_applied == serial.phases_applied
        assert result.levels_completed == serial.levels_completed


def test_interaction_tables_match_serial(case_functions, serial_results):
    """Tables 4–6 computed from the merged DAGs equal the serial ones."""
    requests = [
        EnumerationRequest(f"{bench}.{name}", case_functions[(bench, name)])
        for bench, name in CASES
    ]
    parallel = ParallelEnumerator(
        EnumerationConfig(), ParallelConfig(jobs=2)
    ).enumerate(requests)
    reference = analyze_interactions(
        [serial_results[case] for case in CASES]
    )
    merged = analyze_interactions(parallel)
    assert merged.enabling == reference.enabling
    assert merged.disabling == reference.disabling
    assert merged.independence == reference.independence
    assert merged.start == reference.start


def test_exact_mode_equivalence(case_functions):
    func = case_functions[("sha", "rol")]
    serial = enumerate_space(func, EnumerationConfig(exact=True))
    parallel = enumerate_space_parallel(
        func, EnumerationConfig(exact=True), ParallelConfig(jobs=2)
    )
    assert dag_snapshot(parallel.dag) == dag_snapshot(serial.dag)


def test_killed_worker_lease_recovery(tmp_path, case_functions, serial_results):
    """A worker dying mid-function loses its lease, the function is
    re-leased to a respawned worker that resumes the serial checkpoint
    the lost lease wrote, and the space is still bit-identical."""
    events_path = tmp_path / "events.jsonl"
    reporter = ProgressReporter(jsonl_path=str(events_path))
    run_dir = tmp_path / "run"
    parallel = ParallelConfig(
        jobs=2,
        run_dir=str(run_dir),
        lease_timeout=10.0,
        chaos={"worker": 0, "after_nodes": 2, "kind": "exit"},
        progress=reporter,
    )
    result = enumerate_space_parallel(
        case_functions[("sha", "rol")], EnumerationConfig(), parallel
    )
    reporter.close()
    serial = serial_results[("sha", "rol")]
    assert result.completed
    assert result.resumed_from == str(run_dir / "rol.ckpt.json")
    assert dag_snapshot(result.dag) == dag_snapshot(serial.dag)
    assert result.attempted_phases == serial.attempted_phases
    events = [
        json.loads(line) for line in events_path.read_text().splitlines()
    ]
    kinds = {event["event"] for event in events}
    assert "worker_dead" in kinds
    assert "lease_reclaim" in kinds


def test_hung_worker_lease_timeout(tmp_path, case_functions, serial_results):
    """A worker whose attempt count stalls (hang, not crash) is
    terminated once its lease expires and the function completes on a
    respawned worker."""
    events_path = tmp_path / "events.jsonl"
    reporter = ProgressReporter(jsonl_path=str(events_path))
    parallel = ParallelConfig(
        jobs=2,
        lease_timeout=1.5,
        heartbeat_interval=0.1,
        chaos={"worker": 0, "after_nodes": 2, "kind": "hang"},
        progress=reporter,
    )
    result = enumerate_space_parallel(
        case_functions[("jpeg", "descale")], EnumerationConfig(), parallel
    )
    reporter.close()
    serial = serial_results[("jpeg", "descale")]
    assert result.completed
    assert dag_snapshot(result.dag) == dag_snapshot(serial.dag)
    events = [
        json.loads(line) for line in events_path.read_text().splitlines()
    ]
    assert "lease_timeout" in {event["event"] for event in events}


def test_serial_resume_of_parallel_checkpoint(tmp_path, case_functions, serial_results):
    """A parallel run aborted by budget leaves a serial-format
    checkpoint that the *serial* enumerator can resume to the full,
    bit-identical space."""
    func = case_functions[("sha", "rol")]
    aborted = enumerate_space_parallel(
        func,
        EnumerationConfig(max_nodes=20),
        ParallelConfig(jobs=2, run_dir=str(tmp_path)),
        label=func.name,
    )
    assert not aborted.completed
    assert aborted.abort_reason == "max_nodes"
    checkpoint = tmp_path / f"{func.name}.ckpt.json"
    assert checkpoint.exists()
    resumed = enumerate_space(
        func,
        EnumerationConfig(checkpoint_path=str(checkpoint), resume=True),
    )
    serial = serial_results[("sha", "rol")]
    assert resumed.completed
    assert resumed.resumed_from == str(checkpoint)
    assert dag_snapshot(resumed.dag) == dag_snapshot(serial.dag)
    assert resumed.attempted_phases == serial.attempted_phases


def test_parallel_resume_of_serial_checkpoint(tmp_path, case_functions, serial_results):
    """...and the other direction: a serially-written checkpoint is
    picked up by ``ParallelConfig(resume=True)``."""
    func = case_functions[("sha", "rol")]
    checkpoint = tmp_path / f"{func.name}.ckpt.json"
    aborted = enumerate_space(
        func,
        EnumerationConfig(
            max_nodes=20,
            checkpoint_path=str(checkpoint),
        ),
    )
    assert not aborted.completed
    assert checkpoint.exists()
    resumed = enumerate_space_parallel(
        func,
        EnumerationConfig(),
        ParallelConfig(jobs=2, run_dir=str(tmp_path), resume=True),
        label=func.name,
    )
    serial = serial_results[("sha", "rol")]
    assert resumed.completed
    assert resumed.resumed_from == str(checkpoint)
    assert dag_snapshot(resumed.dag) == dag_snapshot(serial.dag)
    assert resumed.attempted_phases == serial.attempted_phases


def test_completed_run_discards_run_dir_checkpoints(tmp_path, case_functions):
    parallel = ParallelConfig(
        jobs=2, run_dir=str(tmp_path), checkpoint_interval=0.0
    )
    result = enumerate_space_parallel(
        case_functions[("jpeg", "descale")], EnumerationConfig(), parallel
    )
    assert result.completed
    assert glob.glob(os.path.join(str(tmp_path), "*.ckpt.json")) == []


def test_unsupported_configs_are_rejected(case_functions):
    with pytest.raises(ValueError, match="share_prefixes"):
        ParallelEnumerator(EnumerationConfig(share_prefixes=False))
    with pytest.raises(ValueError, match="ParallelConfig"):
        ParallelEnumerator(EnumerationConfig(checkpoint_path="x.json"))
    with pytest.raises(ValueError, match="jobs"):
        ParallelConfig(jobs=0)
    with pytest.raises(ValueError, match="source"):
        ParallelEnumerator(EnumerationConfig(difftest=True)).enumerate(
            [EnumerationRequest("f", case_functions[("sha", "rol")])]
        )


def test_difftest_guard_runs_in_workers(case_functions):
    """Differential testing works across the process boundary: the
    worker recompiles the program from source and the guarded space
    still matches an unguarded serial run (all phases are correct)."""
    from repro.programs import PROGRAMS

    func = case_functions[("jpeg", "descale")]
    result = enumerate_space_parallel(
        func,
        EnumerationConfig(difftest=True),
        ParallelConfig(jobs=2),
        source=PROGRAMS["jpeg"].source,
    )
    serial = enumerate_space(func, EnumerationConfig())
    assert result.completed
    assert len(result.quarantine.records) == 0
    assert dag_snapshot(result.dag) == dag_snapshot(serial.dag)


def test_fault_injection_and_sanitize_match_serial(case_functions):
    """Workers rebuild the fault injector from its seed for each
    function and report the sanitizer's own counters, so a sabotaged,
    sanitized run at --jobs 2 is the serial run: same DAG, quarantine
    log, sanitize_stats and injector counts."""
    func = case_functions[("sha", "rol")]

    def config():
        return EnumerationConfig(
            fault_injector=FaultInjector(seed=7, rate=0.2), sanitize="fast"
        )

    serial_config, parallel_config = config(), config()
    serial = enumerate_space(func, serial_config)
    parallel = enumerate_space_parallel(
        func, parallel_config, ParallelConfig(jobs=2)
    )
    assert serial.quarantine.records  # the sabotage really fired
    assert dag_snapshot(parallel.dag) == dag_snapshot(serial.dag)
    assert parallel.quarantine.to_dicts() == serial.quarantine.to_dicts()
    assert parallel.sanitize_stats == serial.sanitize_stats
    serial_injector = serial_config.fault_injector
    parallel_injector = parallel_config.fault_injector
    assert parallel_injector.injected == serial_injector.injected
    assert parallel_injector.applications == serial_injector.applications
