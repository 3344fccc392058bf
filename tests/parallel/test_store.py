"""The persistent merged-space store: hits, misses, and safety rules."""

from __future__ import annotations

import os

import pytest

from repro.core import checkpoint as ckpt
from repro.core.driver import run_function
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.interactions import analyze_interactions
from repro.parallel import ParallelConfig, SpaceStore, enumerate_space_parallel
from repro.core.store import cacheable, store_signature
from repro.robustness.faults import FaultInjector
from tests.parallel.conftest import bench_function, dag_snapshot


@pytest.fixture()
def store(tmp_path):
    return SpaceStore(str(tmp_path / "spaces"))


def test_second_run_is_a_cache_hit(store, case_functions, serial_results):
    func = case_functions[("sha", "rol")]
    cold = enumerate_space_parallel(
        func, EnumerationConfig(), ParallelConfig(jobs=2, store=store)
    )
    assert cold.resumed_from is None
    assert len(store) == 1
    warm = enumerate_space_parallel(
        func, EnumerationConfig(), ParallelConfig(jobs=2, store=store)
    )
    assert warm.resumed_from is not None
    assert warm.resumed_from.startswith("store:")
    assert store.hits == 1
    serial = serial_results[("sha", "rol")]
    assert dag_snapshot(warm.dag) == dag_snapshot(serial.dag)
    assert warm.attempted_phases == serial.attempted_phases
    assert warm.completed


def test_space_shaping_config_splits_entries(store, case_functions):
    """exact/validate/difftest/remap key distinct cache entries."""
    func = case_functions[("jpeg", "descale")]
    enumerate_space_parallel(
        func, EnumerationConfig(), ParallelConfig(jobs=1, store=store)
    )
    result = enumerate_space_parallel(
        func, EnumerationConfig(exact=True), ParallelConfig(jobs=1, store=store)
    )
    assert result.resumed_from is None  # miss: different signature
    assert len(store) == 2
    assert store_signature(EnumerationConfig()) != store_signature(
        EnumerationConfig(validate=True)
    )
    assert store_signature(EnumerationConfig()) != store_signature(
        EnumerationConfig(difftest=True)
    )


def test_aborted_runs_are_never_stored(store, case_functions):
    func = case_functions[("sha", "rol")]
    result = enumerate_space_parallel(
        func,
        EnumerationConfig(max_nodes=10),
        ParallelConfig(jobs=1, store=store),
    )
    assert not result.completed
    assert len(store) == 0


def test_fault_injected_runs_are_never_stored(store, case_functions):
    config = EnumerationConfig(
        fault_injector=FaultInjector(seed=7, rate=0.2)
    )
    assert not cacheable(config)
    func = case_functions[("jpeg", "descale")]
    result = enumerate_space_parallel(
        func, config, ParallelConfig(jobs=1, store=store)
    )
    assert result.completed
    assert len(store) == 0


def test_corrupt_entry_reads_as_miss(store, case_functions):
    func = case_functions[("jpeg", "descale")]
    enumerate_space_parallel(
        func, EnumerationConfig(), ParallelConfig(jobs=1, store=store)
    )
    config = EnumerationConfig()
    serial = enumerate_space(func, config)
    root_key = serial.dag.root.key
    path = store.entry_path(func.name, root_key, config)
    with open(path, "w") as handle:
        handle.write("{ not json")
    assert store.get(func.name, root_key, config) is None
    assert store.misses >= 1


def test_direct_put_get_roundtrip(store, case_functions, serial_results):
    serial = serial_results[("fft", "fcos")]
    func_name = serial.dag.function_name
    root_key = serial.dag.root.key
    config = EnumerationConfig()
    path = store.put(func_name, root_key, config, serial)
    assert path is not None
    loaded = store.get(func_name, root_key, config)
    assert loaded is not None
    assert dag_snapshot(loaded.dag) == dag_snapshot(serial.dag)
    assert loaded.attempted_phases == serial.attempted_phases
    assert loaded.levels_completed == serial.levels_completed


def test_capped_run_resumes_then_hits_the_store(tmp_path):
    """The store serves completed spaces and checkpoints serve partial
    ones: a capped run stores nothing, its uncapped resume completes to
    the serial space and is stored, and the next run is a store hit."""
    func = bench_function("sha", "word_sum")
    serial = enumerate_space(func, EnumerationConfig())
    store = SpaceStore(str(tmp_path / "spaces"))
    run_dir = str(tmp_path / "run")

    def run(config, resume=False):
        parallel = ParallelConfig(
            jobs=2, store=store, run_dir=run_dir, resume=resume
        )
        return enumerate_space_parallel(func, config, parallel, label=func.name)

    aborted = run(EnumerationConfig(max_nodes=200))
    assert not aborted.completed
    assert aborted.abort_reason == "max_nodes"
    assert len(store) == 0

    resumed = run(EnumerationConfig(), resume=True)
    assert resumed.completed
    assert resumed.resumed_from == os.path.join(run_dir, "word_sum.ckpt.json")
    assert dag_snapshot(resumed.dag) == dag_snapshot(serial.dag)
    assert resumed.attempted_phases == serial.attempted_phases
    tables = analyze_interactions([resumed])
    reference = analyze_interactions([serial])
    assert tables.format_enabling() == reference.format_enabling()
    assert tables.format_disabling() == reference.format_disabling()
    assert tables.format_independence() == reference.format_independence()
    assert len(store) == 1

    hit = run(EnumerationConfig())
    assert hit.resumed_from.startswith("store:")
    assert store.hits == 1
    assert dag_snapshot(hit.dag) == dag_snapshot(serial.dag)
    names = os.listdir(store.root)
    assert len(names) == 1
    assert not names[0].startswith("memo-")


def test_memo_files_of_older_builds_are_ignored(
    store, case_functions, serial_results, monkeypatch
):
    # Earlier builds kept a cross-run transition memo in the store: one
    # memo-<config digest>/<root digest>.json per function, or before
    # that one whole-table memo-<config digest>.json.  Such a store still
    # opens, and its memo files are neither read nor counted as entries.
    rol = case_functions[("sha", "rol")]
    descale = case_functions[("jpeg", "descale")]
    config = EnumerationConfig()
    run_function(rol, config, store=store)
    memo = {"memo_version": 1, "entries": []}
    table_dir = os.path.join(store.root, "memo-fedcba9876543210")
    os.makedirs(table_dir)
    ckpt.save_checkpoint(os.path.join(table_dir, "0123456789abcdef.json"), memo)
    ckpt.save_checkpoint(os.path.join(store.root, "memo-0123456789abcdef.json"), memo)
    reads = []
    load = ckpt.load_checkpoint
    monkeypatch.setattr(
        ckpt, "load_checkpoint", lambda path: reads.append(path) or load(path)
    )
    reopened = SpaceStore(store.root)
    assert len(reopened) == 1
    served = run_function(rol, config, store=reopened).result
    assert served.resumed_from.startswith("store:")
    fresh = run_function(descale, config, store=reopened).result
    assert dag_snapshot(fresh.dag) == dag_snapshot(
        serial_results[("jpeg", "descale")].dag
    )
    assert len(reopened) == 2
    assert reads and not any("memo-" in path for path in reads)
