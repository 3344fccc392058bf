"""The persistent merged-space store: hits, misses, and safety rules."""

from __future__ import annotations

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.parallel import ParallelConfig, SpaceStore, enumerate_space_parallel
from repro.core.store import cacheable, store_signature
from repro.robustness.faults import FaultInjector
from tests.parallel.conftest import dag_snapshot


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
