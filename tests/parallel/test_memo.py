"""The cross-run transition memo through the parallel service.

A warm memo must be a pure accelerator: every DAG, dormant set and
counter comes out bit-identical to a cold run — serial, sharded, and
store-served alike.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core import checkpoint as ckpt
from repro.core.driver import run_function
from repro.core.enumeration import EnumerationConfig, canonical_root, enumerate_space
from repro.core.memo import TransitionMemo
from repro.core.store import store_signature
from repro.parallel import ParallelConfig, SpaceStore, enumerate_space_parallel
from tests.parallel.conftest import dag_snapshot


@pytest.fixture()
def store(tmp_path):
    return SpaceStore(str(tmp_path / "spaces"))


def _drop_space_entries(store):
    """Delete the full-space cache entries, keeping only the memo —
    forces the next run to re-enumerate through the memo fast path."""
    for name in os.listdir(store.root):
        if not name.startswith("memo-"):
            os.unlink(os.path.join(store.root, name))


def test_memo_written_alongside_space_entries(store, case_functions):
    func = case_functions[("sha", "rol")]
    enumerate_space_parallel(
        func, EnumerationConfig(), ParallelConfig(jobs=2, store=store)
    )
    memo_file = os.path.basename(store.memo_path(EnumerationConfig()))
    assert memo_file in os.listdir(store.root)
    # memo files are not space entries
    assert len(store) == 1
    memo = store.load_memo(EnumerationConfig())
    assert len(memo) > 0


def test_memo_warm_run_bit_identical(store, case_functions, serial_results):
    for case in (("sha", "rol"), ("jpeg", "descale")):
        func = case_functions[case]
        enumerate_space_parallel(
            func, EnumerationConfig(), ParallelConfig(jobs=2, store=store)
        )
        _drop_space_entries(store)
        warm_store = SpaceStore(store.root)
        warm = enumerate_space_parallel(
            func, EnumerationConfig(), ParallelConfig(jobs=2, store=warm_store)
        )
        serial = serial_results[case]
        assert warm.resumed_from is None  # enumerated, not cache-served
        assert dag_snapshot(warm.dag) == dag_snapshot(serial.dag)
        assert warm.attempted_phases == serial.attempted_phases
        assert warm.phases_applied == serial.phases_applied
        assert warm.completed
        # the Table 4/5/6 interaction matrices come out identical too
        from repro.core.interactions import analyze_interactions

        warm_tables = analyze_interactions([warm])
        serial_tables = analyze_interactions([serial])
        assert warm_tables.format_enabling() == serial_tables.format_enabling()
        assert warm_tables.format_disabling() == serial_tables.format_disabling()
        assert (
            warm_tables.format_independence()
            == serial_tables.format_independence()
        )


def test_memo_round_trips_through_disk(store, case_functions, serial_results):
    func = case_functions[("fft", "fcos")]
    enumerate_space_parallel(
        func, EnumerationConfig(), ParallelConfig(jobs=1, store=store)
    )
    memo = store.load_memo(EnumerationConfig())
    assert len(memo) > 0
    # A serial run on the deserialized memo must also be identical —
    # that is the serial/parallel/warm equivalence triangle.
    from repro.core.enumeration import enumerate_space

    warm = enumerate_space(func, EnumerationConfig(memo=memo))
    serial = serial_results[("fft", "fcos")]
    assert dag_snapshot(warm.dag) == dag_snapshot(serial.dag)
    assert warm.attempted_phases == serial.attempted_phases


def test_memo_is_per_config(store):
    assert store.memo_path(EnumerationConfig()) != store.memo_path(
        EnumerationConfig(exact=True)
    )
    assert store.memo_path(EnumerationConfig()) != store.memo_path(
        EnumerationConfig(validate=True)
    )


def test_corrupt_memo_is_a_cold_cache(store):
    path = store.memo_path(EnumerationConfig())
    with open(path, "w") as handle:
        handle.write("{ not json")
    memo = store.load_memo(EnumerationConfig())
    assert isinstance(memo, TransitionMemo)
    assert len(memo) == 0


def test_fault_injected_runs_never_save_a_memo(store):
    from repro.robustness.faults import FaultInjector

    config = EnumerationConfig(fault_injector=FaultInjector(seed=1, rate=0.5))
    assert store.save_memo(config, TransitionMemo(), ("root",)) is None


# ----------------------------------------------------------------------
# One memo file per function: run_function loads and saves only its own
# ----------------------------------------------------------------------


def _spy_loads(monkeypatch, store):
    """Record every memo *store* hands out (their sizes at load time)."""
    loaded = []
    load = store.load_memo

    def spy(*args, **kwargs):
        memo = load(*args, **kwargs)
        loaded.append((memo, len(memo)))
        return memo

    monkeypatch.setattr(store, "load_memo", spy)
    return loaded


def _memo_files(store):
    """{path: bytes} of every file under the store's memo- entries."""
    files = {}
    for name in os.listdir(store.root):
        path = os.path.join(store.root, name)
        if not name.startswith("memo-"):
            continue
        paths = (
            [os.path.join(path, child) for child in os.listdir(path)]
            if os.path.isdir(path)
            else [path]
        )
        for child in paths:
            with open(child, "rb") as handle:
                files[child] = handle.read()
    return files


def _root_key(func):
    return canonical_root(func, EnumerationConfig())[2]


def test_each_function_loads_and_saves_only_its_own_memo(
    store, case_functions, serial_results, monkeypatch
):
    rol = case_functions[("sha", "rol")]
    descale = case_functions[("jpeg", "descale")]
    config = EnumerationConfig()
    loaded = _spy_loads(monkeypatch, store)
    run_function(rol, config, store=store)
    rol_files = _memo_files(store)
    assert len(rol_files) == 1
    run_function(descale, config, store=store)
    # descale never saw rol's entries, and rol's file was not rewritten
    assert [size for _memo, size in loaded] == [0, 0]
    after = _memo_files(store)
    assert len(after) == 2
    assert all(after[path] == data for path, data in rol_files.items())
    # with its space entry gone, rol re-enumerates from its own memo
    # alone: every transition hits, and nothing new is written
    os.unlink(store.entry_path(rol.name, _root_key(rol), config))
    saves = []
    monkeypatch.setattr(
        store, "save_memo", lambda *args, **kwargs: saves.append(args)
    )
    rerun = run_function(rol, config, store=store).result
    memo, size = loaded[-1]
    assert size == len(memo) > 0
    assert memo.misses == 0
    assert memo.hits == rerun.attempted_phases
    assert saves == []
    assert rerun.resumed_from is None
    assert dag_snapshot(rerun.dag) == dag_snapshot(
        serial_results[("sha", "rol")].dag
    )


def test_garbage_memo_file_is_a_cold_start(
    store, case_functions, serial_results, monkeypatch
):
    rol = case_functions[("sha", "rol")]
    descale = case_functions[("jpeg", "descale")]
    config = EnumerationConfig()
    for func in (rol, descale):
        run_function(func, config, store=store)
        os.unlink(store.entry_path(func.name, _root_key(func), config))
    with open(store.memo_path(config, _root_key(rol)), "wb") as handle:
        handle.write(b"\x00 not a memo {")
    loaded = _spy_loads(monkeypatch, store)
    cold = run_function(rol, config, store=store).result
    assert loaded[-1][1] == 0
    assert cold.completed
    assert dag_snapshot(cold.dag) == dag_snapshot(
        serial_results[("sha", "rol")].dag
    )
    # the cold run rewrote rol's file; descale's still serves every hit
    assert len(store.load_memo(config, _root_key(rol))) > 0
    warm = run_function(descale, config, store=store).result
    memo, size = loaded[-1]
    assert size > 0 and memo.misses == 0
    assert dag_snapshot(warm.dag) == dag_snapshot(
        serial_results[("jpeg", "descale")].dag
    )


def test_whole_table_memo_of_the_old_layout_is_ignored(
    store, case_functions, serial_results, monkeypatch
):
    # Stores once kept one memo-<config digest>.json per config, holding
    # every function's entries; such a file is neither read nor an error.
    rol = case_functions[("sha", "rol")]
    descale = case_functions[("jpeg", "descale")]
    config = EnumerationConfig()
    run_function(rol, config, store=store)
    table = TransitionMemo()
    enumerate_space(descale, EnumerationConfig(memo=table))
    digest = hashlib.sha256(
        json.dumps(store_signature(config), sort_keys=True).encode()
    ).hexdigest()[:16]
    ckpt.save_checkpoint(
        os.path.join(store.root, f"memo-{digest}.json"), table.to_dict()
    )
    reopened = SpaceStore(store.root)
    assert len(reopened) == 1
    served = run_function(rol, config, store=reopened).result
    assert served.resumed_from.startswith("store:")
    loaded = _spy_loads(monkeypatch, reopened)
    fresh = run_function(descale, config, store=reopened).result
    assert loaded[-1][1] == 0
    assert dag_snapshot(fresh.dag) == dag_snapshot(
        serial_results[("jpeg", "descale")].dag
    )
