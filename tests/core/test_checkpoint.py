"""Checkpoint/resume: interrupted enumerations must be bit-identical."""

import json
import os

import pytest

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.fingerprint import fingerprint_function
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.programs import PROGRAMS
from repro.robustness.faults import FaultInjector
from tests.conftest import GCD_SRC, MAXI_SRC, compile_fn


def bench_function(bench, name):
    func = compile_source(PROGRAMS[bench].source).functions[name].clone()
    implicit_cleanup(func)
    return func


def dag_snapshot(dag):
    """Everything that must be identical after a resume."""
    nodes = tuple(
        (
            node_id,
            dag.nodes[node_id].key,
            dag.nodes[node_id].level,
            dag.nodes[node_id].num_insts,
            tuple(sorted(dag.nodes[node_id].active.items())),
            tuple(sorted(dag.nodes[node_id].dormant)),
        )
        for node_id in range(len(dag.nodes))
    )
    weights = tuple(sorted(dag.weights().items()))
    return nodes, weights


class TestFunctionRoundTrip:
    def test_fingerprint_preserved(self, gcd_func):
        restored = ckpt.function_from_dict(ckpt.function_to_dict(gcd_func))
        assert (
            fingerprint_function(restored).key
            == fingerprint_function(gcd_func).key
        )
        assert restored.params == gcd_func.params
        assert restored.frame_size == gcd_func.frame_size
        assert list(restored.frame) == list(gcd_func.frame)

    def test_flags_and_counters_preserved(self, gcd_func):
        from repro.core.batch import BatchCompiler

        BatchCompiler().compile(gcd_func)
        restored = ckpt.function_from_dict(ckpt.function_to_dict(gcd_func))
        assert restored.reg_assigned and gcd_func.reg_assigned
        assert restored.sel_applied == gcd_func.sel_applied
        assert restored.alloc_applied == gcd_func.alloc_applied
        assert restored.next_pseudo == gcd_func.next_pseudo
        assert restored.next_label == gcd_func.next_label

    def test_key_json_roundtrip(self):
        key = ((3, (1, 2), True), False, True, False)
        assert ckpt.key_from_json(ckpt.key_to_json(key)) == key


class TestFileIO:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.json")
        ckpt.save_checkpoint(path, {"function_name": "f", "x": [1, 2]})
        state = ckpt.load_checkpoint(path)
        assert state["x"] == [1, 2]
        assert state["version"] == ckpt.CHECKPOINT_VERSION

    def test_file_is_the_stamped_state_in_one_json_text(self, tmp_path):
        path = str(tmp_path / "state.json")
        state = {"function_name": "f", "x": [1, 2.5, "\u00e9"], "y": {"b": None}}
        ckpt.save_checkpoint(path, state)
        stamped = dict(state, version=ckpt.CHECKPOINT_VERSION)
        stamped["digest"] = ckpt._payload_digest(stamped)
        with open(path, "rb") as handle:
            assert handle.read() == json.dumps(stamped).encode()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ckpt.CheckpointError, match="version"):
            ckpt.load_checkpoint(str(path))

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{ not json")
        with pytest.raises(ckpt.CheckpointError, match="malformed"):
            ckpt.load_checkpoint(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ckpt.CheckpointError, match="cannot read"):
            ckpt.load_checkpoint(str(tmp_path / "nope.json"))


class TestResumeBitIdentity:
    @pytest.mark.parametrize(
        "bench,name,cap",
        [("sha", "rol", 25), ("bitcount", "ntbl_bitcount", 20)],
    )
    def test_interrupted_resume_matches_uninterrupted(
        self, tmp_path, bench, name, cap
    ):
        baseline = enumerate_space(
            bench_function(bench, name), EnumerationConfig()
        )
        assert baseline.completed

        path = str(tmp_path / "ckpt.json")
        aborted = enumerate_space(
            bench_function(bench, name),
            EnumerationConfig(max_nodes=cap, checkpoint_path=path),
        )
        assert not aborted.completed

        resumed = enumerate_space(
            bench_function(bench, name),
            EnumerationConfig(checkpoint_path=path, resume=True),
        )
        assert resumed.completed
        assert resumed.resumed_from == path
        assert dag_snapshot(resumed.dag) == dag_snapshot(baseline.dag)
        assert resumed.attempted_phases == baseline.attempted_phases

    def test_chained_resume(self, tmp_path):
        baseline = enumerate_space(
            bench_function("sha", "rol"), EnumerationConfig()
        )
        path = str(tmp_path / "ckpt.json")
        result = enumerate_space(
            bench_function("sha", "rol"),
            EnumerationConfig(max_nodes=10, checkpoint_path=path),
        )
        assert not result.completed
        result = enumerate_space(
            bench_function("sha", "rol"),
            EnumerationConfig(max_nodes=40, checkpoint_path=path, resume=True),
        )
        assert not result.completed
        result = enumerate_space(
            bench_function("sha", "rol"),
            EnumerationConfig(checkpoint_path=path, resume=True),
        )
        assert result.completed
        assert dag_snapshot(result.dag) == dag_snapshot(baseline.dag)

    def test_checkpoint_removed_on_completion(self, tmp_path):
        path = tmp_path / "ckpt.json"
        result = enumerate_space(
            compile_fn(MAXI_SRC, "maxi"),
            EnumerationConfig(checkpoint_path=str(path)),
        )
        assert result.completed
        assert not path.exists()

    def test_checkpoint_written_on_abort(self, tmp_path):
        path = tmp_path / "ckpt.json"
        result = enumerate_space(
            compile_fn(GCD_SRC, "gcd"),
            EnumerationConfig(max_nodes=10, checkpoint_path=str(path)),
        )
        assert not result.completed
        state = ckpt.load_checkpoint(str(path))
        assert state["function_name"] == "gcd"
        assert not state["completed"]
        assert len(state["dag"]["nodes"]) == len(result.dag)


class TestResumeSafety:
    def test_wrong_function_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        enumerate_space(
            compile_fn(GCD_SRC, "gcd"),
            EnumerationConfig(max_nodes=10, checkpoint_path=path),
        )
        with pytest.raises(ckpt.CheckpointError, match="for function"):
            enumerate_space(
                compile_fn(MAXI_SRC, "maxi"),
                EnumerationConfig(checkpoint_path=path, resume=True),
            )

    def test_changed_source_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        enumerate_space(
            compile_fn(GCD_SRC, "gcd"),
            EnumerationConfig(max_nodes=10, checkpoint_path=path),
        )
        other = compile_fn(
            "int gcd(int a, int b) { return a + b; }", "gcd"
        )
        with pytest.raises(ckpt.CheckpointError, match="root fingerprint"):
            enumerate_space(
                other, EnumerationConfig(checkpoint_path=path, resume=True)
            )

    def test_different_settings_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        enumerate_space(
            compile_fn(GCD_SRC, "gcd"),
            EnumerationConfig(max_nodes=10, checkpoint_path=path),
        )
        with pytest.raises(ckpt.CheckpointError, match="different enumeration"):
            enumerate_space(
                compile_fn(GCD_SRC, "gcd"),
                EnumerationConfig(
                    checkpoint_path=path, resume=True, remap=False
                ),
            )

    def test_resume_without_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "never-written.json")
        result = enumerate_space(
            compile_fn(MAXI_SRC, "maxi"),
            EnumerationConfig(checkpoint_path=path, resume=True),
        )
        assert result.completed
        assert result.resumed_from is None


class TestFaultInjectionEndToEnd:
    def test_n_faults_yield_n_quarantine_records(self):
        injector = FaultInjector(
            seed=11, modes=("raise", "corrupt"), attempts={3, 11, 29}
        )
        result = enumerate_space(
            compile_fn(MAXI_SRC, "maxi"),
            EnumerationConfig(validate=True, fault_injector=injector),
        )
        assert result.completed
        assert injector.injected == 3
        assert len(result.quarantine) == 3
        for record in result.quarantine:
            assert record.kind in ("exception", "validation")

    def test_rate_based_faults_complete(self):
        injector = FaultInjector(seed=5, rate=0.1, modes=("raise", "corrupt"))
        result = enumerate_space(
            compile_fn(MAXI_SRC, "maxi"),
            EnumerationConfig(validate=True, fault_injector=injector),
        )
        assert result.completed
        assert injector.injected > 0
        assert len(result.quarantine) == injector.injected

    def test_faults_survive_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        injector = FaultInjector(seed=11, modes=("raise",), attempts={3, 7})
        aborted = enumerate_space(
            compile_fn(MAXI_SRC, "maxi"),
            EnumerationConfig(
                max_nodes=6,
                validate=True,
                fault_injector=injector,
                checkpoint_path=path,
            ),
        )
        assert not aborted.completed
        resumed = enumerate_space(
            compile_fn(MAXI_SRC, "maxi"),
            EnumerationConfig(
                validate=True,
                fault_injector=FaultInjector(seed=11, modes=("raise",), attempts=set()),
                checkpoint_path=path,
                resume=True,
            ),
        )
        assert resumed.completed
        # Quarantine records from before the abort are carried over.
        assert len(resumed.quarantine) >= len(aborted.quarantine)


class TestCheckpointLock:
    def test_acquire_release_cycle(self, tmp_path):
        path = str(tmp_path / "space.ckpt.json")
        lock = ckpt.CheckpointLock(path)
        lock.acquire()
        assert lock.held
        assert os.path.exists(path + ".lock")
        lock.release()
        assert not lock.held
        assert not os.path.exists(path + ".lock")
        # releasing twice is harmless
        lock.release()

    def test_second_acquire_fails_while_held(self, tmp_path):
        path = str(tmp_path / "space.ckpt.json")
        with ckpt.CheckpointLock(path):
            with pytest.raises(ckpt.CheckpointError, match="locked by"):
                ckpt.CheckpointLock(path).acquire()
        # released: acquirable again
        with ckpt.CheckpointLock(path):
            pass

    def test_stale_lock_of_dead_process_is_stolen(self, tmp_path):
        path = str(tmp_path / "space.ckpt.json")
        # No live process has this pid (kernel pid_max is far below it).
        with open(path + ".lock", "w") as handle:
            handle.write("99999999\n")
        with ckpt.CheckpointLock(path) as lock:
            assert lock.held

    def test_garbage_lock_file_is_stolen(self, tmp_path):
        path = str(tmp_path / "space.ckpt.json")
        with open(path + ".lock", "w") as handle:
            handle.write("not a pid")
        with ckpt.CheckpointLock(path) as lock:
            assert lock.held

    def test_enumeration_releases_lock_on_completion(self, tmp_path, gcd_func):
        path = str(tmp_path / "gcd.ckpt.json")
        config = EnumerationConfig(checkpoint_path=path)
        result = enumerate_space(gcd_func, config)
        assert result.completed
        assert not os.path.exists(path + ".lock")
        # ...and the path is immediately reusable by another run
        again = enumerate_space(gcd_func, EnumerationConfig(checkpoint_path=path))
        assert again.completed

    def test_enumeration_releases_lock_on_abort(self, tmp_path, gcd_func):
        path = str(tmp_path / "gcd.ckpt.json")
        result = enumerate_space(
            gcd_func, EnumerationConfig(max_nodes=5, checkpoint_path=path)
        )
        assert not result.completed
        assert os.path.exists(path)  # abort checkpoint written
        assert not os.path.exists(path + ".lock")

    def test_concurrent_enumeration_is_rejected(self, tmp_path, gcd_func):
        path = str(tmp_path / "gcd.ckpt.json")
        held = ckpt.CheckpointLock(path).acquire()
        try:
            with pytest.raises(ckpt.CheckpointError, match="locked by"):
                enumerate_space(
                    gcd_func, EnumerationConfig(checkpoint_path=path)
                )
        finally:
            held.release()
