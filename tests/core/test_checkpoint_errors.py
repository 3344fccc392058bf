"""Corrupt persisted state must fail typed, diagnosed, and loud.

Every way a checkpoint or store entry can be bad — truncated JSON, a
failed integrity digest, a version from another build, a structurally
gutted payload — must surface as :class:`CheckpointError` (or its
:class:`StoreError` subclass) carrying the ``CKP001`` diagnostic,
never as a raw ``KeyError``/``ValueError`` from half-restored state.
"""

import json

import pytest

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.store import SpaceStore, StoreError
from tests.conftest import GCD_SRC, compile_fn
from tests.parallel.conftest import bench_function


@pytest.fixture
def checkpoint_path(tmp_path):
    """A real aborted-run checkpoint, ripe for corruption."""
    path = str(tmp_path / "ckpt.json")
    result = enumerate_space(
        compile_fn(GCD_SRC, "gcd"),
        EnumerationConfig(max_nodes=10, checkpoint_path=path),
    )
    assert not result.completed
    return path


def _rewrite(path, mutate):
    """Load the raw JSON, apply *mutate*, restamp a valid digest."""
    with open(path) as handle:
        state = json.load(handle)
    mutate(state)
    state.pop("digest", None)
    state["digest"] = ckpt._payload_digest(state)
    with open(path, "w") as handle:
        json.dump(state, handle)


def _resume(path):
    return enumerate_space(
        compile_fn(GCD_SRC, "gcd"),
        EnumerationConfig(checkpoint_path=path, resume=True),
    )


class TestLoadCheckpoint:
    def test_truncated_json(self, checkpoint_path):
        with open(checkpoint_path) as handle:
            text = handle.read()
        with open(checkpoint_path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(ckpt.CheckpointError, match="CKP001.*malformed"):
            ckpt.load_checkpoint(checkpoint_path)

    def test_bad_digest(self, checkpoint_path):
        with open(checkpoint_path) as handle:
            state = json.load(handle)
        state["attempted"] += 1  # silent in-place corruption
        with open(checkpoint_path, "w") as handle:
            json.dump(state, handle)
        with pytest.raises(ckpt.CheckpointError, match="CKP001.*integrity"):
            ckpt.load_checkpoint(checkpoint_path)

    def test_missing_digest(self, checkpoint_path):
        with open(checkpoint_path) as handle:
            state = json.load(handle)
        del state["digest"]
        with open(checkpoint_path, "w") as handle:
            json.dump(state, handle)
        with pytest.raises(ckpt.CheckpointError, match="integrity"):
            ckpt.load_checkpoint(checkpoint_path)

    def test_version_mismatch(self, checkpoint_path):
        # Version is checked before the digest: a file from another
        # build gets the version message, not an integrity complaint.
        with open(checkpoint_path) as handle:
            state = json.load(handle)
        state["version"] = 999
        with open(checkpoint_path, "w") as handle:
            json.dump(state, handle)
        with pytest.raises(ckpt.CheckpointError, match="CKP001.*version 999"):
            ckpt.load_checkpoint(checkpoint_path)

    def test_non_object_payload(self, tmp_path):
        path = str(tmp_path / "list.json")
        with open(path, "w") as handle:
            json.dump([1, 2, 3], handle)
        with pytest.raises(ckpt.CheckpointError, match="CKP001"):
            ckpt.load_checkpoint(path)

    def test_required_keys_enforced(self, checkpoint_path):
        _rewrite(checkpoint_path, lambda state: state.pop("dag"))
        with pytest.raises(ckpt.CheckpointError, match="CKP001.*missing.*dag"):
            ckpt.load_checkpoint(checkpoint_path, require=ckpt.ENUMERATION_KEYS)

    def test_error_carries_the_diagnostic_code(self, tmp_path):
        error = ckpt.CheckpointError("something broke")
        assert error.code == "CKP001"
        assert str(error).startswith("CKP001: ")
        # Idempotent: a re-wrapped message is not double-prefixed.
        assert str(ckpt.CheckpointError(str(error))).count("CKP001") == 1


class TestResumePaths:
    """The enumerator's resume path speaks CheckpointError only."""

    def test_truncated_checkpoint(self, checkpoint_path):
        with open(checkpoint_path) as handle:
            text = handle.read()
        with open(checkpoint_path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(ckpt.CheckpointError, match="CKP001"):
            _resume(checkpoint_path)

    def test_missing_key(self, checkpoint_path):
        _rewrite(checkpoint_path, lambda state: state.pop("frontier"))
        with pytest.raises(ckpt.CheckpointError, match="CKP001.*missing"):
            _resume(checkpoint_path)

    def test_structurally_invalid_payload(self, checkpoint_path):
        # All required keys present, digest valid — but the DAG table
        # is gutted, so the rebuild itself must be caught and typed.
        _rewrite(
            checkpoint_path,
            lambda state: state["dag"].__setitem__("nodes", [{"bogus": 1}]),
        )
        with pytest.raises(
            ckpt.CheckpointError, match="CKP001.*structurally invalid"
        ):
            _resume(checkpoint_path)

    def test_corrupt_function_text(self, checkpoint_path):
        def gut_functions(state):
            for entry in state["functions"].values():
                entry["rtl"] = "this is not RTL {"

        _rewrite(checkpoint_path, gut_functions)
        with pytest.raises(ckpt.CheckpointError, match="CKP001"):
            _resume(checkpoint_path)


class TestStoreErrors:
    @pytest.fixture
    def store_entry(self, tmp_path):
        store = SpaceStore(str(tmp_path / "store"))
        func = bench_function("jpeg", "descale")
        config = EnumerationConfig()
        result = enumerate_space(func, config)
        from repro.core.enumeration import _node_key
        from repro.core.fingerprint import fingerprint_function

        root_key = _node_key(fingerprint_function(func), func)
        path = store.put("descale", root_key, config, result)
        assert path is not None
        return store, path, root_key, config

    def test_strict_loader_raises_typed_errors(self, store_entry):
        store, path, _root_key, _config = store_entry
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(StoreError, match="CKP001"):
            store.load_entry(path, "descale")

    def test_store_error_is_a_checkpoint_error(self):
        assert issubclass(StoreError, ckpt.CheckpointError)
        assert StoreError("x").code == "CKP001"

    def test_wrong_function_rejected(self, store_entry):
        store, path, _root_key, _config = store_entry
        with pytest.raises(StoreError, match="for function"):
            store.load_entry(path, "someone_else")

    def test_gutted_payload_rejected(self, store_entry):
        store, path, _root_key, _config = store_entry
        _rewrite(path, lambda state: state.pop("attempted"))
        with pytest.raises(StoreError, match="structurally invalid"):
            store.load_entry(path, "descale")

    def test_get_degrades_corruption_to_a_counted_miss(self, store_entry):
        store, path, root_key, config = store_entry
        assert store.get("descale", root_key, config) is not None
        with open(path, "w") as handle:
            handle.write("{ truncated")
        assert store.get("descale", root_key, config) is None
        assert store.corrupt == 1
        assert store.misses >= 1
