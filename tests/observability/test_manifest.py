"""RunManifest: digests, env toggles, atomic write/finalize cycle."""

from __future__ import annotations

import json

from repro.observability import (
    build_manifest,
    config_digest,
    finalize_manifest,
    load_manifest,
    write_manifest,
)
from repro.observability.events import SCHEMA_VERSION


def test_config_digest_is_stable_and_order_independent():
    assert config_digest(None) is None
    a = config_digest({"jobs": 2, "exact": True})
    b = config_digest({"exact": True, "jobs": 2})
    assert a == b
    assert len(a) == 16
    assert a != config_digest({"jobs": 4, "exact": True})


def test_env_toggles_capture_repro_vars_only(monkeypatch):
    monkeypatch.setenv("REPRO_PARANOID_ANALYSIS", "1")
    monkeypatch.setenv("UNRELATED", "x")
    manifest = build_manifest(tool="test")
    assert manifest["env"].get("REPRO_PARANOID_ANALYSIS") == "1"
    assert "UNRELATED" not in manifest["env"]


def test_build_write_load_finalize_roundtrip(tmp_path):
    run_dir = str(tmp_path / "run")
    manifest = build_manifest(
        tool="repro.test",
        config={"max_nodes": 100},
        seeds={"fault": 7},
        argv=["enumerate", "bench:sha"],
        extra={"jobs": 2},
    )
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["config_digest"] == config_digest({"max_nodes": 100})
    assert manifest["seeds"] == {"fault": 7}
    assert manifest["jobs"] == 2
    path = write_manifest(run_dir, manifest)
    # the write is valid JSON on disk and loads back unchanged
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == load_manifest(run_dir)
    finalize_manifest(run_dir, wall=1.5, cpu=1.25, ok=False)
    final = load_manifest(run_dir)
    assert final["wall_s"] == 1.5
    assert final["cpu_s"] == 1.25
    assert final["ok"] is False
    assert final["ended_at"] > final["started_at"]


def test_load_manifest_absent_or_corrupt(tmp_path):
    assert load_manifest(str(tmp_path)) is None
    (tmp_path / "manifest.json").write_text("{not json")
    assert load_manifest(str(tmp_path)) is None
    assert finalize_manifest(str(tmp_path), 1.0, 1.0) is None
