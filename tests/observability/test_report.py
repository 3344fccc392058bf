"""``repro report`` end to end, and journal/result accounting closure.

These tests drive the real CLI: a serial ``--run-dir`` run and a
``--jobs 2`` run over the same function must both leave a
schema-valid journal + manifest behind, report identical phase-outcome
accounting, and replay through the live reporter without double
counting functions across cache_hit/function_done events.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.observability.events import validate_journal
from repro.observability.report import summarize_run
from repro.parallel.telemetry import replay_journal

ROL = ["enumerate", "bench:sha", "--function", "rol", "--max-nodes", "300"]


def _accounting(summary):
    row = summary["functions"]["rol"]
    return (
        row["instances"],
        row["levels"],
        row["attempted"],
        row["active"],
        row["dormant"],
        row["quarantined"],
        row["completed"],
    )


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("obs") / "serial")
    assert main(ROL + ["--run-dir", run_dir]) == 0
    return run_dir


@pytest.fixture(scope="module")
def parallel_run(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("obs") / "jobs2")
    assert main(ROL + ["--jobs", "2", "--run-dir", run_dir]) == 0
    return run_dir


def test_serial_run_dir_artifacts(serial_run):
    assert os.path.exists(os.path.join(serial_run, "manifest.json"))
    records, errors = validate_journal(os.path.join(serial_run, "events.jsonl"))
    assert errors == []
    names = [record["event"] for record in records]
    assert names[0] == "run_start"
    assert names[-1] == "run_end"
    summary = summarize_run(serial_run)
    assert summary["manifest"]["tool"] == "repro.enumerate"
    assert summary["manifest"]["ok"] is True
    assert summary["totals"]["schema_errors"] == 0


def test_parallel_run_dir_artifacts(parallel_run):
    records, errors = validate_journal(os.path.join(parallel_run, "events.jsonl"))
    assert errors == []
    names = {record["event"] for record in records}
    assert {"run_start", "job_start", "shard_done", "phase_stats",
            "function_done", "run_end"} <= names
    summary = summarize_run(parallel_run)
    assert summary["manifest"]["ok"] is True


def test_serial_and_parallel_accounting_agree(serial_run, parallel_run):
    """The report's attempted/active/dormant partition is identical for
    --jobs 1 and --jobs 2 runs of the same space (replay semantics)."""
    serial = summarize_run(serial_run)
    parallel = summarize_run(parallel_run)
    assert _accounting(serial) == _accounting(parallel)
    row = serial["functions"]["rol"]
    assert row["attempted"] == row["active"] + row["dormant"]
    assert row["attempted"] > 0


def test_report_command_renders_both(serial_run, parallel_run, capsys):
    for run_dir in (serial_run, parallel_run):
        assert main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert f"Run report — {run_dir}" in out
        assert "attempted" in out and "active" in out and "dormant" in out
        assert "analysis cache:" in out or run_dir.endswith("jobs2")
        assert "quarantine: 0" in out
        assert "complete" in out


def test_report_json_output(serial_run, capsys):
    assert main(["report", serial_run, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["functions"]["rol"]["completed"] is True
    assert summary["totals"]["schema_errors"] == 0


def test_report_rejects_non_run_dir(tmp_path):
    with pytest.raises(SystemExit, match="not a run dir"):
        main(["report", str(tmp_path)])


def test_journal_replay_matches_merged_result(parallel_run):
    """Satellite: replaying the journal through the reporter yields
    gauges that match the merged result — one function, done exactly
    once (no double count across cache_hit/function_done/shard_done)."""
    reporter = replay_journal(os.path.join(parallel_run, "events.jsonl"))
    assert reporter.functions_total == 1
    assert reporter.functions_done == 1
    assert reporter.cached_done == 0
    assert reporter.total_done == 1
    summary = summarize_run(parallel_run)
    # shard_done attempts sum to the function's attempted count
    assert reporter.attempts == summary["functions"]["rol"]["attempted"]


def test_fault_injection_quarantines_reported(tmp_path, capsys):
    run_dir = str(tmp_path / "faulty")
    assert main(ROL + [
        "--run-dir", run_dir, "--validate",
        "--inject-faults", "0.2", "--fault-seed", "7",
    ]) == 0
    capsys.readouterr()
    summary = summarize_run(run_dir)
    assert summary["totals"]["faults_injected"] > 0
    assert summary["totals"]["quarantine_total"] > 0
    assert summary["manifest"]["seeds"] == {"fault": 7}
    row = summary["functions"]["rol"]
    assert row["quarantined"] == summary["totals"]["quarantine_total"]
    assert main(["report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "faults injected:" in out


def test_warm_store_run_reports_cache_hit(tmp_path, capsys):
    store = str(tmp_path / "store")
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    argv = ROL + ["--jobs", "2", "--store", store]
    assert main(argv + ["--run-dir", first]) == 0
    assert main(argv + ["--run-dir", second]) == 0
    capsys.readouterr()
    summary = summarize_run(second)
    assert summary["totals"]["store_cache_hits"] == 1
    row = summary["functions"]["rol"]
    assert row["cached"] is True
    assert row["completed"] is True
    # a cached function was never enumerated: no phase outcomes
    assert row["attempted"] == 0
    reporter = replay_journal(os.path.join(second, "events.jsonl"))
    assert reporter.cached_done == 1
    assert reporter.functions_done == 0


def test_search_bench_run_reports_search_section(tmp_path, capsys):
    run_dir = str(tmp_path / "bench")
    assert (
        main(
            [
                "search-bench",
                "--functions",
                "jpeg.descale",
                "--strategies",
                "random",
                "--trials",
                "1",
                "--out",
                str(tmp_path / "search.json"),
                "--run-dir",
                run_dir,
            ]
        )
        == 0
    )
    capsys.readouterr()
    records, errors = validate_journal(os.path.join(run_dir, "events.jsonl"))
    assert errors == []
    names = [record["event"] for record in records]
    for expected in (
        "search_start",
        "search_space",
        "search_strategy",
        "search_done",
    ):
        assert expected in names
    summary = summarize_run(run_dir)
    search = summary["search"]
    assert search is not None
    assert search["functions"] == 1
    assert [space["function"] for space in search["spaces"]] == ["jpeg.descale"]
    assert main(["report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "search lab" in out
    assert "jpeg.descale" in out


def test_report_without_search_events_omits_section(serial_run, capsys):
    summary = summarize_run(serial_run)
    assert summary["search"] is None
    assert main(["report", serial_run]) == 0
    assert "search lab" not in capsys.readouterr().out


def test_unknown_event_kinds_warn_instead_of_erroring(tmp_path, capsys):
    """Forward compatibility: a journal written by a newer schema may
    contain event kinds this build does not know.  They must surface as
    a warning counter — never as schema errors, never silently dropped."""
    run_dir = tmp_path / "future"
    run_dir.mkdir()
    records = [
        {"t": 0.0, "event": "run_start", "tool": "repro.enumerate"},
        {"t": 0.1, "event": "hologram_stats", "function": "rol", "shards": 3},
        {"t": 0.2, "event": "hologram_stats", "function": "rol", "shards": 4},
        {"t": 0.3, "event": "quantum_leap"},
        {"t": 0.4, "event": "run_end", "wall": 0.4},
    ]
    with open(run_dir / "events.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    summary = summarize_run(str(run_dir))
    totals = summary["totals"]
    assert totals["schema_errors"] == 0
    assert totals["unknown_events"] == 3
    assert totals["unknown_event_names"] == ["hologram_stats", "quantum_leap"]
    assert totals["events"] == len(records)
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "warning: 3 event(s) of unknown kind(s)" in out
    assert "hologram_stats" in out
    # a KNOWN event with missing required fields is still a violation
    with open(run_dir / "events.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"t": 0.5, "event": "enum_start"}) + "\n")
    summary = summarize_run(str(run_dir))
    assert summary["totals"]["schema_errors"] == 1
    assert summary["totals"]["unknown_events"] == 3


def test_dropped_event_kinds_of_older_journals_warn(tmp_path, capsys):
    # schema v3 dropped memo_stats and profile_run; a journal that an
    # older build wrote still reads, with both counted as unknown
    run_dir = tmp_path / "v2"
    run_dir.mkdir()
    records = [
        {"t": 0.0, "event": "run_start", "tool": "repro.enumerate"},
        {"t": 0.1, "event": "memo_stats", "hits": 0, "misses": 974},
        {"t": 0.2, "event": "profile_run", "function": "rol", "wall": 0.1},
        {"t": 0.3, "event": "run_end", "wall": 0.3},
    ]
    with open(run_dir / "events.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    totals = summarize_run(str(run_dir))["totals"]
    assert totals["schema_errors"] == 0
    assert totals["unknown_event_names"] == ["memo_stats", "profile_run"]
    assert main(["report", str(run_dir)]) == 0
    assert "warning: 2 event(s) of unknown kind(s)" in capsys.readouterr().out


def test_uncanonical_instances_show_in_enumerate_and_report(
    tmp_path, capsys, monkeypatch
):
    # A canonicalizer that raises on every instance turns semantic
    # collapse off; both summary lines must say so, not just "0 refuted".
    from repro.core.enumeration import EnumerationConfig, enumerate_space
    from repro.frontend import compile_source
    from repro.programs import PROGRAMS
    from repro.staticanalysis import canon

    func = compile_source(PROGRAMS["sha"].source).functions["rol"]
    nodes = len(enumerate_space(func, EnumerationConfig(max_nodes=300)).dag.nodes)

    def broken(flat):
        raise RuntimeError("canonicalizer bug")

    monkeypatch.setattr(canon, "canonical_summary", broken)
    run_dir = str(tmp_path / "uncanonical")
    assert main(ROL + ["--collapse", "semantic", "--run-dir", run_dir]) == 0
    enumerate_line = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("collapse (semantic):")
    ]
    assert enumerate_line == [
        "collapse (semantic): 0 merged (0 proved, 0 tested) of 0 candidates — "
        "0 unproven, 0 cycle-split, 0 size-split, 0 refuted, "
        f"{nodes} uncanonical"
    ]
    assert summarize_run(run_dir)["collapse"]["uncanonical"] == nodes
    assert main(["report", run_dir]) == 0
    out = capsys.readouterr().out
    assert f"0 refuted, {nodes} uncanonical, 0 semantic class(es)" in out


def test_collapse_stats_render_in_report(tmp_path, capsys):
    run_dir = str(tmp_path / "collapse")
    assert (
        main(
            ROL
            + ["--collapse", "semantic", "--run-dir", run_dir]
        )
        == 0
    )
    capsys.readouterr()
    records, errors = validate_journal(os.path.join(run_dir, "events.jsonl"))
    assert errors == []
    assert "collapse_stats" in [record["event"] for record in records]
    summary = summarize_run(run_dir)
    collapse = summary["collapse"]
    assert collapse is not None
    assert collapse["refuted"] == 0
    assert collapse["merged"] == (
        collapse["merged_proved"] + collapse["merged_tested"]
    )
    assert main(["report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "collapse (semantic):" in out
    assert "0 refuted" in out
